(** A cluster on this host: N supervised shard processes behind an
    in-process {!Router}, launched, converged and torn down as one unit.
    The CLI's [cluster] and [clustersmoke] and the [cluster] figure all
    start their clusters here. *)

(** Where the shards keep their heap files. *)
type heap =
  | No_heap  (** none: a restarted shard comes back empty *)
  | Temp_dir  (** a fresh private directory, removed at teardown *)
  | Dir of string  (** created if missing and kept, for the next launch to recover *)

type t

(** [with_ ~exe ~shards template f] spawns [shards] children running
    {!Shard.argv} [~exe] of [template], with shard [i] ("shard-i") on
    port [port_base + i] (a free port if [port_base] is omitted) and
    its heap file filled in; starts the router; runs [f].  Then, on
    every exit path, it stops the router, shuts the children down and
    removes a [Temp_dir].  [on_exit] hears of each child exit the
    supervisor reaps before restarting it.  Call {!wait_up} in [f] to
    wait for the ring to converge. *)
val with_ :
  exe:string ->
  ?port_base:int ->
  ?heap:heap ->
  router:Router.config ->
  ?on_exit:(string -> Unix.process_status -> unit) ->
  shards:int ->
  Shard.config ->
  (t -> 'a) ->
  'a

val router : t -> Router.t
val ring : t -> Ring.t

(** Wait until every shard is Up, ticking the supervisor meanwhile so a
    child that exits during startup is respawned.  [false] after 30 s,
    or as soon as [stop ()] holds. *)
val wait_up : ?stop:(unit -> bool) -> t -> bool

(** Reap exited children and restart them (nonblocking). *)
val tick : t -> unit

(** Send shard [i] SIGTERM; a later {!tick} restarts it. *)
val signal : t -> int -> unit

(** How many times shard [i] has been restarted. *)
val restarts : t -> int -> int
