(** The one store-backed server (the CLI's [shard], [serve], [c10k]
    and [netsmoke], the bench's front-end figures): an unmodified
    {!Netserve} instance over its own Montage region, with a heap file
    giving the region durability across process restarts.

    Lifecycle: if [heap_file] exists, the region is rebuilt from it
    with {!Nvm.Region.of_image} and the store recovered ({e before}
    the listening socket opens, so a router's successful probe implies
    recovery is complete); otherwise a fresh region is created.  On
    stop the shard drains and epoch-syncs through {!Netserve.shutdown}
    — every acked reply is then inside the durable frontier — stops
    the advancer, and only then writes {!Nvm.Region.media_image} to
    [heap_file] (tmp + fsync + rename + directory fsync).

    Crash model: the simulated NVM lives in process DRAM, so the heap
    file stands in for the persistence domain — it holds exactly the
    fenced bytes, the same state {!Nvm.Region.crash} would leave on
    real hardware.  A SIGKILLed shard therefore restarts {e empty}
    (nothing reached the "media"); the kill/recover scenarios use
    SIGTERM, whose image write persists precisely the post-sync crash
    state.  See DESIGN.md, "Cluster". *)

type backend = Bk_montage | Bk_mhamt | Bk_transient

(** The one backend-name parser. *)
val backend_of_string : string -> backend option

val backend_name : backend -> string

type config = {
  backend : backend;
  host : string;
  port : int;
  workers : int;
  capacity_mib : int;
  heap_file : string;  (** "" = no durability (transient, or throwaway) *)
  seconds : float;  (** 0. = until signaled *)
  drain_timeout_s : float;
      (** shutdown drain bound.  A shard is fronted by a router whose
          persistent upstream connection never disconnects on its own,
          so the drain always runs to this deadline — keep it short
          (default 1 s); in-flight requests are still answered first *)
}

val default_config : config

(** The command line that runs [cfg] in a child process: [exe] is the
    montage CLI, whose [shard] subcommand calls {!run}.  A fresh exec,
    since OCaml 5 cannot fork once domains exist. *)
val argv : exe:string -> config -> string array

type t

(** Build the region (fresh, or rebuilt from [heap_file] and
    recovered), the epoch system (for [workers] server tids plus the
    advancer), the store, and last the server, listening when this
    returns.  [server] gives the netserve settings [cfg] does not
    (default {!Netserve.default_config}).
    @raise Invalid_argument when [workers < 1].
    @raise Unix.Unix_error when the bind fails. *)
val start : ?server:Netserve.config -> config -> t

(** Drain and sync ({!Netserve.shutdown}), stop the advancer, then
    write the heap image if [heap_file] is set: every write acked
    before the call is in it.  A second call returns the same stats. *)
val stop : t -> Netserve.drain_stats

(** {!start}; serve until SIGTERM/SIGINT (or [seconds]); {!stop}.
    [on_ready] fires once the socket is bound.  Installs its own signal
    handlers — call this only from a dedicated server process. *)
val run : ?on_ready:(t -> unit) -> config -> (t * Netserve.drain_stats, string) result

(** The bound port (useful with [port = 0]). *)
val port : t -> int

(** The epoch system (and through it the region); [None] for the
    transient backend. *)
val esys : t -> Montage.Epoch_sys.t option

(** {!Netserve.totals}. *)
val totals : t -> int * int * int * int
