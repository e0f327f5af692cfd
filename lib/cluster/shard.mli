(** One cluster shard: an unmodified {!Netserve} instance over its own
    Montage region, with a heap file giving the region durability
    across process restarts.

    Lifecycle: if [heap_file] exists, the region is rebuilt from it
    with {!Nvm.Region.of_image} and the store recovered ({e before}
    the listening socket opens, so a router's successful probe implies
    recovery is complete); otherwise a fresh region is created.  On
    SIGTERM/SIGINT the shard drains and epoch-syncs through
    {!Netserve.shutdown} — every acked reply is then inside the
    durable frontier — writes {!Nvm.Region.media_image} atomically
    (tmp + rename) to [heap_file], and returns.

    Crash model: the simulated NVM lives in process DRAM, so the heap
    file stands in for the persistence domain — it holds exactly the
    fenced bytes, the same state {!Nvm.Region.crash} would leave on
    real hardware.  A SIGKILLed shard therefore restarts {e empty}
    (nothing reached the "media"); the kill/recover scenarios use
    SIGTERM, whose image write persists precisely the post-sync crash
    state.  See DESIGN.md, "Cluster". *)

type backend = Bk_montage | Bk_mhamt | Bk_transient

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

(** Serve until SIGTERM/SIGINT (or [seconds]); then drain, sync, save
    the heap image and return.  [on_ready] fires once the socket is
    bound (with the actual port).  Installs its own signal handlers —
    call this only from a dedicated shard process. *)
val run : ?on_ready:(port:int -> unit) -> config -> (unit, string) result
