(** Consistent-hashing router: one memcached-text-protocol endpoint
    fronting N independent shard processes, each an unmodified
    {!Netserve} instance over its own Montage region.

    The router is a single domain running one {!Netserve.Conn_core}
    loop (epoll): client connections on one side, one
    pipelined upstream connection per shard on the other.  Requests
    are split by {!Kvstore.Protocol.frames}, the framer the shards
    execute with: requests it settles itself (malformed, oversized,
    unknown) get the shard's exact reply from the router, the rest are
    forwarded verbatim to the owning shard ({!Ring.lookup}); replies
    are matched FIFO per upstream and released to each client in
    request order, so pipelining works end to end.  Multi-key [get]s
    are split by owning shard and reassembled under a single [END];
    [stats] is fanned to every Up shard and merged (numeric values
    summed) with the router's own [cluster_*] lines; [flush_all] is
    broadcast; a shard's own error reply passes through.  Apart from
    [version], [stats] and [SERVER_ERROR shard down], a 1-shard router
    answers byte for byte like its shard.

    {b Availability}: a connect or I/O failure marks the shard Down.
    Its keyspace answers [SERVER_ERROR shard down] — ownership never
    migrates, because the data lives in that shard's region and
    nowhere else — while the survivors keep serving theirs.  A Down
    shard is probed every [probe_interval_s]; since a restarting shard
    recovers its region {e before} opening its listening socket, a
    successful probe implies recovery is complete, and the shard is
    marked Up again (the rejoin).  Per-shard epoch clocks never need
    cross-shard synchronization: a key lives on exactly one shard, so
    per-key durable linearizability is exactly that shard's Montage
    guarantee (see DESIGN.md, "Cluster"). *)

type shard_addr = { sid : int; shost : string; sport : int }

type config = {
  host : string;
  port : int;  (** 0 = kernel-assigned; read it back with {!port} *)
  backlog : int;
  max_conns : int;
  read_chunk : int;
  out_hwm : int;  (** pause a client's reads above this much pending output *)
  max_line : int;  (** command-line cap; must not exceed the shards' *)
  max_value : int;  (** data-block cap, enforced before forwarding; must not exceed the shards' *)
  idle_timeout_s : float;  (** 0. = never *)
  tick_s : float;
  vnodes : int;  (** ring points per shard *)
  probe_interval_s : float;  (** Down-shard reconnect cadence *)
  connect_timeout_s : float;  (** nonblocking connect + probe deadline *)
}

val default_config : config

type t

(** Bind the client endpoint and spawn the router domain.  Shards all
    start Down and are probed immediately, so a router may start
    before (or after — the order doesn't matter) its shards; use
    {!wait_up} to block until the fleet is serving. *)
val start : ?config:config -> shard_addr list -> t

val port : t -> int

(** [(shard id, up?)] snapshot, in ring order. *)
val shard_states : t -> (int * bool) list

(** Block until [n] shards are Up (default: all), polling the state
    snapshot.  Returns [false] on timeout. *)
val wait_up : ?n:int -> t -> timeout_s:float -> bool

type stats = {
  clients_accepted : int;
  bytes_in : int;
  bytes_out : int;
  requests : int;
  shard_down_errors : int;  (** requests answered [SERVER_ERROR shard down] *)
  downs : int;  (** Up→Down transitions observed *)
  rejoins : int;  (** Down→Up transitions (successful probes) *)
}

val stats : t -> stats

(** Stop the event loop, close every client and upstream connection.
    Idempotent.  Shard processes are not touched — they belong to the
    supervisor. *)
val stop : t -> unit
