(** Sharded TCP front end serving the memcached text protocol over
    {!Kvstore.Store}.

    [workers] event-loop domains share one nonblocking listening
    socket (kernel-balanced accept sharding); worker [w] owns Montage
    thread id [w], so epoch hooks and per-thread persist buffers stay
    thread-local.  Each worker runs its connections on the shared
    connection core ({!Conn_core}, over Linux epoll through {!Poller};
    serving needs Linux): reads are framed and executed in place by
    {!Kvstore.Protocol.serve}, the replies of a readiness cycle flush
    with one batched write per dirty connection (O(active), not
    O(connections)), pending-output high-water marks pause reads
    (backpressure), and idle/slow clients are reaped by a periodic
    monotonic-clock sweep.  Epoll interest changes only on state
    transitions, so idle connections cost nothing per tick.

    {!shutdown} drains gracefully — stop accepting, serve until the
    clients disconnect or [drain_timeout_s] passes, join the workers —
    and {e then} runs the epoch-sync hook, so every acked reply is
    inside the durable frontier a post-shutdown crash recovers. *)

type config = {
  host : string;
  port : int;  (** 0 = kernel-assigned; read it back with {!port} *)
  workers : int;
  backlog : int;
  max_conns : int;  (** per worker *)
  read_chunk : int;
  out_hwm : int;  (** pause reads above this many pending output bytes *)
  idle_timeout_s : float;  (** 0. = never *)
  drain_timeout_s : float;
  tick_s : float;  (** poll timeout: stop/timeout poll granularity *)
  max_line : int;  (** protocol command-line cap *)
  max_value : int;  (** protocol data-block cap *)
}

(** Port 11211 on 127.0.0.1, 2 workers, 16384 conns/worker, 1 MiB
    output high-water mark, 60 s idle timeout, 5 s drain timeout. *)
val default_config : config

type drain_stats = {
  drained_conns : int;  (** connections open when shutdown began *)
  forced_closes : int;  (** still open at the drain deadline *)
  drain_s : float;
  sync_s : float;
  persisted_epoch : int;  (** durable frontier after the sync; -1 without hooks *)
}

type t

(** Bind, listen and spawn the worker domains.  [sync] is called once
    after the workers have joined (graceful shutdown's durability
    barrier — pass [Epoch_sys.sync esys] for a Montage-backed store);
    [persisted_epoch] reports the durable frontier for
    {!drain_stats}.  The store's backend must accept tids
    [0 .. workers-1].
    @raise Unix.Unix_error when the bind fails. *)
val start :
  ?config:config ->
  ?sync:(tid:int -> unit) ->
  ?persisted_epoch:(unit -> int) ->
  Kvstore.Store.t ->
  t

(** The bound port (useful with [port = 0]). *)
val port : t -> int

(** Graceful shutdown: stop accepting, drain, join workers, sync.
    Idempotent — later calls return the first result. *)
val shutdown : t -> drain_stats

(** Aggregate lifetime counters across workers:
    [(connections_accepted, bytes_in, bytes_out, commands)]. *)
val totals : t -> int * int * int * int

(** The epoll binding, the event-loop clock and the fd-limit raiser. *)
module Poller = Poller

(** The connection core the workers, the cluster router and the load
    generator run on. *)
module Conn_core = Conn_core

(** The companion load generator (closed-loop and open-loop). *)
module Loadgen = Loadgen

(** The blocking client the CLI drivers, the bench figures and the
    tests share. *)
module Client = Client
