(** Memcached-protocol load generator for {!Netserve}: closed-loop and
    open-loop, one driver.

    [domains] generator domains each own [conns / domains]
    nonblocking connections on a {!Conn_core} loop and send commands
    (get with probability [get_frac], else a [value_size]-byte set
    over [keyspace] keys).

    Closed loop ({!run}): arrival on completion — each connection
    keeps one [pipeline]-deep batch in flight and sends the next when
    the last reply of the previous one arrives; each command is
    charged the batch round trip divided by [pipeline], recorded into
    a log-scale histogram.  Latency includes the server's
    batched-flush cycle honestly, but offered load collapses when the
    server slows, hiding overload.

    Open loop ({!run_open}): commands arrive on a fixed schedule
    ([rate] ops/s, {!Poisson} or {!Uniform} interarrivals) regardless
    of server speed.  Latency is charged from the {e scheduled}
    arrival time, so server-imposed queueing delay lands in the tail —
    the coordinated-omission fix a closed loop cannot provide.

    Both modes frame replies with {!Kvstore.Protocol.Client} — the same
    reply-unit decoder the cluster router uses on its upstream
    connections — and can spread connections over several [endpoints]
    (routers or shards) with per-endpoint accounting that separates
    endpoint failures (disconnects, abandons) from [SERVER_ERROR shard
    down] replies relayed by a healthy router. *)

type config = {
  host : string;
  port : int;
  endpoints : (string * int) list;
      (** addresses to spread connections over, round-robin; [[]] means
          [[(host, port)]] *)
  conns : int;
  domains : int;
  duration_s : float;
  pipeline : int;  (** closed loop only: commands per batch *)
  value_size : int;
  keyspace : int;
  get_frac : float;  (** in [0, 1]; the rest are sets *)
  seed : int;
  key_prefix : string;
}

(** 8 connections over 2 domains, 2 s, pipeline 8, 64-byte values,
    10k keys, 90% gets. *)
val default_config : config

(** The server side of a connection went away (closed socket, reset),
    or a connection could not be set up.  {!run} records a lost
    connection in {!report.disconnects} and keeps driving the domain's
    others; {!preload} raises it, since a preload cannot meaningfully
    continue without the connection.
    Initial connects go through {!Client.connect}, which retries with
    bounded backoff, so a listen backlog overflow during a connection
    ramp does not kill the run. *)
exception Connection_lost of string

(** Per-endpoint accounting, in the order of {!config.endpoints} (or
    the single [(host, port)] when that list is empty). *)
type endpoint_stats = {
  ep_host : string;
  ep_port : int;
  ep_ops : int;  (** completed reply units *)
  ep_errors : int;  (** error replies other than shard-down *)
  ep_shard_down : int;  (** [SERVER_ERROR shard down] replies *)
  ep_abandoned : int;  (** open loop: sent, never answered *)
  ep_disconnects : int;
}

type report = {
  ops : int;
  errors : int;  (** ERROR/CLIENT_ERROR/SERVER_ERROR replies, minus shard-down *)
  shard_down_errors : int;
      (** [SERVER_ERROR shard down] replies — the endpoint answered,
          but the owning shard behind it was down *)
  hits : int;  (** VALUE blocks returned *)
  seconds : float;
  ops_per_sec : float;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  disconnects : string list;
      (** one entry per generator domain that lost its connection
          mid-run, with the reason; empty on a clean run *)
  by_endpoint : endpoint_stats list;
}

(** Populate every key in [keyspace] with one pipelined connection, so
    a read-heavy {!run} measures hits rather than misses. *)
val preload : ?config:config -> unit -> unit

(** Run the closed loop for [duration_s] and merge the per-domain
    histograms into one report. *)
val run : ?config:config -> unit -> report

(** Render through {!Benchlib.Report.table}. *)
val print_report : label:string -> report -> unit

(** {1 Open loop} *)

(** Interarrival distribution for the open-loop schedule: {!Poisson}
    (exponential interarrivals — bursty, like independent clients) or
    {!Uniform} (evenly spaced). *)
type arrival = Poisson | Uniform

val arrival_of_string : string -> arrival option

type open_report = {
  offered_rate : float;
  achieved_rate : float;  (** completions / scheduling window *)
  sent : int;
  completed : int;
  abandoned : int;  (** sent but unanswered when the grace period expired *)
  o_errors : int;
  o_shard_down_errors : int;  (** [SERVER_ERROR shard down] replies *)
  o_hits : int;
  o_seconds : float;  (** wall time including the drain grace period *)
  o_mean_us : float;
  o_p50_us : float;
  o_p95_us : float;
  o_p99_us : float;
  o_disconnects : string list;
  o_by_endpoint : endpoint_stats list;
}

(** Offer [rate] ops/s for [duration_s] on the fixed schedule, then
    wait up to [grace_s] (default 1 s) for stragglers.  Requests still
    unanswered after the grace period count as [abandoned].  Latency
    for every completion is measured from its scheduled arrival time
    (coordinated-omission-aware), so under overload the tail reflects
    queueing delay, not just service time. *)
val run_open :
  ?config:config -> ?arrival:arrival -> ?grace_s:float -> rate:float -> unit -> open_report

(** Render through {!Benchlib.Report.table}. *)
val print_open_report : label:string -> open_report -> unit
