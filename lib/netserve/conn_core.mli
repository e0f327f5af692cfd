(** The connection core: one nonblocking readiness loop, shared by the
    {!Netserve} workers, the cluster router and the load generator.

    A loop multiplexes connections through one epoll instance
    ({!Poller}).  Each connection has a growable input and output
    buffer; the owner's {!handlers} consume input and queue output
    with {!send}, and the core does the I/O: draining reads, one
    batched write per dirty connection per cycle, epoll interest
    updated only on change (the core is the only record of it),
    accepting (EMFILE-tolerant, refusing fds epoll rejects),
    nonblocking connects, and a periodic sweep that reaps finished and
    idle connections. *)

(** A byte buffer whose live bytes are [bytes.[pos, len)]. *)
type buf = private { mutable bytes : Bytes.t; mutable pos : int; mutable len : int }

(** Live byte count. *)
val pending : buf -> int

(** Drop the first [n] live bytes. *)
val consume : buf -> int -> unit

(** Per-loop lifetime counters for accepted connections; single writer
    (the loop's domain), readable from others with benign staleness. *)
type counters = private {
  mutable accepted : int;
  mutable rejected : int;  (** accepted, but epoll refused the fd *)
  mutable cur : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

val counters : unit -> counters

type 'a t
type 'a conn

(** The owner's side of every connection in a loop. *)
type 'a handlers = {
  input : 'a conn -> unit;
      (** bytes were appended to {!inbuf}: consume what is complete *)
  paused : 'a conn -> bool;  (** stop reading (backpressure, after quit) *)
  finished : 'a conn -> bool;  (** close once the output has drained *)
  connected : 'a conn -> unit;  (** a {!connect} completed *)
  closed : 'a conn -> string -> unit;
      (** the connection is gone (peer, error, {!close}, reap); not
          called by {!shutdown} *)
}

(** [read_chunk] sizes the loop's one read buffer (default 64 KiB);
    [idle_timeout_s] (default 0 = never) reaps accepted connections
    idle that long; [counters] receives the accepted-connection
    counts; [name] prefixes log lines.
    @raise Failure off Linux (no epoll). *)
val create :
  ?read_chunk:int -> ?idle_timeout_s:float -> ?counters:counters -> name:string -> 'a handlers -> 'a t

(** Accept from the (nonblocking, shareable) listening socket, at most
    [max_conns] accepted connections at a time; [make] builds each
    one's owner data. *)
val listen : 'a t -> Unix.file_descr -> max_conns:int -> (Unix.file_descr -> 'a) -> unit

(** Stop accepting (graceful drain); served connections stay. *)
val stop_accepting : 'a t -> unit

(** Adopt a connected socket.  [Error] (fd closed) when epoll refuses
    it. *)
val add : 'a t -> Unix.file_descr -> 'a -> ('a conn, string) result

(** Start a nonblocking connect; {!handlers.connected} fires when it
    completes, {!handlers.closed} when it fails later.  [Error] when it
    fails at once. *)
val connect : 'a t -> Unix.sockaddr -> 'a -> ('a conn, string) result

(** One readiness cycle: flush queued output, wait up to [timeout_s]
    for events and serve them, flush again, sweep when due. *)
val step : 'a t -> timeout_s:float -> unit

(** Connections currently held. *)
val count : 'a t -> int

(** Close every connection (after one last write of its pending
    output) without calling [closed], close the epoll fd, and return
    how many were open.  The listening socket is the caller's. *)
val shutdown : 'a t -> int

val data : 'a conn -> 'a
val inbuf : 'a conn -> buf
val alive : 'a conn -> bool

(** Output bytes queued and not yet written. *)
val out_pending : 'a conn -> int

(** Queue output; it is written at the end of the cycle.  No-op on a
    closed connection. *)
val send : 'a conn -> string -> unit

val send_sub : 'a conn -> Bytes.t -> int -> int -> unit

(** Close now, reporting [reason] to {!handlers.closed}.  Idempotent. *)
val close : 'a conn -> string -> unit
