(** The one blocking memcached client: the CLI's [c10k], [netsmoke]
    and [clustersmoke], the [c10k] and [cluster] figures, the loopback
    tests and the load generator's connects all use it.  A server that
    stops answering ends a read after the 10 s receive timeout with
    whatever had arrived, so a caller sees a short reply, not a hang. *)

(** Connect to [host] (default loopback) on [port], retrying with
    bounded backoff while the connect is refused, reset or timed out
    (a listen backlog overflowing during a ramp, a server still
    starting).  Sets TCP_NODELAY and the receive timeout, and ignores
    SIGPIPE so writing to a closed peer raises [EPIPE]. *)
val connect : ?host:string -> int -> Unix.file_descr

(** Write all of [s]. *)
val send : Unix.file_descr -> string -> unit

(** Read [n] bytes, or fewer if the peer closes or the timeout expires
    first. *)
val recv_exact : Unix.file_descr -> int -> string

(** Read until the bytes end with [suffix], the peer closes or the
    timeout expires. *)
val recv_until : Unix.file_descr -> string -> string

(** Read until the peer closes or a read fails (the timeout included);
    returns everything that arrived. *)
val recv_all : Unix.file_descr -> string

(** Read exactly one reply unit, framed by {!Kvstore.Protocol.Client}:
    a [VALUE] block is skipped by its length, so data holding
    ["END\r\n"] does not end the unit, and bytes after the unit stay in
    the socket.  Returns a partial unit if the peer closes or the
    timeout expires first. *)
val recv_unit : Unix.file_descr -> string

(** Idle-census liveness check: send [version] on every connection,
    then read one reply from each; returns how many answered
    [VERSION]. *)
val version_sweep : Unix.file_descr list -> int
