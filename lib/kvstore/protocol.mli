(** memcached text-protocol codec: one request framer shared by the
    server and the cluster router, an executor over {!Store}, and the
    client half (request encoders, reply-unit decoder).

    Commands: get/gets, set/add/replace/append/prepend/cas, delete,
    incr/decr, touch, flush_all, stats, version, verbosity, quit.
    Verbs are case-insensitive; lines end at [\r\n] (a bare [\n] is
    line content); data blocks are binary-safe.

    Framing is amortized O(1) per byte: the framer keeps a scan offset
    so input split across many calls is never re-scanned, and both
    command lines and data blocks are size-capped — oversized input is
    answered with a [CLIENT_ERROR] and drained without being
    buffered. *)

(** {1 Frame-only mode} *)

type storage_op = Store.mode = Set | Add | Replace | Append | Prepend | Cas of int

(** A parsed storage command line; its data block follows. *)
type pending = {
  op : storage_op;
  key : string;
  flags : int;
  exptime : int;
  bytes : int;
  noreply : bool;
}

(** A complete request.  [Answer r] is one the framer settles itself
    — a malformed, oversized or unknown request — with the exact reply
    a server sends ([None]: none, for an oversized [noreply] block). *)
type command =
  | Get of { cas : bool; keys : string list }
  | Store of pending  (** the block is the last [bytes + 2] bytes of the frame *)
  | Delete of { key : string; noreply : bool }
  | Arith of { key : string; delta : int }  (** incr; decr has a negated delta *)
  | Touch of { key : string; exptime : int }
  | Flush_all of { delay : int option; noreply : bool }
  | Stats
  | Version
  | Verbosity of { noreply : bool }
  | Quit
  | Answer of string option  (** reply without its final [\r\n] *)

(** One request: its lowercased verb ([""] for an empty or oversized
    line) and its raw bytes, [buf.[off, off + len)] of the buffer the
    framer ran over.  Every frame of a known verb carries the same
    string; an unknown verb is a lowercased copy of the word sent. *)
type frame = { verb : string; cmd : command; off : int; len : int }

(** Framing state of one connection. *)
type framer

(** [max_line] caps the command line (default 8192 bytes) and
    [max_value] the data block (default 1 MiB). *)
val framer : ?max_line:int -> ?max_value:int -> unit -> framer

(** [frames fr buf ~pos ~len f] calls [f] on every complete request in
    [buf.[pos, pos + len)], in order, and returns how many bytes from
    [pos] are consumed.  The rest (an incomplete request) must be
    presented again, followed by more input, on the next call; the
    caller may move it in between.  Stops after [quit]. *)
val frames : framer -> Bytes.t -> pos:int -> len:int -> (frame -> unit) -> int

(** [true] once the framer saw [quit]; it consumes nothing after. *)
val closed : framer -> bool

(** {1 Execution} *)

type conn

(** One connection against a store.  [tid] is the worker thread this
    connection's operations run as.  [max_line]/[max_value] as for
    {!framer}.  [extra_stats] contributes additional
    [STAT key value] lines to the [stats] reply (the transport's
    per-worker metrics); [on_command] observes every dispatched verb,
    lowercased (the transport's ops-by-verb counters). *)
val create :
  ?max_line:int ->
  ?max_value:int ->
  ?extra_stats:(unit -> (string * string) list) ->
  ?on_command:(string -> unit) ->
  Store.t ->
  tid:int ->
  conn

(** [true] after the client sent [quit]; further input is ignored. *)
val is_closed : conn -> bool

(** Feed raw bytes; returns the replies generated, in order, each
    terminated with [\r\n].  Incomplete commands and data blocks stay
    buffered for the next feed.  Each reply is cut as one string from
    the connection's reply buffer. *)
val feed : conn -> string -> string list

(** [serve c buf ~pos ~len] is {!feed} over a caller-owned buffer,
    with {!frames}' consumption contract: every complete request in
    [buf.[pos, pos + len)] runs, and the result is the bytes consumed.
    Each reply, [\r\n] included, is appended to the connection's
    reply buffer; a get writes its values there straight from the
    store's items, with no intermediate string.  Storage commands read
    their data blocks from [buf] in place. *)
val serve : conn -> Bytes.t -> pos:int -> len:int -> int

(** [flush_replies c sink] hands the reply buffer's bytes to [sink]
    as [(bytes, 0, len)] (not called when it is empty), empties the
    buffer and returns how many replies it held.  [sink] must copy
    what it keeps: the buffer is reused. *)
val flush_replies : conn -> (Bytes.t -> int -> int -> unit) -> int

(** Client half of the protocol: request encoders and an incremental
    reply-unit decoder, shared by the load generator and the cluster
    router's upstream shard connections.

    A reply {e unit} is the complete answer to one pipelined command:
    either a single [\r\n]-terminated line ([STORED], [DELETED], [OK], a
    decimal, [VERSION ...], any error line) or a get/stats reply — any
    number of [VALUE] blocks (binary-safe) or [STAT] lines terminated
    by [END].  Counting completed units against commands issued keeps
    a pipelined client in lockstep without per-verb reply knowledge. *)
module Client : sig
  type unit_class =
    | U_ok  (** normal reply, including misses ([END] with no hits) *)
    | U_error  (** [ERROR] / [CLIENT_ERROR] — the request was rejected *)
    | U_server_error
        (** [SERVER_ERROR] — the server (or, through the router, the
            owning shard) could not serve it *)

  type unit_result = {
    cls : unit_class;
    hits : int;  (** number of [VALUE] blocks in the unit *)
  }

  type decoder

  val decoder : unit -> decoder
  val reset : decoder -> unit

  (** [next_unit d buf ~pos ~len] resumes scanning the reply unit that
      begins at [buf.[pos]], with [len] bytes available from [pos].
      Returns [Some (end_pos, r)] when the unit completes (it occupies
      [pos, end_pos)), or [None] if more bytes are needed — decoder
      state persists, so append bytes and call again with the same
      [pos].  The unit's bytes must remain in place until it completes
      (consumed units may be compacted away); bytes already scanned are
      never re-scanned. *)
  val next_unit : decoder -> Bytes.t -> pos:int -> len:int -> (int * unit_result) option

  val is_err : unit_result -> bool

  (** Encoders append one complete request (CRLF-terminated, data block
      included) to the buffer. *)

  val encode_get : Buffer.t -> string list -> unit
  val encode_gets : Buffer.t -> string list -> unit

  val encode_set :
    Buffer.t -> ?flags:int -> ?exptime:int -> ?noreply:bool -> key:string -> string -> unit

  val encode_delete : Buffer.t -> ?noreply:bool -> string -> unit
  val encode_incr : Buffer.t -> string -> int -> unit
  val encode_version : Buffer.t -> unit
  val encode_stats : Buffer.t -> unit
  val encode_flush_all : Buffer.t -> ?delay:int -> unit -> unit
end
