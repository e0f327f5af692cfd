(** Typed payload wrapper — the OCaml analog of the paper's
    GENERATE_FIELD macro.

    A structure describes its payload content once (encode/decode) and
    gets type-safe [pnew]/[get]/[set]/[pdelete] whose handles carry the
    Montage epoch discipline.  [set] may return a {e different} handle
    (a copying update across an epoch boundary); the caller must
    install the returned handle everywhere the old one appeared.

    With mirrors on ([Config.mirror_max_bytes > 0]) each instantiation
    also memoizes the decoded value on the handle: a warm [get] returns
    the cached value with no NVM load, no decode, and no allocation.  Use the shared
    pre-applied instances {!Str}/{!Kv}/{!Seq} where possible — each
    application of {!Make} owns a distinct memo constructor, so two
    modules reading the same payloads through separate applications
    miss each other's memos. *)

module type CONTENT = sig
  type t

  val encode : t -> bytes
  val decode : bytes -> t
end

module Make (C : CONTENT) : sig
  type handle = Epoch_sys.pblk

  (** The decoded-value memo this instantiation stores on handles (via
      {!Epoch_sys.memo_store}); exposed for tests. *)
  exception Memo of C.t

  val pnew : Epoch_sys.t -> tid:int -> C.t -> handle
  val get : Epoch_sys.t -> tid:int -> handle -> C.t
  val get_unsafe : Epoch_sys.t -> handle -> C.t
  val set : Epoch_sys.t -> tid:int -> handle -> C.t -> handle
  val pdelete : Epoch_sys.t -> tid:int -> handle -> unit
end

(** Raw string contents. *)
module String_content : CONTENT with type t = string

(** A value written in place: [write b off] lays out exactly [len]
    bytes at [b.[off, off + len)] of the buffer that becomes the
    payload, so a value assembled from pieces (a header and bytes still
    in an input buffer) is encoded with one copy of each piece. *)
type fill = { len : int; write : bytes -> int -> unit }

(** The fill that copies a string. *)
val fill_string : string -> fill

(** [(key, value)] pairs — the shape of sets and mappings. *)
module Kv_content : sig
  include CONTENT with type t = string * string

  (** [encode_with key f]: the encoding of [(key, v)] where [f] writes
      [v] straight into the buffer; [encode (k, v)] is
      [encode_with k (fill_string v)]. *)
  val encode_with : string -> fill -> bytes

  (** Where the value starts in an encoded pair; it runs to the end. *)
  val value_off : bytes -> int

  (** Decode only the value, skipping key materialization — for read
      paths whose DRAM node already caches the key. *)
  val decode_value : bytes -> string

  (** Decode only the key — the complement used by {!Kv.get} to upgrade
      a value-only memo to the full pair. *)
  val decode_key : bytes -> string
end

(** Sequence-numbered items — the shape of queues and stacks, whose
    abstract state is items {e and} their order (paper §3). *)
module Seq_content : CONTENT with type t = int * string

(** {1 Index-field reads for recovery}

    A recovery rebuild needs only each payload's index field.  These
    read it through {!Epoch_sys.pread_unsafe}: charged for the lines
    they touch, and the handle stays cold (no mirror, no memo) until
    its first real [get]. *)

(** [(prefix, key)] for a payload whose content holds a 4-byte
    little-endian key length at [klen_at] and the key at [key_at].
    Reads from the content start to the end of its first NVM line
    (at least [key_at] bytes), and reads again only the part of the key
    that runs past it.  [prefix] holds at least the first [key_at]
    content bytes, for the fixed fields in front of the key.
    @raise Errors.Corrupt when the header or the key length does not
    fit the payload. *)
val key_prefix_unsafe :
  Epoch_sys.t -> Epoch_sys.pblk -> klen_at:int -> key_at:int -> bytes * string

(** {1 Shared pre-applied instances} *)

module Str : sig
  type handle = Epoch_sys.pblk

  exception Memo of string

  val pnew : Epoch_sys.t -> tid:int -> string -> handle
  val get : Epoch_sys.t -> tid:int -> handle -> string
  val get_unsafe : Epoch_sys.t -> handle -> string
  val set : Epoch_sys.t -> tid:int -> handle -> string -> handle
  val pdelete : Epoch_sys.t -> tid:int -> handle -> unit
end

module Kv : sig
  type handle = Epoch_sys.pblk

  exception Memo of (string * string)
  exception Memo_value of string

  val pnew : Epoch_sys.t -> tid:int -> string * string -> handle
  val get : Epoch_sys.t -> tid:int -> handle -> string * string
  val get_unsafe : Epoch_sys.t -> handle -> string * string
  val set : Epoch_sys.t -> tid:int -> handle -> string * string -> handle
  val pdelete : Epoch_sys.t -> tid:int -> handle -> unit

  (** The value of a [(key, value)] payload without materializing the
      key (value-only memo on warm handles).  The two memo shapes share
      the handle's single slot without thrashing: [get_value] is
      satisfied by either, and {!get} upgrades a value-only memo to the
      full pair in place (key-only re-decode of the warm bytes). *)
  val get_value : Epoch_sys.t -> tid:int -> handle -> string

  (** The value in place: [(b, off)] with the value at
      [b.[off, Bytes.length b)], where [b] is what {!Epoch_sys.pget}
      returns — the resident mirror itself on a warm handle, else the
      one charged cold read.  Nothing is copied or memoized.  The bytes
      stay valid for as long as the caller holds them: mirror bytes are
      never mutated (an in-place [pset] installs a fresh buffer), so
      the view may outlive the lock it was taken under.  Callers must
      not write to [b]. *)
  val view : Epoch_sys.t -> tid:int -> handle -> bytes * int

  (** The key alone, read with {!key_prefix_unsafe}: one NVM line when
      the key fits the content's first line (YCSB's 23-byte keys do).
      For recovery; the handle stays cold. *)
  val key_unsafe : Epoch_sys.t -> handle -> string
end

module Seq : sig
  type handle = Epoch_sys.pblk

  exception Memo of (int * string)

  val pnew : Epoch_sys.t -> tid:int -> int * string -> handle
  val get : Epoch_sys.t -> tid:int -> handle -> int * string
  val get_unsafe : Epoch_sys.t -> handle -> int * string
  val set : Epoch_sys.t -> tid:int -> handle -> int * string -> handle
  val pdelete : Epoch_sys.t -> tid:int -> handle -> unit

  (** The 8-byte sequence number alone, for recovery; the handle stays
      cold.
      @raise Errors.Corrupt when the payload is shorter than a seq. *)
  val seq_unsafe : Epoch_sys.t -> handle -> int
end
