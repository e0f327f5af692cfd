(** Typed payload wrapper — the OCaml analog of the paper's
    GENERATE_FIELD macro.

    A structure describes its payload content once (encode/decode) and
    gets type-safe [pnew]/[get]/[set]/[pdelete] whose handles carry the
    Montage epoch discipline.  [set] may return a {e different} handle
    (a copying update across an epoch boundary); the caller must
    install the returned handle everywhere the old one appeared.

    With a warm-set budget ([Config.mirror_max_bytes > 0]) each
    instantiation also memoizes the decoded value on warm handles: a
    warm [get] returns the cached value with no NVM load, no decode, and
    no allocation.  Use the shared pre-applied instances
    {!Str}/{!Kv}/{!Seq} where possible — each application of {!Make}
    owns a distinct memo constructor, so two modules reading the same
    payloads through separate applications miss each other's memos. *)

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
    bytes at [b.[off, off + len)] of the buffer it is handed, so a value
    assembled from pieces (a header and bytes still in an input buffer)
    is stored with one copy of each piece — straight into the payload
    when a structure passes it to {!Epoch_sys.pset_fill}. *)
type fill = Epoch_sys.fill = { len : int; write : bytes -> int -> unit }

(** The fill that copies a string. *)
val fill_string : string -> fill

(** A value read in place: {!View.length} bytes that {!View.blit}
    copies out.  A view over a payload ({!View.of_payload}) reads the
    region each time and is valid only inside the consumer it is handed
    to, under the lock that excludes writers of that payload; views over
    heap bytes stay valid as long as those bytes are not mutated. *)
module View : sig
  type t

  val length : t -> int

  (** [blit v ~pos dst dst_off len] copies bytes [\[pos, pos+len)] of
      the value into [dst] at [dst_off].
      @raise Invalid_argument when the range is not within the value. *)
  val blit : t -> pos:int -> Bytes.t -> int -> int -> unit

  (** The bytes [\[pos, pos+len)] as a view of their own. *)
  val sub : t -> pos:int -> len:int -> t

  val to_string : t -> string

  (** The bytes [b.[off, off + len)]; nothing is copied. *)
  val of_bytes : Bytes.t -> off:int -> len:int -> t

  val of_string : string -> t
  val empty : t

  (** Content bytes from [pos] to the end of a payload, read through
      {!Epoch_sys.preader} (which runs its checks and pays a cold
      handle's load here, once). *)
  val of_payload : Epoch_sys.t -> tid:int -> Epoch_sys.pblk -> pos:int -> t
end

(** [(key, value)] pairs — the shape of sets and mappings. *)
module Kv_content : sig
  include CONTENT with type t = string * string

  (** [fill key f]: the encoding of [(key, v)] as a fill, where [f]
      writes [v]; storing it writes the key and the value straight into
      the payload. *)
  val fill : string -> fill -> fill

  (** [encode_with key f]: [fill key f] materialized in a fresh buffer;
      [encode (k, v)] is [encode_with k (fill_string v)]. *)
  val encode_with : string -> fill -> bytes

  (** Decode only the value, skipping key materialization — for read
      paths whose DRAM node already caches the key. *)
  val decode_value : bytes -> string
end

(** Sequence-numbered items — the shape of queues and stacks, whose
    abstract state is items {e and} their order (paper §3). *)
module Seq_content : CONTENT with type t = int * string

(** {1 Index-field reads for recovery}

    A recovery rebuild needs only each payload's index field.  These
    read it through {!Epoch_sys.pread_unsafe}: charged for the lines
    they touch, and the handle stays cold (no memo) until its first
    real [get]. *)

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
      full pair in place (reading only the key out of the warm
      payload). *)
  val get_value : Epoch_sys.t -> tid:int -> handle -> string

  (** The value in place: a view of the payload's bytes after its
      [klen]-byte key, read straight from the region (see
      {!View.of_payload}).  Nothing is copied or memoized. *)
  val value_view : Epoch_sys.t -> tid:int -> handle -> klen:int -> View.t

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
