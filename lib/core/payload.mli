(** Typed payload wrapper — the OCaml analog of the paper's
    GENERATE_FIELD macro.

    A structure describes its payload content once (encode to a
    {!fill}, decode from a {!View.t}) and gets type-safe
    [pnew]/[get]/[set]/[pdelete] whose handles carry the Montage epoch
    discipline.  [set] may return a {e different} handle (a copying
    update across an epoch boundary); the caller must install the
    returned handle everywhere the old one appeared.

    A payload lives only in the region: [pnew]/[set] write the fill
    straight into it, and [get] decodes straight from it inside the
    payload's content seqlock ({!Epoch_sys.pdecode}), so a lock-free
    reader gets one whole version.  Nothing decoded is kept on the
    handle; each [get] returns fresh fields, each copied once. *)

(** A value written in place: [write b off] lays out exactly [len]
    bytes at [b.[off, off + len)] of the buffer it is handed, so a value
    assembled from pieces (a header and bytes still in an input buffer)
    is stored with one copy of each piece — straight into the payload
    when a structure passes it to {!Epoch_sys.pset_fill}. *)
type fill = Epoch_sys.fill = { len : int; write : bytes -> int -> unit }

(** The fill that copies a string. *)
val fill_string : string -> fill

(** A fill laid out in a fresh buffer. *)
val bytes_of_fill : fill -> bytes

(** A value read in place: {!View.length} bytes that {!View.blit}
    copies out.  A view over a payload ({!View.of_payload}, or the one
    a decoder is handed) reads the region each time and is valid only
    inside the consumer it is handed to; views over heap bytes stay
    valid as long as those bytes are not mutated.  Every read is
    checked against the view's length before anything is allocated.
    @raise Invalid_argument from any read outside the view. *)
module View : sig
  type t

  val length : t -> int

  (** [blit v ~pos dst dst_off len] copies bytes [\[pos, pos+len)] of
      the value into [dst] at [dst_off]. *)
  val blit : t -> pos:int -> Bytes.t -> int -> int -> unit

  (** The bytes [\[pos, pos+len)] as a view of their own. *)
  val sub : t -> pos:int -> len:int -> t

  (** The bytes [\[pos, pos+len)], copied once into a fresh string. *)
  val sub_string : t -> pos:int -> len:int -> string

  val to_string : t -> string
  val get_char : t -> int -> char

  (** Little-endian fixed-width integers at a byte position. *)
  val get_int32_le : t -> int -> int

  val get_int64_le : t -> int -> int

  (** The bytes [b.[off, off + len)]; nothing is copied. *)
  val of_bytes : Bytes.t -> off:int -> len:int -> t

  val of_string : string -> t
  val empty : t

  (** Content bytes from [pos] to the end of a payload, read through
      {!Epoch_sys.preader} (which runs its checks and pays a cold
      handle's load here, once).  Two reads see one version only under
      a lock that excludes in-place writers of the payload. *)
  val of_payload : Epoch_sys.t -> tid:int -> Epoch_sys.pblk -> pos:int -> t
end

(** [read esys ~tid h decode]: [decode] over a view of [h]'s whole
    content, run by {!Epoch_sys.pdecode} (checked, charged once when
    cold, rerun if an in-place store tore it).  [decode] may run more
    than once and must not keep the view. *)
val read : Epoch_sys.t -> tid:int -> Epoch_sys.pblk -> (View.t -> 'a) -> 'a

(** {!read} without the old-sees-new check. *)
val read_unsafe : Epoch_sys.t -> Epoch_sys.pblk -> (View.t -> 'a) -> 'a

module type CONTENT = sig
  type t

  (** The content as a fill, written straight into the payload. *)
  val encode : t -> fill

  (** The value of one whole version of the content, each field copied
      out of the view once.  May raise on bytes no [encode] wrote. *)
  val decode : View.t -> t
end

module Make (C : CONTENT) : sig
  type handle = Epoch_sys.pblk

  val pnew : Epoch_sys.t -> tid:int -> C.t -> handle
  val get : Epoch_sys.t -> tid:int -> handle -> C.t
  val get_unsafe : Epoch_sys.t -> handle -> C.t
  val set : Epoch_sys.t -> tid:int -> handle -> C.t -> handle
  val pdelete : Epoch_sys.t -> tid:int -> handle -> unit
end

(** Raw string contents. *)
module String_content : CONTENT with type t = string

(** [(key, value)] pairs — the shape of sets and mappings. *)
module Kv_content : sig
  include CONTENT with type t = string * string

  (** [fill key f]: the encoding of [(key, v)] as a fill, where [f]
      writes [v]; storing it writes the key and the value straight into
      the payload.  [encode (k, v)] is [fill k (fill_string v)]. *)
  val fill : string -> fill -> fill

  (** Decode only the value, skipping key materialization — for read
      paths whose DRAM node already caches the key. *)
  val decode_value : View.t -> string
end

(** Sequence-numbered items — the shape of queues and stacks, whose
    abstract state is items {e and} their order (paper §3). *)
module Seq_content : CONTENT with type t = int * string

(** {1 Index-field reads for recovery}

    A recovery rebuild needs only each payload's index field.  These
    read it through {!Epoch_sys.pread_unsafe}: charged for the lines
    they touch, and the handle stays cold until its first real [get]. *)

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

  val pnew : Epoch_sys.t -> tid:int -> string -> handle
  val get : Epoch_sys.t -> tid:int -> handle -> string
  val get_unsafe : Epoch_sys.t -> handle -> string
  val set : Epoch_sys.t -> tid:int -> handle -> string -> handle
  val pdelete : Epoch_sys.t -> tid:int -> handle -> unit
end

module Kv : sig
  type handle = Epoch_sys.pblk

  val pnew : Epoch_sys.t -> tid:int -> string * string -> handle
  val get : Epoch_sys.t -> tid:int -> handle -> string * string
  val get_unsafe : Epoch_sys.t -> handle -> string * string
  val set : Epoch_sys.t -> tid:int -> handle -> string * string -> handle
  val pdelete : Epoch_sys.t -> tid:int -> handle -> unit

  (** The value of a [(key, value)] payload without materializing the
      key ({!read} of {!Kv_content.decode_value}). *)
  val get_value : Epoch_sys.t -> tid:int -> handle -> string

  (** The value in place: a view of the payload's bytes after its
      [klen]-byte key, read straight from the region (see
      {!View.of_payload}).  Nothing is copied. *)
  val value_view : Epoch_sys.t -> tid:int -> handle -> klen:int -> View.t

  (** The key alone, read with {!key_prefix_unsafe}: one NVM line when
      the key fits the content's first line (YCSB's 23-byte keys do).
      For recovery; the handle stays cold. *)
  val key_unsafe : Epoch_sys.t -> handle -> string
end

module Seq : sig
  type handle = Epoch_sys.pblk

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
