(* Typed payload wrapper — the OCaml analog of the paper's
   GENERATE_FIELD macro.  A structure describes its payload content
   once (encode to a fill, decode from a view), and gets type-safe
   [pnew]/[get]/[set]/[pdelete] whose handles carry the Montage epoch
   discipline:

   - [get] performs the old-sees-new check; [get_unsafe] skips it;
   - [set] may return a *different* handle (a copying update across an
     epoch boundary); the caller must install the returned handle
     everywhere the old one appeared (well-formedness constraint 4).

   A payload lives only in the region, as in the paper: [pnew]/[set]
   write the fill straight into the payload, and [get] decodes straight
   from the region inside the content seqlock ([Epoch_sys.pdecode]),
   copying each returned field once.  Nothing decoded stays on the
   handle. *)

(* A value written in place: [write b off] lays out its [len] bytes at
   [b.[off, off + len)] of the buffer it is handed — the payload itself
   when a structure stores it with [Epoch_sys.pset_fill] — so a caller
   whose value is scattered (a header plus bytes still in an input
   buffer) stores it without building it first. *)
type fill = Epoch_sys.fill = { len : int; write : bytes -> int -> unit }

let fill_string v =
  let len = String.length v in
  { len; write = (fun b off -> Bytes.blit_string v 0 b off len) }

let bytes_of_fill f =
  let b = Bytes.create f.len in
  f.write b 0;
  b

(* A value read in place: [len] bytes at [base ..] of a source that
   [blit] copies from — a heap buffer, or a payload's content in the
   region (valid only inside the consumer it was handed to). *)
module View = struct
  type t = { len : int; base : int; blit : int -> Bytes.t -> int -> int -> unit }

  let length v = v.len

  let check what v ~pos ~len =
    if pos < 0 || len < 0 || pos + len > v.len then
      invalid_arg (Printf.sprintf "Payload.View.%s: [%d, %d) outside %d bytes" what pos (pos + len) v.len)

  let blit v ~pos dst dst_off len =
    check "blit" v ~pos ~len;
    v.blit (v.base + pos) dst dst_off len

  let sub v ~pos ~len =
    check "sub" v ~pos ~len;
    { v with base = v.base + pos; len }

  (* Checked before the buffer is made: a length read from torn bytes
     must not allocate. *)
  let sub_string v ~pos ~len =
    check "sub_string" v ~pos ~len;
    let b = Bytes.create len in
    v.blit (v.base + pos) b 0 len;
    Bytes.unsafe_to_string b

  let to_string v = sub_string v ~pos:0 ~len:v.len

  (* Fixed-width fields, read through a scratch buffer of their width. *)
  let field v ~pos ~len =
    let b = Bytes.create len in
    blit v ~pos b 0 len;
    b

  let get_char v pos = Bytes.get (field v ~pos ~len:1) 0
  let get_int32_le v pos = Int32.to_int (Bytes.get_int32_le (field v ~pos ~len:4) 0)
  let get_int64_le v pos = Int64.to_int (Bytes.get_int64_le (field v ~pos ~len:8) 0)
  let of_bytes b ~off ~len = { len; base = off; blit = Bytes.blit b }
  let of_string s = of_bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
  let empty = of_string ""

  let of_payload esys ~tid (p : Epoch_sys.pblk) ~pos =
    { len = p.size - pos; base = pos; blit = Epoch_sys.preader esys ~tid p }

  (* A decoder over a view, as [Epoch_sys.pdecode] runs it. *)
  let decoding f len blit = f { len; base = 0; blit }
end

let read esys ~tid h f = Epoch_sys.pdecode esys ~tid h (View.decoding f)
let read_unsafe esys h f = Epoch_sys.pdecode_unsafe esys h (View.decoding f)

module type CONTENT = sig
  type t

  val encode : t -> fill
  val decode : View.t -> t
end

module Make (C : CONTENT) = struct
  type handle = Epoch_sys.pblk

  let pnew esys ~tid v = Epoch_sys.pnew_fill esys ~tid (C.encode v)
  let get esys ~tid h = read esys ~tid h C.decode
  let get_unsafe esys h = read_unsafe esys h C.decode
  let set esys ~tid h v = Epoch_sys.pset_fill esys ~tid h (C.encode v)
  let pdelete esys ~tid h = Epoch_sys.pdelete esys ~tid h
end

(* Ready-made codecs for common content shapes. *)

module String_content = struct
  type t = string

  let encode = fill_string
  let decode = View.to_string
end

(* (key, value) pairs, the shape used by sets and mappings:
   [4-byte key length | key | value]. *)
module Kv_content = struct
  type t = string * string

  let fill k f =
    let klen = String.length k in
    {
      len = 4 + klen + f.len;
      write =
        (fun b at ->
          Bytes.set_int32_le b at (Int32.of_int klen);
          Bytes.blit_string k 0 b (at + 4) klen;
          f.write b (at + 4 + klen));
    }

  let encode (k, v) = fill k (fill_string v)

  let decode v =
    let klen = View.get_int32_le v 0 in
    ( View.sub_string v ~pos:4 ~len:klen,
      View.sub_string v ~pos:(4 + klen) ~len:(View.length v - 4 - klen) )

  (* Value-only decode: mapping read paths already cache the key in
     their DRAM nodes, so materializing it again is pure waste. *)
  let decode_value v =
    let off = 4 + View.get_int32_le v 0 in
    View.sub_string v ~pos:off ~len:(View.length v - off)
end

(* Sequence-numbered items, the shape used by queues: a queue's
   abstract state is its items and their order, so each payload is
   labeled with a consecutive integer (paper §3). *)
module Seq_content = struct
  type t = int * string

  let encode (seq, v) =
    let n = String.length v in
    {
      len = 8 + n;
      write =
        (fun b at ->
          Bytes.set_int64_le b at (Int64.of_int seq);
          Bytes.blit_string v 0 b (at + 8) n);
    }

  let decode v = (View.get_int64_le v 0, View.sub_string v ~pos:8 ~len:(View.length v - 8))
end

(* ---- index-field reads for recovery ---- *)

(* A rebuild needs only each payload's index field (a key, a sequence
   number), and every byte it reads is a charged NVM load.  These read
   that field with [Epoch_sys.pread_unsafe] and nothing more, leaving
   the handle cold until the first real [get]. *)

(* Content bytes that share the payload's first NVM line. *)
let first_line_len (p : Epoch_sys.pblk) =
  let line = Nvm.Region.line_size in
  min p.size (line - (Payload_hdr.content_off p.off land (line - 1)))

let key_prefix_unsafe esys (p : Epoch_sys.pblk) ~klen_at ~key_at =
  if p.size < key_at then
    Errors.corrupt "payload uid %d: %d content bytes, shorter than its %d-byte header" p.uid
      p.size key_at;
  let n = max key_at (first_line_len p) in
  let b = Epoch_sys.pread_unsafe esys p ~pos:0 ~len:n in
  let klen = Int32.to_int (Bytes.get_int32_le b klen_at) in
  if klen < 0 || klen > p.size - key_at then
    Errors.corrupt "payload uid %d: key length %d does not fit its %d content bytes" p.uid klen
      p.size;
  let key =
    if key_at + klen <= n then Bytes.sub_string b key_at klen
    else
      (* the key runs past the first line: read only the rest of it *)
      Bytes.sub_string b key_at (n - key_at)
      ^ Bytes.to_string (Epoch_sys.pread_unsafe esys p ~pos:n ~len:(key_at + klen - n))
  in
  (b, key)

(* Shared pre-applied instances. *)

module Str = Make (String_content)

module Kv = struct
  include Make (Kv_content)

  let get_value esys ~tid h = read esys ~tid h Kv_content.decode_value
  let value_view esys ~tid (h : handle) ~klen = View.of_payload esys ~tid h ~pos:(4 + klen)
  let key_unsafe esys h = snd (key_prefix_unsafe esys h ~klen_at:0 ~key_at:4)
end

module Seq = struct
  include Make (Seq_content)

  let seq_unsafe esys (h : handle) =
    if h.size < 8 then
      Errors.corrupt "payload uid %d: %d content bytes, shorter than a seq" h.uid h.size;
    Int64.to_int (Bytes.get_int64_le (Epoch_sys.pread_unsafe esys h ~pos:0 ~len:8) 0)
end
