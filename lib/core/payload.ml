(* Typed payload wrapper — the OCaml analog of the paper's
   GENERATE_FIELD macro.  A structure describes its payload content
   once (encode/decode), and gets type-safe [pnew]/[get]/[set]/
   [pdelete] whose handles carry the Montage epoch discipline:

   - [get] performs the old-sees-new check; [get_unsafe] skips it;
   - [set] may return a *different* handle (a copying update across an
     epoch boundary); the caller must install the returned handle
     everywhere the old one appeared (well-formedness constraint 4).

   On top of [Epoch_sys]'s warm handles, each instantiation memoizes
   the *decoded* value on the handle (via the [Memo] exception, typed
   per functor application): a warm [get] returns the cached value
   without touching NVM, decoding, or allocating.  The memo is written
   by [pnew]/[set]/[get] for the content generation it describes and
   trusted only while the handle stays warm — [Epoch_sys] clears it on
   every in-place store and eviction.

   Structures should use the pre-applied instances below ([Str], [Kv],
   [Seq]) rather than re-applying [Make]: a handle memoized through one
   instantiation reads as a miss through another (each application gets
   its own [Memo] constructor), which wastes the cache when two modules
   share payloads. *)

module type CONTENT = sig
  type t

  val encode : t -> bytes
  val decode : bytes -> t
end

module Make (C : CONTENT) = struct
  type handle = Epoch_sys.pblk

  exception Memo of C.t

  (* Every [memo_store] names the generation the value describes: a
     writer's is the one its store left, a reader's the one it took
     before it read, so a decode that raced a concurrent in-place
     [pset] is never published against newer bytes. *)

  let pnew esys ~tid v =
    let h = Epoch_sys.pnew esys ~tid (C.encode v) in
    Epoch_sys.memo_store esys h ~gen:(Epoch_sys.generation h) (Memo v);
    h

  let get esys ~tid h =
    match Epoch_sys.memo_get esys ~tid h with
    | Memo v -> v
    | _ ->
        let gen = Epoch_sys.generation h in
        let v = C.decode (Epoch_sys.pget esys ~tid h) in
        Epoch_sys.memo_store esys h ~gen (Memo v);
        v

  let get_unsafe esys h =
    match Epoch_sys.memo_get_unsafe esys h with
    | Memo v -> v
    | _ ->
        let gen = Epoch_sys.generation h in
        let v = C.decode (Epoch_sys.pget_unsafe esys h) in
        Epoch_sys.memo_store esys h ~gen (Memo v);
        v

  let set esys ~tid h v =
    let h' = Epoch_sys.pset esys ~tid h (C.encode v) in
    Epoch_sys.memo_store esys h' ~gen:(Epoch_sys.generation h') (Memo v);
    h'

  let pdelete esys ~tid h = Epoch_sys.pdelete esys ~tid h
end

(* Ready-made codecs for common content shapes. *)

module String_content = struct
  type t = string

  let encode = Bytes.of_string
  let decode = Bytes.to_string
end

(* A value written in place: [write b off] lays out its [len] bytes at
   [b.[off, off + len)] of the buffer it is handed — the payload itself
   when a structure stores it with [Epoch_sys.pset_fill] — so a caller
   whose value is scattered (a header plus bytes still in an input
   buffer) stores it without building it first. *)
type fill = Epoch_sys.fill = { len : int; write : bytes -> int -> unit }

let fill_string v =
  let len = String.length v in
  { len; write = (fun b off -> Bytes.blit_string v 0 b off len) }

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

  let to_string v =
    let b = Bytes.create v.len in
    blit v ~pos:0 b 0 v.len;
    Bytes.unsafe_to_string b

  let of_bytes b ~off ~len = { len; base = off; blit = Bytes.blit b }
  let of_string s = of_bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
  let empty = of_string ""

  let of_payload esys ~tid (p : Epoch_sys.pblk) ~pos =
    { len = p.size - pos; base = pos; blit = Epoch_sys.preader esys ~tid p }
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

  let encode_with k f =
    let f = fill k f in
    let b = Bytes.create f.len in
    f.write b 0;
    b

  let encode (k, v) = encode_with k (fill_string v)

  let decode b =
    let klen = Int32.to_int (Bytes.get_int32_le b 0) in
    ( Bytes.sub_string b 4 klen,
      Bytes.sub_string b (4 + klen) (Bytes.length b - 4 - klen) )

  (* Value-only decode: mapping read paths already cache the key in
     their DRAM nodes, so materializing it again is pure waste. *)
  let decode_value b =
    let off = 4 + Int32.to_int (Bytes.get_int32_le b 0) in
    Bytes.sub_string b off (Bytes.length b - off)
end

(* Sequence-numbered items, the shape used by queues: a queue's
   abstract state is its items and their order, so each payload is
   labeled with a consecutive integer (paper §3). *)
module Seq_content = struct
  type t = int * string

  let encode (seq, v) =
    let b = Bytes.create (8 + String.length v) in
    Bytes.set_int64_le b 0 (Int64.of_int seq);
    Bytes.blit_string v 0 b 8 (String.length v);
    b

  let decode b =
    ( Int64.to_int (Bytes.get_int64_le b 0),
      Bytes.sub_string b 8 (Bytes.length b - 8) )
end

(* ---- index-field reads for recovery ---- *)

(* A rebuild needs only each payload's index field (a key, a sequence
   number), and every byte it reads is a charged NVM load.  These read
   that field with [Epoch_sys.pread_unsafe] and nothing more, leaving
   the handle cold: no warmth and no memo until the first real [get]. *)

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

(* Shared pre-applied instances: one [Memo] constructor per codec for
   the whole program, so every structure reading a given payload shape
   hits the same memo. *)

module Str = Make (String_content)

module Kv = struct
  include Make (Kv_content)

  (* A value-only memo for lookup paths that never need the key (the
     key is already in the structure's DRAM node).  Coexists with the
     full-pair [Memo] in the single slot without ping-ponging: [get]
     over a [Memo_value] {e upgrades} the slot to the pair (reading just
     the key out of the warm payload and reusing the memoized value
     string), and [get_value] is satisfied by either shape — so mixed
     read paths converge on the pair memo instead of overwriting each
     other. *)
  exception Memo_value of string

  let decode_full esys ~tid h =
    let gen = Epoch_sys.generation h in
    let kv = Kv_content.decode (Epoch_sys.pget esys ~tid h) in
    Epoch_sys.memo_store esys h ~gen (Memo kv);
    kv

  (* Upgrade path: the key is read in place under the generation taken
     before the memo was probed, so the reused value string is paired
     with the key of the very version it was decoded from — a [pset]
     landing in between moves the generation and the pair is decoded
     afresh. *)
  let get esys ~tid h =
    let gen = Epoch_sys.generation h in
    match Epoch_sys.memo_get esys ~tid h with
    | Memo kv -> kv
    | Memo_value v when gen land 1 = 0 ->
        let r = Epoch_sys.preader esys ~tid h in
        let klen = Bytes.create 4 in
        r 0 klen 0 4;
        let key = Bytes.create (Int32.to_int (Bytes.get_int32_le klen 0)) in
        r 4 key 0 (Bytes.length key);
        if Epoch_sys.generation h <> gen then decode_full esys ~tid h
        else begin
          let kv = (Bytes.unsafe_to_string key, v) in
          Epoch_sys.memo_store esys h ~gen (Memo kv);
          kv
        end
    | _ -> decode_full esys ~tid h

  let get_value esys ~tid h =
    match Epoch_sys.memo_get esys ~tid h with
    | Memo (_, v) -> v
    | Memo_value v -> v
    | _ ->
        let gen = Epoch_sys.generation h in
        let v = Kv_content.decode_value (Epoch_sys.pget esys ~tid h) in
        Epoch_sys.memo_store esys h ~gen (Memo_value v);
        v

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
