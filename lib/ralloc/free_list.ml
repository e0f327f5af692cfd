(* Lock-free intrusive free list (Treiber stack) of block offsets.

   The next pointer lives in the first 8 bytes of each free block's
   *working* copy — transient data, exactly as in Ralloc, where
   allocator metadata is never persisted and is rebuilt by the recovery
   sweep.  The head packs a 23-bit version with the 40-bit offset to
   defeat ABA:

       head = (version << 40) | (offset + 1)        (0 means empty)

   Offsets are +1-biased so that offset 0 is representable. *)

type t = { head : int Atomic.t }

let create () = { head = Atomic.make 0 }

let offset_bits = 40
let offset_mask = (1 lsl offset_bits) - 1

let pack ~version ~off = ((version land 0x7FFFFF) lsl offset_bits) lor ((off + 1) land offset_mask)
let unpack_off packed = (packed land offset_mask) - 1
let unpack_version packed = packed lsr offset_bits

let is_empty t = Atomic.get t.head land offset_mask = 0

let rec push region t off =
  let old = Atomic.get t.head in
  let next = unpack_off old in
  Nvm.Region.transient_set_i64 region ~off (next + 1);
  let fresh = pack ~version:(unpack_version old + 1) ~off in
  if not (Atomic.compare_and_set t.head old fresh) then push region t off

let rec pop region t =
  let old = Atomic.get t.head in
  let off = unpack_off old in
  if off < 0 then None
  else begin
    let next = Nvm.Region.transient_get_i64 region ~off - 1 in
    let fresh = pack ~version:(unpack_version old + 1) ~off:next in
    if Atomic.compare_and_set t.head old fresh then Some off else pop region t
  end
