(* Persistent payload header, the only metadata Montage keeps in NVM.

   Wire layout (little-endian), one per allocator block:

     +0   u32  magic      "MPLD"
     +4   u8   type       0 = ALLOC, 1 = UPDATE, 2 = DELETE
     +8   i64  epoch      creation / last-modification epoch
     +16  i64  uid        logical identity, shared by all versions of a
                          payload and by its anti-payload
     +24  i32  size       content length in bytes
     +32       content

   Recovery groups blocks by uid, keeps the newest version whose epoch
   is at most (crash epoch − 2), and discards the whole group when that
   version is a DELETE anti-payload. *)

let magic = 0x4D504C44
let header_size = 32

type ptype = Alloc | Update | Delete

let ptype_to_int = function Alloc -> 0 | Update -> 1 | Delete -> 2

let delete_code = 2

type t = { ptype : ptype; epoch : int; uid : int; size : int }

let write region ~off { ptype; epoch; uid; size } =
  Nvm.Region.set_i32 region ~off magic;
  Nvm.Region.set_u8 region ~off:(off + 4) (ptype_to_int ptype);
  Nvm.Region.set_i64 region ~off:(off + 8) epoch;
  Nvm.Region.set_i64 region ~off:(off + 16) uid;
  Nvm.Region.set_i32 region ~off:(off + 24) size

(* In-place field reads, for callers that have validated the header
   with [type_code] (the recovery scan allocates nothing per block). *)
let epoch_at region ~off = Nvm.Region.get_i64 region ~off:(off + 8)
let uid_at region ~off = Nvm.Region.get_i64 region ~off:(off + 16)
let size_at region ~off = Nvm.Region.get_i32 region ~off:(off + 24)

(* Validate the header at [off] in place: its type code (0 ALLOC,
   1 UPDATE, 2 DELETE), or -1 if the block does not hold a payload
   (never written, scrubbed, or torn). *)
let type_code region ~off ~block_size =
  if Nvm.Region.get_i32 region ~off <> magic then -1
  else
    let code = Nvm.Region.get_u8 region ~off:(off + 4) in
    if code > delete_code then -1
    else
      let size = size_at region ~off in
      if size < 0 || header_size + size > block_size || epoch_at region ~off <= 0
         || uid_at region ~off <= 0
      then -1
      else code

(* Parse the header at [off]; [None] if the block does not hold a
   payload. *)
let read region ~off ~block_size =
  match type_code region ~off ~block_size with
  | -1 -> None
  | code ->
      let ptype = match code with 0 -> Alloc | 1 -> Update | _ -> Delete in
      Some { ptype; epoch = epoch_at region ~off; uid = uid_at region ~off; size = size_at region ~off }

(* Erase the magic so the recovery sweep cannot resurrect a reclaimed
   block's stale contents (see "Block-recycling hazard" in DESIGN.md). *)
let scrub region ~off = Nvm.Region.set_i32 region ~off 0

let set_type region ~off ptype = Nvm.Region.set_u8 region ~off:(off + 4) (ptype_to_int ptype)
let content_off off = off + header_size
