(** Persistent payload header — the only metadata Montage keeps in NVM.

    Wire layout (little-endian), one per allocator block:
    [magic u32 | type u8 | pad | epoch i64 | uid i64 | size i32 | pad |
    content...].  Recovery groups blocks by uid, keeps the newest
    version with epoch [<= crash_epoch - 2], and drops the group when
    that version is a DELETE anti-payload. *)

val magic : int
val header_size : int

type ptype = Alloc | Update | Delete

type t = { ptype : ptype; epoch : int; uid : int; size : int }

val write : Nvm.Region.t -> off:int -> t -> unit

(** Parse the header at [off]; [None] if the block does not hold a
    payload (never written, scrubbed, or torn). *)
val read : Nvm.Region.t -> off:int -> block_size:int -> t option

(** {1 In-place access}

    The recovery scan validates and reads headers without building a
    record or an option per block. *)

(** Type code of [Delete] (ALLOC is 0, UPDATE 1). *)
val delete_code : int

(** The header's type code when the block holds a valid payload header
    (the checks of {!read}), -1 otherwise. *)
val type_code : Nvm.Region.t -> off:int -> block_size:int -> int

(** Fields of a header already validated by {!type_code}. *)

val epoch_at : Nvm.Region.t -> off:int -> int
val uid_at : Nvm.Region.t -> off:int -> int
val size_at : Nvm.Region.t -> off:int -> int

(** Erase the magic so the recovery sweep cannot resurrect a reclaimed
    block's stale contents (DESIGN.md, block-recycling hazard). *)
val scrub : Nvm.Region.t -> off:int -> unit

val set_type : Nvm.Region.t -> off:int -> ptype -> unit

(** Offset of the content area within a block starting at [off]. *)
val content_off : int -> int
