(* Ralloc-style nonblocking persistent allocator (Cai et al., ISMM '20),
   adapted for Montage.

   The heap is carved into 64 KB superblocks.  A superblock is bound to
   one size class when first used; the binding is the *only* persistent
   allocator metadata (one header line per superblock, persisted once).
   Everything else — free lists, per-thread caches, the bump frontier —
   is transient and rebuilt after a crash by [recover], which sweeps the
   superblock headers and asks the client which blocks are live
   (Montage answers by reading payload headers and applying its
   epoch/uid rules).

   Allocation fast path: pop from the calling thread's cache; on miss,
   refill from the class's lock-free global list; on miss again, carve
   a fresh superblock.  No write-back or fence is ever issued on the
   alloc/free path, matching Ralloc's key property. *)

(* This module shares the library's name, so it is the library root;
   re-export the building blocks for clients and tests. *)
module Size_class = Size_class
module Free_list = Free_list

let superblock_size = 65536
let header_size = 64
let magic = 0x52414C43 (* "RALC" *)

type t = {
  region : Nvm.Region.t;
  heap_base : int;
  heap_end : int;
  bump : int Atomic.t; (* next unused superblock offset *)
  global : Free_list.t array; (* one per size class *)
  sb_class : int array; (* transient: class of each superblock, -1 if unused *)
  caches : int array array array; (* caches.(tid).(class) = offsets *)
  cache_len : int array array;
  cache_capacity : int;
  carve_lock : Util.Spin_lock.t;
}

let sb_index t off = (off - t.heap_base) / superblock_size

let create ?(cache_capacity = 32) region ~heap_base =
  let capacity = Nvm.Region.capacity region in
  let heap_base = (heap_base + superblock_size - 1) / superblock_size * superblock_size in
  if heap_base >= capacity then invalid_arg "Ralloc.create: heap_base beyond capacity";
  let heap_end = capacity / superblock_size * superblock_size in
  let max_threads = Nvm.Region.max_threads region in
  {
    region;
    heap_base;
    heap_end;
    bump = Atomic.make heap_base;
    global = Array.init Size_class.count (fun _ -> Free_list.create ());
    sb_class = Array.make ((heap_end - heap_base) / superblock_size) (-1);
    caches =
      Array.init max_threads (fun _ ->
          Array.init Size_class.count (fun _ -> Array.make cache_capacity 0));
    cache_len = Array.init max_threads (fun _ -> Array.make Size_class.count 0);
    cache_capacity;
    carve_lock = Util.Spin_lock.create ();
  }

exception Out_of_memory

(* Bind a fresh superblock to [cls], push its blocks on the global list,
   and persist the header so the recovery sweep can find it.  Carving is
   serialized by a lock so a crash leaves at most one claimed-but-
   headerless superblock (≤ 64 KB leaked, reclaimed on the next full
   sweep); this is a rare slow path — once per 64 KB of allocation. *)
let carve_superblock t ~tid cls =
  Util.Spin_lock.with_lock t.carve_lock (fun () ->
      let sb = Atomic.get t.bump in
      if sb >= t.heap_end then raise Out_of_memory;
      t.sb_class.(sb_index t sb) <- cls;
      Nvm.Region.set_i32 t.region ~off:sb magic;
      Nvm.Region.set_i32 t.region ~off:(sb + 4) cls;
      Nvm.Region.persist t.region ~tid ~off:sb ~len:8;
      Atomic.set t.bump (sb + superblock_size);
      let block_size = Size_class.size_of cls in
      let blocks = (superblock_size - header_size) / block_size in
      for i = blocks - 1 downto 0 do
        Free_list.push t.region t.global.(cls) (sb + header_size + (i * block_size))
      done)

let rec refill t ~tid cls =
  match Free_list.pop t.region t.global.(cls) with
  | Some off -> off
  | None ->
      carve_superblock t ~tid cls;
      refill t ~tid cls

let alloc t ~tid ~size =
  let cls = Size_class.index_of size in
  let cache = t.caches.(tid).(cls) in
  let n = t.cache_len.(tid).(cls) in
  if n > 0 then begin
    t.cache_len.(tid).(cls) <- n - 1;
    cache.(n - 1)
  end
  else refill t ~tid cls

let block_class t off =
  let cls = t.sb_class.(sb_index t off) in
  assert (cls >= 0);
  cls

let block_size t off = Size_class.size_of (block_class t off)

let free t ~tid off =
  let cls = block_class t off in
  let cache = t.caches.(tid).(cls) in
  let n = t.cache_len.(tid).(cls) in
  if n < t.cache_capacity then begin
    cache.(n) <- off;
    t.cache_len.(tid).(cls) <- n + 1
  end
  else begin
    (* cache full: spill half to the global list, keep the rest local *)
    let keep = t.cache_capacity / 2 in
    for i = keep to n - 1 do
      Free_list.push t.region t.global.(cls) cache.(i)
    done;
    cache.(keep) <- off;
    t.cache_len.(tid).(cls) <- keep + 1
  end

(* ---- recovery ---- *)

(* Enumerate the blocks of every [slices]-th bound superblock starting
   at superblock index [slice] — the unit of parallel recovery.  Order
   within a slice is address order. *)
let iter_blocks_slice t ~slice ~slices f =
  let off = ref (t.heap_base + (slice * superblock_size)) in
  let stride = slices * superblock_size in
  while !off < Atomic.get t.bump do
    let sb = !off in
    if Nvm.Region.get_i32 t.region ~off:sb = magic then begin
      let cls = Nvm.Region.get_i32 t.region ~off:(sb + 4) in
      if cls >= 0 && cls < Size_class.count then begin
        let block_size = Size_class.size_of cls in
        let blocks = (superblock_size - header_size) / block_size in
        for i = 0 to blocks - 1 do
          f ~off:(sb + header_size + (i * block_size)) ~size:block_size
        done
      end
    end;
    off := sb + stride
  done

(* Enumerate every block of every bound superblock, reading headers from
   the post-crash image.  Order is address order. *)
let iter_blocks t f = iter_blocks_slice t ~slice:0 ~slices:1 f

(* Post-crash recovery runs in two phases so the client can inspect the
   swept blocks between them (Montage's uid/epoch filtering needs a full
   pass over all payload headers before liveness can be decided):

   1. [rescan] rebinds superblocks from their media headers and resets
      all transient metadata; after it, [iter_blocks] is usable.
   2. [sweep ~live] walks every block and returns the dead ones to the
      free lists, consulting the client's liveness oracle.

   The rescan covers the whole heap range and tolerates a gap — a
   superblock claimed but whose header never persisted — by rebinding
   everything up to the last header found. *)
let rescan t =
  Array.fill t.sb_class 0 (Array.length t.sb_class) (-1);
  let frontier = ref t.heap_base in
  let sb = ref t.heap_base in
  while !sb < t.heap_end do
    if Nvm.Region.get_i32 t.region ~off:!sb = magic then begin
      let cls = Nvm.Region.get_i32 t.region ~off:(!sb + 4) in
      if cls >= 0 && cls < Size_class.count then begin
        t.sb_class.(sb_index t !sb) <- cls;
        frontier := !sb + superblock_size
      end
    end;
    sb := !sb + superblock_size
  done;
  Atomic.set t.bump !frontier;
  Array.iter (fun fl -> Atomic.set fl.Free_list.head 0) t.global;
  Array.iter (fun per_class -> Array.fill per_class 0 (Array.length per_class) 0) t.cache_len

let sweep_slice t ~slice ~slices ~live =
  iter_blocks_slice t ~slice ~slices (fun ~off ~size:_ ->
      if not (live off) then Free_list.push t.region t.global.(block_class t off) off)

let sweep t ~live = sweep_slice t ~slice:0 ~slices:1 ~live

let recover t ~live =
  rescan t;
  sweep t ~live
