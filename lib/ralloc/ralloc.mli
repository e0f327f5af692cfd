(** Ralloc-style nonblocking persistent allocator (Cai et al.,
    ISMM '20), adapted for Montage.

    The heap is carved into 64 KB superblocks, each bound to one size
    class on first use; the binding is the only persistent allocator
    metadata.  Free lists, per-thread caches and the bump frontier are
    transient and rebuilt after a crash by the recovery sweep.  No
    write-back or fence is issued on the alloc/free fast path. *)

module Size_class : sig
  (** Segregated size classes, 64 B to 8 KB in powers of two; every
      class is a multiple of the 64 B line size. *)

  val classes : int array
  val count : int
  val max_size : int

  (** Smallest class index whose blocks fit [size] bytes.
      @raise Invalid_argument when [size <= 0 || size > max_size]. *)
  val index_of : int -> int

  val size_of : int -> int
end

module Free_list : sig
  (** Lock-free intrusive Treiber stack of block offsets; next pointers
      live in the free blocks' transient bytes, the head packs a
      version against ABA. *)

  type t = { head : int Atomic.t }

  val create : unit -> t
  val is_empty : t -> bool
  val push : Nvm.Region.t -> t -> int -> unit
  val pop : Nvm.Region.t -> t -> int option
end

type t

exception Out_of_memory

val superblock_size : int

(** [create region ~heap_base] manages [heap_base, capacity) (rounded
    to superblocks).  [cache_capacity] bounds each per-thread cache. *)
val create : ?cache_capacity:int -> Nvm.Region.t -> heap_base:int -> t

(** Allocate a block of the size class covering [size]; returns its
    region offset.  Lock-free fast path (thread cache, then global
    list); carving a fresh superblock persists one header line.
    @raise Out_of_memory when the heap is exhausted. *)
val alloc : t -> tid:int -> size:int -> int

val free : t -> tid:int -> int -> unit

(** Size class of the block at [off] (from its superblock binding). *)
val block_size : t -> int -> int

(** {1 Recovery} *)

(** Rebind superblocks from their persistent headers and reset all
    transient metadata.  After it, {!iter_blocks} is usable; gaps
    (claimed superblocks whose header never persisted) are skipped. *)
val rescan : t -> unit

(** Walk every block of every bound superblock (address order),
    returning dead ones to the free lists per the [live] oracle. *)
val sweep : t -> live:(int -> bool) -> unit

(** Sweep one parallel-recovery slice; disjoint slices may run in
    concurrent domains (the free lists are lock-free). *)
val sweep_slice : t -> slice:int -> slices:int -> live:(int -> bool) -> unit

(** [rescan] then [sweep]. *)
val recover : t -> live:(int -> bool) -> unit

(** Enumerate every block of every bound superblock. *)
val iter_blocks : t -> (off:int -> size:int -> unit) -> unit

(** Enumerate the blocks of every [slices]-th superblock starting at
    index [slice] — the unit of parallel recovery (disjoint slices
    partition the heap). *)
val iter_blocks_slice : t -> slice:int -> slices:int -> (off:int -> size:int -> unit) -> unit
