(** Simulated byte-addressable persistent memory.

    The region keeps one full copy of its contents, [work] — what loads
    and stores observe.  What survives a crash (the media) is the image
    the region was built from, overlaid by every line committed since.
    After a restart ({!of_image}, {!crash}) [work] is loaded line by
    line from the media on first touch, as a mapped heap is read in
    place; loads are not charged and are invisible to callers.
    Stores mutate work and mark the covered 64 B lines dirty;
    {!writeback} (CLWB analog) queues ranges on the issuing thread's
    write-pending queue; {!sfence} drains that queue into media.
    {!crash} discards work, so only fenced data survives; injection
    parameters model lines that persisted despite a missing fence or
    via spontaneous eviction, both of which real hardware permits.

    Thread-safety discipline: distinct threads may concurrently access
    disjoint line ranges (the data-structure layer guarantees
    ownership, exactly as on real hardware); first touches of one line
    may race and are loaded exactly once.  [crash] requires
    quiescence. *)

val line_size : int

type t

(** [create ~capacity ()] — capacity is rounded up to a line multiple.
    [max_threads] is the number of per-thread write-pending queues; each
    starts at 16 ranges and doubles on demand up to 4,096, where it
    drains early. *)
val create : ?latency:Latency.t -> ?max_threads:int -> capacity:int -> unit -> t

(** Reconstruct a region from a raw media image (e.g. a crash state
    materialized by {!Pcheck.explore}): both work and media start as
    the image, zero-padded to a line multiple, exactly the post-restart
    view after that crash.  The region keeps the image itself as the
    base of its media and copies none of it up front: each line of work
    is loaded when first touched.  It never writes the image. *)
val of_image : ?latency:Latency.t -> ?max_threads:int -> string -> t

(** The current media bytes, as a fresh string: the crash state in
    which no unfenced line survived.  Round-trips through {!of_image},
    so one image can seed any number of independent recoveries. *)
val media_image : t -> string

val capacity : t -> int
val latency : t -> Latency.t
val max_threads : t -> int

(** {1 Data access (stores go to work; loads pay read latency)} *)

val write : t -> off:int -> src:bytes -> src_off:int -> len:int -> unit
val write_string : t -> off:int -> string -> unit

(** [write_with t ~off ~len fill] stores the [len] bytes that
    [fill work off] lays out at [work.[off, off + len)], where [work] is
    the region's store view, with {!write}'s semantics (dirty marking,
    checker notification) and no staging buffer.  [fill] must write
    exactly that range and must not call back into this region. *)
val write_with : t -> off:int -> len:int -> (Bytes.t -> int -> unit) -> unit

val read : t -> off:int -> dst:bytes -> dst_off:int -> len:int -> unit
val read_string : t -> off:int -> len:int -> string

(** {!read} without the load charge, for payload bytes whose load was
    already paid (a warm payload, see {!Montage.Epoch_sys}).  Still a
    read to the attached checker. *)
val read_uncharged : t -> off:int -> dst:bytes -> dst_off:int -> len:int -> unit

(** Pay, and count in {!stats}[.lines_read], the load of the lines
    covering [\[off, off+len)] without copying them: a cold payload's
    first read brings in its whole content. *)
val charge_read : t -> off:int -> len:int -> unit

(** Scalar accessors for headers and roots (uncharged: hot metadata). *)

val set_u8 : t -> off:int -> int -> unit
val get_u8 : t -> off:int -> int
val set_i32 : t -> off:int -> int -> unit
val get_i32 : t -> off:int -> int
val set_i64 : t -> off:int -> int -> unit
val get_i64 : t -> off:int -> int

(** Atomic 8-byte compare-and-swap on the store view (the lock-cmpxchg
    analog for a persistent address): when the current value equals
    [expected], stores [desired] — with full store semantics (dirty
    marking, checker notification) — and returns [true]; otherwise
    leaves the cell untouched and returns [false].  Used by the
    nonblocking epoch advance to publish the clock; the caller still
    owns write-back and fence of the line. *)
val cas_i64 : t -> off:int -> expected:int -> desired:int -> bool

(** Transient metadata access: never participates in persistence (no
    dirty marking, no latency).  Allocator free lists use it. *)

val transient_set_i64 : t -> off:int -> int -> unit
val transient_get_i64 : t -> off:int -> int

(** {1 Persistence primitives} *)

(** CLWB analog: queue the lines covering [off, off+len) for
    write-back, charging issue cost. *)
val writeback : t -> tid:int -> off:int -> len:int -> unit

(** Batched line-granular write-back (the coalesced drain path): queue
    [lines] 64 B lines starting at line index [first], charging the
    pipelined per-line batch rate ({!Latency.t.writeback_batch_ns}) —
    back-to-back CLWBs overlap in the store buffer. *)
val writeback_lines : t -> tid:int -> first:int -> lines:int -> unit

(** Identical semantics, zero charge: work performed by a background
    domain that runs on a dedicated core in the paper's deployment. *)
val writeback_lines_uncharged : t -> tid:int -> first:int -> lines:int -> unit

(** Record one coalescing round's effectiveness: [ranges] buffered
    records covering [lines_in] lines were merged into [lines_out]
    flushed lines.  Feeds {!stats} and the attached checker. *)
val note_coalesced : t -> tid:int -> ranges:int -> lines_in:int -> lines_out:int -> unit

(** SFENCE analog: commit this thread's queued ranges to media,
    charging the drain wait. *)
val sfence : t -> tid:int -> unit

(** Commit without the drain charge: a fence whose wait is overlapped
    elsewhere (background advancer, sister hyperthread). *)
val sfence_async : t -> tid:int -> unit

(** [writeback] then [sfence]. *)
val persist : t -> tid:int -> off:int -> len:int -> unit

(** {1 Crash} *)

(** Simulate power failure (requires quiescence): work is discarded —
    each line is reloaded from media on its next touch — and queues and
    dirty state are cleared.  With probability
    [persist_unfenced], each queued-but-unfenced line reaches media;
    with probability [evict_dirty], a dirty line persists despite never
    being flushed. *)
val crash : ?persist_unfenced:float -> ?evict_dirty:float -> ?rng:Util.Xoshiro.t -> t -> unit

(** {1 Statistics} *)

(** [writebacks] counts queued lines; [fences] counts fence calls;
    [lines_read] counts 64 B lines whose charged load latency was paid
    ({!read_uncharged} never appears here);
    [coalesce_*] aggregate {!note_coalesced} reports (the dedup ratio
    is [coalesce_lines_in / coalesce_lines_out]). *)
type stats = {
  writebacks : int;
  fences : int;
  lines_persisted : int;
  lines_read : int;
  coalesce_ranges : int;
  coalesce_lines_in : int;
  coalesce_lines_out : int;
}

val stats : t -> stats

(** {1 Persistency-ordering checker (Pcheck)} *)

(** Attach a {!Pcheck} checker to this region (idempotent: returns the
    existing checker if one is attached).  Every store, read,
    write-back, fence, drain, and crash is reported to it from then on.
    Without a checker the substrate pays one branch per primitive and
    allocates nothing. *)
val enable_pcheck :
  ?mode:Pcheck.mode -> ?log_events:bool -> ?max_log:int -> t -> Pcheck.t

val checker : t -> Pcheck.t option

(** Assert a flush contract: every line of [off, off+len) has reached
    media since its last store.  No-op when no checker is attached, so
    structures declare their contracts unconditionally. *)
val expect_fenced : t -> what:string -> off:int -> len:int -> unit
