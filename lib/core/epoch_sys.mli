(** The Montage epoch system (paper §3 and §5) — the runtime that makes
    data structures buffered durably linearizable.

    Execution is divided into epochs by a global clock.  Every payload
    is labeled with the epoch in which it was created or last modified;
    all payloads of epoch [e] persist together when the clock ticks
    from [e+1] to [e+2]; after a crash in epoch [e], recovery restores
    exactly the payloads of epochs [<= e-2], applying anti-payload and
    version-supersession rules per uid.

    Thread-id convention: workers pass a [tid] in
    [0, config.max_threads); the background advancer internally uses
    the extra slot [config.max_threads], so the region must be created
    with at least [config.max_threads + 2] thread slots. *)

(** A payload's content written in place: [write b off] lays out
    exactly [len] bytes at [b.[off, off + len)].  {!pnew_fill} and
    {!pset_fill} hand it the region's store view, so the content is
    written once, straight to the payload. *)
type fill = { len : int; write : Bytes.t -> int -> unit }

(** The fill that copies a buffer's bytes (taken when it runs). *)
val fill_bytes : Bytes.t -> fill

(** A transient handle to a persistent payload block.  Handles are
    mutable-by-module only; clients treat them as abstract tokens,
    except that [uid], [epoch] and [size] are exposed for introspection
    and tests.

    A payload's bytes live only in the region.  A handle is {e warm}
    while it holds a slot in the warm set ([mslot >= 0]): its reads copy
    straight out of the region's store view and are not charged, the
    model of a payload resident in DRAM.  The [mref]/[mslot]/[gen]
    fields belong to that layer; they are managed entirely by this
    module and must not be written by clients. *)
type pblk = {
  off : int;
  uid : int;  (** logical identity, stable across versions *)
  mutable epoch : int;
  mutable size : int;  (** content bytes *)
  mutable live : bool;
  mutable mref : bool;  (** clock (second-chance) reference bit *)
  mutable mslot : int;  (** warm-set ring index: the warm bit; [-1] = cold *)
  gen : int Atomic.t;
      (** content seqlock: odd while an in-place {!pset} stores, bumped
          before and after it *)
}

type t

(** {1 Construction and lifecycle} *)

(** Create an epoch system over a fresh (or idempotently re-opened)
    region.  Spawns the background advancer when
    [config.auto_advance]. *)
val create : ?config:Config.t -> Nvm.Region.t -> t

(** Rebuild from a crashed region.  Returns the new system and handles
    to every surviving payload (newest qualifying version per uid,
    anti-payload groups dropped); dead blocks are scrubbed and returned
    to the allocator.  [threads] parallelizes the header scan and the
    sweep over disjoint heap slices. *)
val recover : ?config:Config.t -> ?threads:int -> Nvm.Region.t -> t * pblk array

(** Split recovered payloads into [k] slices for parallel rebuilding
    (§5.1's k-iterator recovery API). *)
val slices : pblk array -> k:int -> pblk array array

val start_background : t -> unit
val stop_background : t -> unit

(** {1 Introspection} *)

val region : t -> Nvm.Region.t
val allocator : t -> Ralloc.t
val config : t -> Config.t
val current_epoch : t -> int

(** Epoch of the thread's active operation; [0] when idle. *)
val op_epoch : t -> tid:int -> int

(** Number of epoch advances performed so far. *)
val advance_count : t -> int

(** Warm-set effectiveness: [hits] are payload reads of warm handles
    (uncharged region copies), [misses] are charged cold loads
    that warmed a handle, [evictions] counts clock victims,
    [resident_bytes] is the warm content bytes under the budget
    ([config.mirror_max_bytes]).  All zero when the budget is [0]. *)
type mirror_stats = { hits : int; misses : int; evictions : int; resident_bytes : int }

val mirror_stats : t -> mirror_stats

(** The persistency-ordering checker attached per [config.pcheck] (or
    enabled on the region out-of-band); [None] on the fast path. *)
val checker : t -> Nvm.Pcheck.t option

(** Report a DCSS decision to the checker: [clock] is the epoch-clock
    value the decision was computed from.  Called by {!Everify};
    exposed so deliberately-buggy test structures can declare
    linearizations too.  No-op without a checker. *)
val note_linearize : t -> epoch:int -> clock:int -> success:bool -> unit

(** {1 Operations (paper Fig. 1/3)} *)

(** BEGIN_OP: register in the current epoch (retrying across ticks) so
    payload mutations below are labeled consistently. *)
val begin_op : t -> tid:int -> unit

(** END_OP.  Under [drain_on_end_op] also writes back this operation's
    payloads synchronously (Montage (dw)). *)
val end_op : t -> tid:int -> unit

(** RAII-style bracket: [begin_op], run, [end_op] (also on raise). *)
val with_op : t -> tid:int -> (unit -> 'a) -> 'a

(** @raise Errors.Epoch_changed if the clock moved past this
    operation's epoch.  Nonblocking operations call it before their
    linearizing CAS. *)
val check_epoch : t -> tid:int -> unit

(** {1 Payload lifecycle} *)

(** PNEW: allocate a payload labeled with the current operation's
    epoch and write [content] straight into it.  Must be inside
    [begin_op]/[end_op].  The new handle is warm (when it fits the
    budget): its content was just written. *)
val pnew_fill : t -> tid:int -> fill -> pblk

(** {!pnew_fill} of a buffer's bytes; the buffer is copied, not kept. *)
val pnew : t -> tid:int -> bytes -> pblk

(** [pdecode t ~tid p decode] reads a payload through [decode size read],
    where [read pos dst dst_off len] copies content bytes
    [\[pos, pos+len)] into [dst] at [dst_off], uncharged.  Performs the
    old-sees-new check when an operation is active.  A warm handle is
    read out of the region uncharged; a cold one pays the charged load
    of its whole content once and turns warm.

    The decode runs inside the payload's content seqlock: it starts
    from an even generation and reads [size] inside the window.  If an
    in-place {!pset} moved the generation meanwhile, the decode runs
    again, also when it raised on the torn bytes; so lock-free readers
    get one whole version.  [read] is valid only inside [decode], must
    stay within [\[0, size)] (unchecked; {!Payload.View} checks it), and
    [decode] may run more than once.
    @raise Errors.Old_see_new when the payload is newer than the
    operation's epoch.
    @raise Errors.Use_after_free on a dead handle. *)
val pdecode :
  t -> tid:int -> pblk -> (int -> (int -> Bytes.t -> int -> int -> unit) -> 'a) -> 'a

(** {!pdecode} without the old-sees-new check (paper's [get_unsafe]);
    also the read path for recovered payloads outside any operation. *)
val pdecode_unsafe : t -> pblk -> (int -> (int -> Bytes.t -> int -> int -> unit) -> 'a) -> 'a

(** {!pdecode} of a whole-content copy: a fresh buffer the caller owns. *)
val pget : t -> tid:int -> pblk -> bytes

(** {!pdecode_unsafe} of a whole-content copy. *)
val pget_unsafe : t -> pblk -> bytes

(** [preader t ~tid p] runs {!pget}'s checks and pays its load (once,
    if [p] is cold), then returns [r] where [r pos dst dst_off len]
    copies content bytes [\[pos, pos+len)] into [dst] at [dst_off],
    uncharged — for callers that copy a value straight to where it goes
    (a reply buffer) with no intermediate buffer.  Each copy is one
    {!pdecode} window of its own; two copies see one version only when the
    caller excludes in-place writers of [p] (a bucket lock), and a
    {!fill} storing into [p] must not read it through [r].
    @raise Invalid_argument (from [r]) when the range is not within
    [p.size]. *)
val preader : t -> tid:int -> pblk -> int -> Bytes.t -> int -> int -> unit

(** Content bytes [\[pos, pos+len)] of a payload, without the
    old-sees-new check.  Charged only for the NVM lines those bytes
    cover; never warms the handle, so it stays as cold
    (or warm) as it was.  For recovery rebuilds that need only an index
    field (a key, a sequence number) of each payload.
    @raise Invalid_argument when the range is not within [p.size].
    @raise Errors.Use_after_free on a dead handle. *)
val pread_unsafe : t -> pblk -> pos:int -> len:int -> bytes

(** Replace a payload's content with [content], written straight into
    the payload.  In place when the payload belongs to the current
    epoch; otherwise a copying update returns a {e fresh} handle with
    the same uid, and the caller must install it everywhere the old
    handle appeared (well-formedness constraint 4).  Either way the
    resulting handle is warm.  An in-place store runs inside [p]'s
    seqlock window, so [content.write] must not read [p]. *)
val pset_fill : t -> tid:int -> pblk -> fill -> pblk

(** {!pset_fill} of a buffer's bytes; the buffer is copied, not kept. *)
val pset : t -> tid:int -> pblk -> bytes -> pblk

(** PDELETE: logically delete.  Same-epoch ALLOCs die instantly;
    otherwise an anti-payload with the same uid is published and both
    blocks are reclaimed after the two-epoch delay. *)
val pdelete : t -> tid:int -> pblk -> unit

(** {1 Persistence control} *)

(** Advance the epoch clock by one: quiesce epoch [e-1], write back all
    buffered payloads, fence, bump and persist the clock, and reclaim
    ripe deferred frees.  Normally driven by the background domain;
    exposed for tests and manual pacing.

    Lock-free helping protocol (nbMontage): concurrent callers publish
    every thread's persist-buffer ring in place (records stay claimable
    until fenced, so a peer parked mid-flush cannot stall the tick),
    race one CAS each on the persistent and transient clocks, and the
    transient winner reclaims.  A call returns as soon as the clock is
    past the epoch it observed, even if a concurrent helper performed
    the tick. *)
val advance_epoch : t -> tid:int -> unit

(** Force everything that completed before this call durable (two
    charged epoch advances; the caller helps with the write-backs, as
    in §5.2).  The helping protocol makes this wait-free with respect
    to peers between operations or parked inside a flush: the caller
    performs a bounded amount of work (publish + fence + two CAS
    attempts per tick) and never waits on another thread's progress,
    except the unavoidable quiescence wait on operations still open two
    epochs back. *)
val sync : t -> tid:int -> unit

(** Test-only stall injection, called inside every flush path between
    publishing records and the fence that makes them durable.  The
    wait-freedom suites and the stalled-worker bench park a thread
    here; production code never sets it. *)
val test_stall_in_drain : (unit -> unit) ref

(** Test-only stall injection in the reclamation scrub window: after
    the ripe plain victims' scrubs are issued (volatile) but before
    the fence and the anti-payload scrubs.  The Dsched scrub suite
    parks a reclaimer here and crashes; production code never sets
    it. *)
val test_stall_in_reclaim : (unit -> unit) ref

(** The durable frontier: a crash right now loses nothing from epochs
    [<= persisted_epoch t] (= current epoch - 2).  Transports use this
    to report how far the persisted prefix reaches after a
    shutdown-drain {!sync} — every reply acked before the sync is
    covered by the frontier it leaves behind. *)
val persisted_epoch : t -> int
