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

(** The empty decoded-value memo slot (see {!memo_get}). *)
exception No_memo

(** A transient handle to a persistent payload block.  Handles are
    mutable-by-module only; clients treat them as abstract tokens,
    except that [uid] and [epoch] are exposed for introspection and
    tests.

    The [mirror]/[memo]/[mref]/[mslot] fields belong to the volatile
    payload mirror layer (a DRAM read cache of the content bytes plus a
    memoized decoded value); they are managed entirely by this module
    and {!Payload.Make} and must not be written by clients. *)
type pblk = {
  mutable off : int;
  uid : int;  (** logical identity, stable across versions *)
  mutable epoch : int;
  mutable size : int;  (** content bytes *)
  mutable live : bool;
  mutable mirror : Bytes.t option;  (** DRAM copy of the content bytes; [None] = cold *)
  mutable memo : exn;
      (** decoded-value memo ([No_memo] = empty), valid only while the
          buffer it was decoded from is the resident mirror *)
  mutable mref : bool;  (** clock (second-chance) reference bit *)
  mutable mslot : int;  (** mirror-cache ring index; [-1] = not resident *)
  mutable mgen : int;
      (** mirror generation, bumped on every install/release; gates
          racing cold fills (see [epoch_sys.ml]) *)
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

(** Volatile-payload-mirror effectiveness: [hits] are payload reads
    served from DRAM (byte or memo), [misses] are charged NVM loads
    that populated a mirror, [evictions] counts clock victims,
    [resident_bytes] is the current budget use.  All zero when
    mirroring is off. *)
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

(** PNEW: allocate and fill a payload labeled with the current
    operation's epoch.  Must be inside [begin_op]/[end_op].

    Ownership handover: with mirrors on ([config.mirror_max_bytes > 0])
    the content buffer is adopted {e by reference} as the new handle's
    DRAM mirror (shared, not copied) and may later be returned verbatim
    by {!pget}.  Callers must pass a freshly allocated buffer (e.g. an encoder result built
    for this call) and never mutate it afterwards — reusing or patching
    the buffer silently corrupts mirror coherence in a way only a
    Pcheck-checked run can surface. *)
val pnew : t -> tid:int -> bytes -> pblk

(** Read a payload's content.  Performs the old-sees-new check when an
    operation is active.  With mirrors on a warm handle is
    served from its DRAM mirror — no NVM load is charged and nothing is
    allocated; a cold miss pays the load and populates the mirror.  The
    returned bytes may be the mirror itself: callers must not mutate
    them (every in-tree caller only decodes).
    @raise Errors.Old_see_new when the payload is newer than the
    operation's epoch.
    @raise Errors.Use_after_free on a dead handle. *)
val pget : t -> tid:int -> pblk -> bytes

(** Read without the old-sees-new check (paper's [get_unsafe]); also
    the read path for recovered payloads outside any operation.
    Mirror-served like {!pget}. *)
val pget_unsafe : t -> pblk -> bytes

(** Content bytes [\[pos, pos+len)] of a payload, without the
    old-sees-new check.  Charged only for the NVM lines those bytes
    cover; never installs a mirror or a memo, so the handle stays as
    cold (or warm) as it was.  For recovery rebuilds that need only an
    index field (a key, a sequence number) of each payload.
    @raise Invalid_argument when the range is not within [p.size].
    @raise Errors.Use_after_free on a dead handle. *)
val pread_unsafe : t -> pblk -> pos:int -> len:int -> bytes

(** {1 Decoded-value memos (the {!Payload.Make} fast path)}

    Each [Payload.Make] instance declares [exception Memo of C.t] and
    stores decoded values on the handle through these; the [exn] slot
    gives a typed one-shot cache without a type parameter on [pblk]. *)

(** The handle's memo when it can be trusted (mirror resident, memo
    set), else {!No_memo}.  Runs {!pget}'s live/old-sees-new checks and
    coherence assertion. *)
val memo_get : t -> tid:int -> pblk -> exn

(** {!memo_get} without the old-sees-new check. *)
val memo_get_unsafe : t -> pblk -> exn

(** Publish a decoded value on the handle.  [src] is the buffer the
    value was decoded from (a {!pget} result, or the buffer handed to
    {!pnew}/{!pset}); the store is honored only if [src] is physically
    the resident mirror, checked atomically against concurrent
    refresh/eviction — a decode that lost a race to an in-place {!pset}
    is silently dropped rather than published stale against the fresh
    mirror bytes. *)
val memo_store : t -> pblk -> src:bytes -> exn -> unit

(** Atomic [(memo, mirror bytes)] snapshot: the memo together with the
    exact buffer it was decoded from, or [(No_memo, None)].  For
    memo-upgrade paths that combine a memoized fragment with a partial
    re-decode of the same bytes ({!Payload.Kv.get}); pass the returned
    buffer back as {!memo_store}'s [src].  Runs {!memo_get}'s checks;
    takes the cache lock, so probe lock-free first. *)
val memo_src : t -> tid:int -> pblk -> exn * Bytes.t option

(** Replace a payload's content.  In place when the payload belongs to
    the current epoch; otherwise a copying update returns a {e fresh}
    handle with the same uid, and the caller must install it everywhere
    the old handle appeared (well-formedness constraint 4).

    The content buffer is adopted as the (in-place or fresh) handle's
    DRAM mirror exactly as in {!pnew}: freshly allocated, never mutated
    by the caller afterwards. *)
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
