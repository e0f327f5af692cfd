(* The Montage epoch system (paper §3 and §5, Fig. 3).

   Execution is divided into epochs by a global clock.  Every payload
   is labeled with the epoch in which it was created or last modified;
   all payloads of epoch e persist together when the clock ticks from
   e+1 to e+2, and after a crash in epoch e everything labeled e or
   e−1 is discarded.  Data-structure operations bracket their updates
   with [begin_op]/[end_op]; synchronization and lookup structure live
   entirely in transient memory (the OCaml heap), so the only NVM
   traffic is payload writes and the deferred write-backs.

   Region layout: line 0 holds the persistent epoch clock; the
   allocator heap starts at 64 KB. *)

let clock_off = 0
let heap_base = 65536
let initial_epoch = 3 (* ≥ 3 so that epoch − 2 never collides with 0 = "idle" *)

(* A payload's content written in place: [write b off] lays out [len]
   bytes at [b.[off, off + len)].  [pnew_fill]/[pset_fill] hand it the
   region's store view, so content goes to NVM with no staging copy. *)
type fill = { len : int; write : Bytes.t -> int -> unit }

(* Ownership of the non-cache mutable fields follows the paper's §4
   well-formedness contract: a payload is mutated only by the single
   operation that currently owns it (the data structure serializes
   per-payload access), so those writes need no further lock. *)
type pblk = {
  off : int; (* block offset in the region *)
  uid : int;
  mutable epoch : int [@montage.guarded_by "owning operation (per-payload exclusion, §4)"];
      (* mirror of the persistent header *)
  mutable size : int [@montage.guarded_by "owning operation (per-payload exclusion, §4)"];
      (* content bytes *)
  mutable live : bool [@montage.guarded_by "owning operation (per-payload exclusion, §4)"];
      (* debugging aid: detect use-after-free *)
  (* --- warm handles (the DRAM read-cache model) ---
     A payload's bytes live only in the region.  A handle is warm while
     it holds a slot in the warm ring ([mslot >= 0]): its reads copy
     straight out of the region's volatile [work] bytes and are not
     charged, as reads of a payload resident in DRAM.  Warmth changes
     under the cache lock; the hit path only reads it and sets [mref].

     [gen] is a seqlock over the content: an in-place [pset] makes it
     odd before its first store and even again after its last, so a
     reader that copies without the structure's lock retries until it
     saw one even generation on both sides of its copy. *)
  mutable mref : bool
      [@montage.guarded_by "none: lock-free clock ref bit, benign race by design"];
      (* clock (second-chance) reference bit *)
  mutable mslot : int [@montage.guarded_by "warm_cache.mc_lock"];
      (* index in the warm ring; -1 = cold *)
  gen : int Atomic.t;
}

(* The vacant ring slot, and the survivor array's filler in [recover];
   never handed out. *)
let no_pblk =
  {
    off = -1;
    uid = 0;
    epoch = 0;
    size = 0;
    live = false;
    mref = false;
    mslot = -1;
    gen = Atomic.make 0;
  }

(* The warm set: a clock (second-chance) ring of warm handles under a
   byte budget on their content sizes.  Warming, cooling and eviction
   are serialized by [mc_lock] (they already sit next to an NVM read or
   write charge, so the spin lock is noise); hits are lock-free — they
   read [pblk.mslot] and set the ref bit. *)
type warm_cache = {
  budget : int;
  mc_lock : Util.Spin_lock.t;
  mutable ring : pblk array [@montage.guarded_by "mc_lock"];
      (* grows on demand; [no_pblk] marks a vacancy *)
  mutable free : int array [@montage.guarded_by "mc_lock"];
      (* stack of vacant slots, [free.(0 .. nfree - 1)] *)
  mutable nfree : int [@montage.guarded_by "mc_lock"];
  mutable hand : int [@montage.guarded_by "mc_lock"];
  mutable used : int [@montage.guarded_by "mc_lock"];
      (* content bytes of the warm handles *)
  hits : Util.Padded.counters; (* per tid; the extra slot serves pget_unsafe *)
  misses : Util.Padded.counters;
  evictions : int Atomic.t;
}

type per_thread = {
  mutable op_epoch : int [@montage.thread_local]; (* 0 = no active operation *)
  mutable last_epoch : int [@montage.thread_local];
  buffer : Persist_buffer.t;
  coal : Wb_coalescer.t; (* this thread's line-dedup scratch for flushes *)
}

type t = {
  region : Nvm.Region.t;
  alloc : Ralloc.t;
  cfg : Config.t;
  curr_epoch : int Atomic.t; (* transient mirror of the persistent clock *)
  tracker : Tracker.t;
  mind : Mindicator.t;
  threads : per_thread array;
  (* to_free.(tid): (epoch, off, is_anti) triples freed by thread tid,
     each reclaimable once the clock reaches epoch + 2.  The owner
     appends with a CAS loop; a reclaimer claims the whole cell with
     one [Atomic.exchange] — scrub and free are not idempotent, so each
     block must be reclaimed by exactly one helper even when advances
     race — filters by the epoch tag, and pushes unripe survivors back
     (see [reclaim_ripe]).  The is_anti flag marks anti-payloads, whose
     scrub must never reach media before the scrub of the victim they
     mask is fenced (see [reclaim_ripe]); [pdelete] defers a victim and
     its anti at the same epoch so one exchange always claims them
     together. *)
  to_free : (int * int * bool) list Atomic.t array;
  uid_counter : int Atomic.t;
  advances : int Atomic.t; (* statistics *)
  stop_bg : bool Atomic.t;
  mutable bg : unit Domain.t option
      [@montage.guarded_by "control thread (start/stop_background caller)"];
  chk : Nvm.Pcheck.t option; (* persistency-ordering checker, per cfg.pcheck *)
  warm : warm_cache option; (* the warm set; None when cfg.mirror_max_bytes = 0 *)
}

let region t = t.region
let allocator t = t.alloc
let config t = t.cfg

let current_epoch t = Atomic.get t.curr_epoch
[@@montage.allow
  "R2: read-only observer for stats/tests; in-operation clock reads go \
   through check_epoch and the esys.* points"]

let op_epoch t ~tid = t.threads.(tid).op_epoch

let advance_count t = Atomic.get t.advances
[@@montage.allow "R2: read-only statistics observer"]

(* ---- construction ---- *)

(* Thread-id space: workers use 0 .. max_threads − 1; the background
   advancer owns the extra slot max_threads (it needs its own region
   write-pending queue and never runs operations). *)
let advancer_tid cfg = cfg.Config.max_threads

let make_state region cfg =
  if cfg.Config.max_threads + 1 > Nvm.Region.max_threads region then
    invalid_arg "Epoch_sys: region was created with too few thread slots";
  let slots = cfg.Config.max_threads + 1 in
  let alloc = Ralloc.create region ~heap_base in
  let chk =
    match cfg.Config.pcheck with
    | Config.Pcheck_off -> Nvm.Region.checker region (* reuse one enabled out-of-band *)
    | Config.Pcheck_record -> Some (Nvm.Region.enable_pcheck ~mode:Nvm.Pcheck.Record region)
    | Config.Pcheck_enforce -> Some (Nvm.Region.enable_pcheck ~mode:Nvm.Pcheck.Enforce region)
  in
  {
    region;
    alloc;
    cfg;
    curr_epoch = Atomic.make initial_epoch;
    tracker = Tracker.create ~max_threads:slots;
    mind = Mindicator.create ~max_threads:slots;
    threads =
      Array.init slots (fun _ ->
          {
            op_epoch = 0;
            last_epoch = 0;
            buffer = Persist_buffer.create ~capacity:cfg.Config.buffer_size;
            coal = Wb_coalescer.create ();
          });
    to_free = Array.init slots (fun _ -> Atomic.make []);
    uid_counter = Atomic.make 1;
    advances = Atomic.make 0;
    stop_bg = Atomic.make false;
    bg = None;
    chk;
    warm =
      (if cfg.Config.mirror_max_bytes > 0 then
         Some
           {
             budget = cfg.Config.mirror_max_bytes;
             mc_lock = Util.Spin_lock.create ();
             ring = Array.make 1024 no_pblk;
             free = Array.init 1024 (fun i -> 1023 - i);
             nfree = 1024;
             hand = 0;
             used = 0;
             (* one counter slot per worker + advancer, plus a shared
                slot for tid-less [pget_unsafe] readers *)
             hits = Util.Padded.make_counters (slots + 1);
             misses = Util.Padded.make_counters (slots + 1);
             evictions = Atomic.make 0;
           }
       else None);
  }

let checker t = t.chk

(* ---- warm handles ---- *)

(* Statistics slot for readers without a tid (recovery decodes,
   read-only probes): the counter array's last cell.  Padded counters
   are atomic, so sharing it across domains is safe. *)
let untracked_slot t = t.cfg.Config.max_threads + 1

(* Cool a handle: give back its ring slot.  Caller holds [mc_lock]. *)
let mc_release mc (p : pblk) =
  if p.mslot >= 0 then begin
    mc.used <- mc.used - p.size;
    mc.ring.(p.mslot) <- no_pblk;
    mc.free.(mc.nfree) <- p.mslot;
    mc.nfree <- mc.nfree + 1;
    p.mslot <- -1
  end

(* Clock sweep: advance the hand, sparing referenced entries once,
   until the budget holds.  Caller holds [mc_lock].  The step bound
   (every entry visited at most twice) keeps the sweep total even if
   the budget is unreachable. *)
let mc_evict_to_budget mc =
  let n = Array.length mc.ring in
  let steps = ref (2 * n) in
  while mc.used > mc.budget && !steps > 0 do
    decr steps;
    let p = mc.ring.(mc.hand) in
    if p != no_pblk then
      if p.mref then p.mref <- false
      else begin
        Atomic.incr mc.evictions;
        mc_release mc p
      end;
    mc.hand <- (mc.hand + 1) mod n
  done
[@@montage.allow
  "R2: the eviction counter is telemetry; the sweep itself runs under \
   mc_lock, whose acquire is the Sched-visible point"]

(* Charge [p]'s content against the budget, evicting above it.  Caller
   holds [mc_lock]; [p] is live and cold.  Payloads larger than the
   whole budget stay cold. *)
let mc_install mc (p : pblk) =
  if p.size <= mc.budget then begin
    if mc.nfree = 0 then begin
      let n = Array.length mc.ring in
      let ring = Array.make (2 * n) no_pblk in
      Array.blit mc.ring 0 ring 0 n;
      mc.ring <- ring;
      mc.free <- Array.init (2 * n) (fun i -> (2 * n) - 1 - i);
      mc.nfree <- n
    end;
    mc.nfree <- mc.nfree - 1;
    p.mslot <- mc.free.(mc.nfree);
    mc.ring.(p.mslot) <- p;
    p.mref <- true;
    mc.used <- mc.used + p.size;
    if mc.used > mc.budget then mc_evict_to_budget mc
  end

let with_cache t f =
  match t.warm with None -> () | Some mc -> Util.Spin_lock.with_lock mc.mc_lock (fun () -> f mc)

(* A cold read paid its load: the handle turns warm, unless a racing
   [pdelete] or copying [pset] retired it meanwhile (both clear [live]
   before they cool it, under this lock's order). *)
let warm_after_miss t ~stat_tid (p : pblk) =
  match t.warm with
  | None -> ()
  | Some mc ->
      Util.Padded.incr mc.misses stat_tid;
      Util.Spin_lock.with_lock mc.mc_lock (fun () -> if p.live && p.mslot < 0 then mc_install mc p)

(* A fresh payload ([pnew], the new version of a copying [pset]) is
   born warm: its content was just written. *)
let warm_born t p = with_cache t (fun mc -> mc_install mc p)

(* Cool a retired handle ([pdelete], the old version of a copying
   [pset]). *)
let cool t p = with_cache t (fun mc -> mc_release mc p)

(* Before a read: a warm handle counts a hit; a cold one pays the
   charged load of its whole content once and turns warm.  Without a
   warm set every read is charged. *)
let warm_up t ~stat_tid (p : pblk) =
  match t.warm with
  | Some mc when p.mslot >= 0 ->
      p.mref <- true;
      Util.Padded.incr mc.hits stat_tid
  | _ ->
      Nvm.Region.charge_read t.region ~off:(Payload_hdr.content_off p.off) ~len:p.size;
      warm_after_miss t ~stat_tid p

(* ---- the content seqlock ---- *)

(* An even generation: the content is not being stored in place. *)
let rec stable_gen (p : pblk) =
  let g = Atomic.get p.gen in
  if g land 1 = 0 then g
  else begin
    Util.Sched.await "esys.seqlock" (fun () -> Atomic.get p.gen land 1 = 0);
    stable_gen p
  end

(* Content bytes [pos, pos+len) of [p] copied out of the region,
   uncharged (the caller ran [warm_up]). *)
let read_content t (p : pblk) pos dst dst_off len =
  Nvm.Region.read_uncharged t.region ~off:(Payload_hdr.content_off p.off + pos) ~dst ~dst_off ~len

(* [decode size read pos dst dst_off len] over one version of [p]'s
   content: [size] and every copy [read] makes fall inside one seqlock
   window.  If an in-place store overlapped the window the decode runs
   again, also when the torn bytes made it raise; an exception raised
   over one whole version is the caller's.  The last four arguments
   are handed through unchanged, so a ranged copy ([preader]) is a
   decode of its own and allocates no closure per copy. *)
let rec in_window (p : pblk) read decode pos dst dst_off len =
  let g = stable_gen p in
  match decode p.size read pos dst dst_off len with
  | v when Atomic.get p.gen = g -> v
  | exception e when Atomic.get p.gen = g -> raise e
  | _ ->
      Util.Sched.yield "esys.seqlock.retry";
      in_window p read decode pos dst dst_off len
  | exception _ ->
      Util.Sched.yield "esys.seqlock.retry";
      in_window p read decode pos dst dst_off len

(* An in-place store of [len] content bytes into [p] is about to start:
   the generation turns odd, and the budget follows the new size.  The
   store warms the handle, as a fresh payload is born warm.
   [store_close] ends the window. *)
let store_open t (p : pblk) ~len =
  match t.warm with
  | None ->
      Atomic.incr p.gen;
      p.size <- len
  | Some mc ->
      Util.Spin_lock.with_lock mc.mc_lock (fun () ->
          Atomic.incr p.gen;
          if p.mslot >= 0 then begin
            mc.used <- mc.used + len - p.size;
            p.size <- len;
            p.mref <- true;
            if len > mc.budget then mc_release mc p
            else if mc.used > mc.budget then mc_evict_to_budget mc
          end
          else begin
            p.size <- len;
            mc_install mc p
          end)
[@@montage.allow
  "R2: the seqlock bump is one step of pset, whose Sched point \
   (esys.pset) precedes it; no Sched point falls inside the window, so \
   a scheduled reader never observes it odd, and real readers wait \
   through Sched.await in stable_gen"]

let store_close (p : pblk) = Atomic.incr p.gen
[@@montage.allow "R2: closes the window store_open opened, within the same pset step"]

type mirror_stats = { hits : int; misses : int; evictions : int; resident_bytes : int }

let mirror_stats t =
  match t.warm with
  | None -> { hits = 0; misses = 0; evictions = 0; resident_bytes = 0 }
  | Some mc ->
      {
        hits = Util.Padded.sum mc.hits;
        misses = Util.Padded.sum mc.misses;
        evictions = Atomic.get mc.evictions;
        resident_bytes = mc.used;
      }
[@@montage.allow "R2: read-only statistics observer"]

(* ---- write-back plumbing ----

   Cost discipline (see DESIGN.md "Substitutions"): an application
   thread is charged for work it would *wait* on — CLWB issue on its
   own full-ring write-backs, and the full flush when it is inside
   [sync].  Deferred work executed by the background advancer is
   semantically identical but uncharged: in the paper's deployment it
   runs on a dedicated core off every application critical path, and
   on this one-core simulator charging it would bill the application
   for exactly the cost Montage exists to hide. *)

(* Synchronous flush: CLWB + committing fence, fully charged.  Used by
   the DirWB reference configuration and by strict callers. *)
let flush_now t ~tid ~off ~len =
  Nvm.Region.writeback t.region ~tid ~off ~len;
  Nvm.Region.sfence t.region ~tid

(* Issue everything collected in [coal] as batched line write-backs on
   the caller's queue, then fence once.  The fence is skipped when the
   coalescer is empty (nothing to order — an empty fence is exactly the
   lint the coalesced path exists to remove). *)
let flush_coalesced t ~tid ~charged ~fence coal =
  if not (Wb_coalescer.is_empty coal) then begin
    let wb =
      if charged then Nvm.Region.writeback_lines else Nvm.Region.writeback_lines_uncharged
    in
    let ranges, lines_in, lines_out =
      Wb_coalescer.flush coal ~emit:(fun ~first ~lines -> wb t.region ~tid ~first ~lines)
    in
    Nvm.Region.note_coalesced t.region ~tid ~ranges ~lines_in ~lines_out;
    match fence with
    | `Sync -> Nvm.Region.sfence t.region ~tid
    | `Async -> Nvm.Region.sfence_async t.region ~tid
    | `None -> ()
  end

(* Test-only stall injection: invoked in the middle of every flush's
   vulnerable window — after records have been published but before
   the fence that makes them durable.  The Dsched wait-freedom suites
   and the stalled-worker bench park a thread here to show that an
   epoch advance or a [sync] completes without it.  Never set outside
   tests and benches. *)
let test_stall_in_drain : (unit -> unit) ref = ref (fun () -> ())

(* The owner-side flush of its own ring (full ring, Montage (dw)
   END_OP): publish the whole ring in place (records stay claimable — a
   concurrent advance that observes them simply flushes them too;
   write-backs of data still in the ring are idempotent), fence, and
   only then retire the published prefix.  There is never a moment when
   a record is out of the ring but not yet durable, so no advance ever
   waits on an owner's flush. *)
let publish_own_buffer t ~tid ~fence =
  let pt = t.threads.(tid) in
  let stop =
    Persist_buffer.publish pt.buffer (fun off len -> Wb_coalescer.add pt.coal ~off ~len)
  in
  !test_stall_in_drain ();
  flush_coalesced t ~tid ~charged:true ~fence pt.coal;
  Persist_buffer.retire_upto pt.buffer ~upto:stop;
  if Persist_buffer.is_empty pt.buffer then Mindicator.clear t.mind ~tid

(* Record that [off, off+len) must persist by the end of the current
   epoch.  Policy-dependent: buffered (default), direct (DirWB), or
   elided entirely for Montage (T). *)
let record_persist t ~tid ~off ~len =
  Util.Sched.yield "esys.record_persist";
  if t.cfg.Config.persist then
    match t.cfg.Config.writeback with
    | Config.Direct -> flush_now t ~tid ~off ~len
    | Config.Buffered ->
        let pt = t.threads.(tid) in
        Mindicator.announce t.mind ~tid ~epoch:pt.op_epoch;
        (* checker obligation: this range must reach media before
           epoch op_epoch + 2 (the buffered-durability contract) *)
        (match t.chk with
        | None -> ()
        | Some c -> Nvm.Pcheck.on_buffer_push c ~tid ~epoch:pt.op_epoch ~off ~len);
        (* ring full: flush the whole ring through the coalescer — one
           batched issue, one fence, each line at most once — and retire
           it, which makes room for the push *)
        if Persist_buffer.is_full pt.buffer then publish_own_buffer t ~tid ~fence:`Async;
        Persist_buffer.push pt.buffer ~off ~len

(* ---- reclamation ---- *)

(* Scrub a block's media header, then hand it back to the allocator.
   Scrubbing closes the block-recycling resurrection window (DESIGN.md);
   the write-back is collected in [coal] and flushed and fenced by the
   caller before the epoch clock moves. *)
let reclaim_block t ~tid ~coal off =
  Payload_hdr.scrub t.region ~off;
  Wb_coalescer.add coal ~off ~len:8;
  Ralloc.free t.alloc ~tid off

(* Claim and reclaim thread [owner]'s deferred frees that are ripe at
   [upto]: every (epoch, off) pair with epoch <= upto, where the caller
   guarantees the clock has reached upto + 2.  The whole cell is
   claimed with a single [Atomic.exchange] — scrub and free are not
   idempotent, so unlike payload write-backs this step must be owned by
   exactly one thread even when advances race — and unripe survivors
   are pushed back with a CAS loop against the owner's concurrent
   appends.  [upto] is a fixed epoch, not a clock-relative
   slot index, so a reclaimer delayed arbitrarily long still frees only
   blocks whose two-epoch quarantine had elapsed when it was computed.
   The scrubs' write-backs are collected in [coal]; the caller flushes
   and fences them. *)
(* Test-only stall injection for the reclamation scrub window: invoked
   after the ripe plain victims' scrubs have been issued (still
   volatile) but before the fence and the anti-payload scrubs.  A
   reclaimer parked here holds superseded old versions in exactly the
   state the anti-scrub barrier below exists for; the Dsched scrub
   suite crashes in this window and checks recovery never resurrects a
   masked victim.  Never set outside tests. *)
let test_stall_in_reclaim : (unit -> unit) ref = ref (fun () -> ())

let reclaim_ripe t ~tid ~coal ~charged ~owner ~upto =
  Util.Sched.yield "esys.reclaim";
  let cell = t.to_free.(owner) in
  match Atomic.exchange cell [] with
  | [] -> ()
  | all ->
      let ripe, keep = List.partition (fun (e, _, _) -> e <= upto) all in
      (if keep <> [] then
         let rec put_back () =
           let cur = Atomic.get cell in
           if not (Atomic.compare_and_set cell cur (keep @ cur)) then put_back ()
         in
         put_back ());
      (* Anti-scrub barrier.  An anti-payload masks its still-valid
         victim at recovery, so the anti's scrub must never reach media
         while the victim's scrub is still volatile — otherwise a crash
         resurrects the victim.  [pdelete] defers both at the same
         epoch, so one exchange claims the pair; here we scrub all
         plain victims first, fence, and only then store the anti
         scrubs.  The fence (not mere store order) matters: write-backs
         may complete independently per line, so without it a crash
         could persist the anti's line and drop the victim's. *)
      let antis, plains = List.partition (fun (_, _, anti) -> anti) ripe in
      List.iter (fun (_, off, _) -> reclaim_block t ~tid ~coal off) plains;
      !test_stall_in_reclaim ();
      if antis <> [] then begin
        if plains <> [] then
          flush_coalesced t ~tid ~charged ~fence:(if charged then `Sync else `Async) coal;
        List.iter (fun (_, off, _) -> reclaim_block t ~tid ~coal off) antis
      end

(* Worker-local reclamation (+LocalFree in Fig. 4): at begin_op, a
   thread entering epoch e reclaims its own garbage that is ripe at
   e − 2.  The epoch tags on the deferred list subsume the paper's
   window formula — any entry at least two epochs old is safe. *)
let reclaim_local t ~tid =
  let pt = t.threads.(tid) in
  if pt.last_epoch > 0 && pt.op_epoch > pt.last_epoch then begin
    let upto = pt.op_epoch - 2 in
    (* worker-side reclamation dilates the critical path: charged *)
    reclaim_ripe t ~tid ~coal:pt.coal ~charged:true ~owner:tid ~upto;
    flush_coalesced t ~tid ~charged:true ~fence:`Sync pt.coal
  end

(* ---- operations ---- *)

let begin_op t ~tid =
  Util.Sched.yield "esys.begin_op";
  let pt = t.threads.(tid) in
  let rec register () =
    let e = Atomic.get t.curr_epoch in
    Tracker.register t.tracker ~tid ~epoch:e;
    if Atomic.get t.curr_epoch <> e then register () else e
  in
  let e = register () in
  pt.op_epoch <- e;
  if t.cfg.Config.persist && t.cfg.Config.reclaim = Config.Workers then reclaim_local t ~tid;
  pt.last_epoch <- e

let end_op t ~tid =
  Util.Sched.yield "esys.end_op";
  let pt = t.threads.(tid) in
  pt.op_epoch <- 0;
  Tracker.unregister t.tracker ~tid;
  (* Montage (dw): the worker writes back everything at the end of each
     operation — fully charged, it waits for the flush.  The operation
     completes *before* the flush: its records are in the ring, where
     any helper can claim them, so an epoch advance (or a peer's sync)
     racing this flush finishes it instead of waiting for us — and the
     tracker no longer counts us, so quiescence cannot stall on a
     thread that is merely flushing. *)
  if t.cfg.Config.drain_on_end_op && t.cfg.Config.persist then
    publish_own_buffer t ~tid ~fence:`Sync

let with_op t ~tid f =
  begin_op t ~tid;
  Fun.protect ~finally:(fun () -> end_op t ~tid) f

let check_epoch t ~tid =
  if Atomic.get t.curr_epoch <> t.threads.(tid).op_epoch then raise Errors.Epoch_changed
[@@montage.allow
  "R2: validation read inside an operation; every caller is an op body \
   that opened with a Sched point in begin_op (esys.begin_op)"]

let require_op t ~tid =
  if t.threads.(tid).op_epoch = 0 then
    invalid_arg "Montage: payload mutation outside BEGIN_OP/END_OP"

let osn_check t ~tid p =
  let oe = t.threads.(tid).op_epoch in
  if oe <> 0 && p.epoch > oe then raise Errors.Old_see_new

(* ---- payload lifecycle ---- *)

let fresh_uid t = Atomic.fetch_and_add t.uid_counter 1
[@@montage.allow
  "R2: uid allocation commutes with everything; no interleaving of the \
   fetch-and-add is observable beyond the uid value itself"]

(* Declare to the checker that [tid] is about to store [off, off+len)
   and hand the range to [record_persist] right after: the push forgives
   a store racing another thread's queued write-back of the same line,
   and the declaration closes the window between the store and the push
   (see [Pcheck.on_rewrite]). *)
let rewrite_begin t ~tid ~off ~len =
  match t.chk with
  | Some c when t.cfg.Config.persist -> Nvm.Pcheck.on_rewrite c ~tid ~off ~len
  | _ -> ()

let write_payload t ~off hdr (content : fill) =
  Payload_hdr.write t.region ~off hdr;
  Nvm.Region.write_with t.region ~off:(Payload_hdr.content_off off) ~len:content.len content.write

let fill_bytes b =
  let len = Bytes.length b in
  { len; write = (fun dst off -> Bytes.blit b 0 dst off len) }

let fresh_handle ~off ~uid ~epoch ~size =
  {
    off;
    uid;
    epoch;
    size;
    live = true;
    mref = false;
    mslot = -1;
    gen = Atomic.make 0;
  }

let pnew_fill t ~tid (content : fill) =
  Util.Sched.yield "esys.pnew";
  require_op t ~tid;
  let pt = t.threads.(tid) in
  let size = content.len in
  let uid = fresh_uid t in
  let off = Ralloc.alloc t.alloc ~tid ~size:(Payload_hdr.header_size + size) in
  rewrite_begin t ~tid ~off ~len:(Payload_hdr.header_size + size);
  write_payload t ~off { Payload_hdr.ptype = Alloc; epoch = pt.op_epoch; uid; size } content;
  record_persist t ~tid ~off ~len:(Payload_hdr.header_size + size);
  let p = fresh_handle ~off ~uid ~epoch:pt.op_epoch ~size in
  warm_born t p;
  p

let pnew t ~tid content = pnew_fill t ~tid (fill_bytes content)

let check_live p = if not p.live then raise Errors.Use_after_free

(* The typed read entry points: the checks and the load of [pget]
   (paid once, if [p] is cold), then [decode] in one seqlock window. *)
let decode_whole t p decode =
  in_window p (read_content t p) (fun size read _ _ _ _ -> decode size read) 0 Bytes.empty 0 0

let pdecode t ~tid p decode =
  Util.Sched.yield "esys.pget";
  check_live p;
  osn_check t ~tid p;
  warm_up t ~stat_tid:tid p;
  decode_whole t p decode

let pdecode_unsafe t p decode =
  check_live p;
  warm_up t ~stat_tid:(untracked_slot t) p;
  decode_whole t p decode

let copy_all size read =
  let b = Bytes.create size in
  read 0 b 0 size;
  b

let pget t ~tid p = pdecode t ~tid p copy_all
let pget_unsafe t p = pdecode_unsafe t p copy_all

let copy_range size read pos dst dst_off len =
  if pos < 0 || len < 0 || pos + len > size then
    invalid_arg
      (Printf.sprintf "Epoch_sys.preader: [%d, %d) outside a %d-byte payload" pos (pos + len)
         size);
  read pos dst dst_off len

(* A reader of the content in place, for a caller that copies what it
   needs straight to its destination (a reply buffer) instead of taking
   a whole copy.  The load is paid here, once, exactly as [pget] pays
   it; each copy is then uncharged and a window of its own. *)
let preader t ~tid p =
  Util.Sched.yield "esys.pget";
  check_live p;
  osn_check t ~tid p;
  warm_up t ~stat_tid:tid p;
  in_window p (read_content t p) copy_range

(* Bounded read of content bytes [pos, pos+len): charged for the lines
   that range covers and nothing else.  It leaves the handle exactly as
   it found it — cold stays cold — so a recovery rebuild that reads
   only index fields hands the structure cold handles, and the first
   real [pget] pays the full load and warms it. *)
let pread_unsafe t p ~pos ~len =
  check_live p;
  if pos < 0 || len < 0 || pos + len > p.size then
    invalid_arg
      (Printf.sprintf "Epoch_sys.pread_unsafe: [%d, %d) outside a %d-byte payload" pos (pos + len)
         p.size);
  let buf = Bytes.create len in
  if len > 0 then
    Nvm.Region.read t.region ~off:(Payload_hdr.content_off p.off + pos) ~dst:buf ~dst_off:0 ~len;
  buf

(* Free a payload bypassing the epoch protocol — used by Montage (T)
   and the DirFree reference configuration, which sacrifice crash
   consistency for a performance ceiling. *)
let free_immediately t ~tid off =
  Payload_hdr.scrub t.region ~off;
  Ralloc.free t.alloc ~tid off

(* Defer [off] for reclamation once the clock reaches [epoch] + 2.
   CAS append: the owner is the only pusher, but a reclaimer's
   push-back of unripe survivors ([reclaim_ripe]) can race it.
   [anti] marks anti-payload blocks for [reclaim_ripe]'s scrub
   ordering. *)
let defer_free ?(anti = false) t ~tid ~epoch off =
  Util.Sched.yield "esys.defer_free";
  let cell = t.to_free.(tid) in
  let rec add () =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur ((epoch, off, anti) :: cur)) then add ()
  in
  add ()

let block_fits t ~off ~content_len =
  Payload_hdr.header_size + content_len <= Ralloc.block_size t.alloc off

let pset_fill t ~tid p (content : fill) =
  Util.Sched.yield "esys.pset";
  require_op t ~tid;
  check_live p;
  osn_check t ~tid p;
  let pt = t.threads.(tid) in
  let len = content.len in
  let in_place_ok =
    block_fits t ~off:p.off ~content_len:len
    && ((not t.cfg.Config.persist) || p.epoch = pt.op_epoch)
  in
  if in_place_ok then begin
    (* The stores run inside the seqlock window: a lock-free reader
       copying across them sees the generation move and retries.  The
       window closes even if the fill raises, so no reader waits on it
       forever. *)
    store_open t p ~len;
    (match
       rewrite_begin t ~tid ~off:p.off ~len:(Payload_hdr.header_size + len);
       Nvm.Region.set_i32 t.region ~off:(p.off + 24) len;
       Nvm.Region.write_with t.region ~off:(Payload_hdr.content_off p.off) ~len content.write
     with
    | () -> store_close p
    | exception e ->
        store_close p;
        raise e);
    record_persist t ~tid ~off:p.off ~len:(Payload_hdr.header_size + len);
    p
  end
  else begin
    (* copying update: new block, same uid, current epoch; the old
       version is reclaimable two epochs from now *)
    let off = Ralloc.alloc t.alloc ~tid ~size:(Payload_hdr.header_size + len) in
    rewrite_begin t ~tid ~off ~len:(Payload_hdr.header_size + len);
    write_payload t ~off
      { Payload_hdr.ptype = Update; epoch = pt.op_epoch; uid = p.uid; size = len }
      content;
    record_persist t ~tid ~off ~len:(Payload_hdr.header_size + len);
    let old_off = p.off in
    p.live <- false;
    cool t p;
    if (not t.cfg.Config.persist) || t.cfg.Config.direct_free then free_immediately t ~tid old_off
    else defer_free t ~tid ~epoch:pt.op_epoch old_off;
    (* the warmth carries across the copying update: the fresh handle's
       content was just written *)
    let fresh = fresh_handle ~off ~uid:p.uid ~epoch:pt.op_epoch ~size:len in
    warm_born t fresh;
    fresh
  end

let pset t ~tid p content = pset_fill t ~tid p (fill_bytes content)

let pdelete t ~tid p =
  Util.Sched.yield "esys.pdelete";
  require_op t ~tid;
  check_live p;
  osn_check t ~tid p;
  let pt = t.threads.(tid) in
  p.live <- false;
  cool t p;
  if (not t.cfg.Config.persist) || t.cfg.Config.direct_free then
    free_immediately t ~tid p.off
  else if p.epoch = pt.op_epoch then begin
    match Payload_hdr.read t.region ~off:p.off ~block_size:(Ralloc.block_size t.alloc p.off) with
    | Some { ptype = Alloc; _ } ->
        (* Created this epoch: it was never visible to recovery.  Scrub
           (the scrub line rides the persist buffer in case the create
           was incrementally written back) and free immediately. *)
        rewrite_begin t ~tid ~off:p.off ~len:8;
        Payload_hdr.scrub t.region ~off:p.off;
        record_persist t ~tid ~off:p.off ~len:8;
        Ralloc.free t.alloc ~tid p.off
    | Some _ ->
        (* An UPDATE from this epoch: turn the block into its own
           anti-payload in place; it is reclaimed at op_epoch + 3 like
           any anti-payload.  (The superseded older version is already
           in to_free from the copying update.) *)
        rewrite_begin t ~tid ~off:p.off ~len:8;
        Payload_hdr.set_type t.region ~off:p.off Delete;
        record_persist t ~tid ~off:p.off ~len:8;
        defer_free ~anti:true t ~tid ~epoch:(pt.op_epoch + 1) p.off
    | None ->
        Errors.corrupt
          "epoch_sys: pdelete: live payload uid=%d at off=%d born this epoch \
           (%d) has an unreadable header"
          p.uid p.off pt.op_epoch
  end
  else begin
    (* Deleting a payload from an earlier epoch: publish an anti-payload
       labeled with the current epoch; if the crash cut falls between
       them, recovery sees the original without the anti and keeps it —
       exactly the buffered-durability contract. *)
    let anti = Ralloc.alloc t.alloc ~tid ~size:Payload_hdr.header_size in
    rewrite_begin t ~tid ~off:anti ~len:Payload_hdr.header_size;
    Payload_hdr.write t.region ~off:anti
      { Payload_hdr.ptype = Delete; epoch = pt.op_epoch; uid = p.uid; size = 0 };
    record_persist t ~tid ~off:anti ~len:Payload_hdr.header_size;
    (* The victim is deferred at the anti's epoch, not its own: the two
       scrubs must be claimed by one [reclaim_ripe] exchange so the
       anti-scrub barrier there can order them.  A reclaimer can stall
       between its scrub stores and its fence while further ticks
       proceed; if the victim were ripe one tick earlier, a later tick
       could durably scrub the anti while the victim's scrub is still
       volatile in the stalled helper — after a crash, recovery would
       see the victim without its anti and resurrect it. *)
    defer_free ~anti:true t ~tid ~epoch:(pt.op_epoch + 1) anti;
    defer_free t ~tid ~epoch:(pt.op_epoch + 1) p.off
  end

(* ---- epoch advance ---- *)

(* One helped tick e → e+1 (nbMontage, Cai et al. — PAPERS.md).  Any
   number of threads may run this concurrently for the same [e]; there
   is no advance lock and no waiting on another thread's flush:

     quiesce e−1 → publish + fence every ring → retire the published
     records → CAS the persistent clock e → e+1 → persist it → CAS the
     transient clock (the winner reports to the checker and reclaims)

   Safety: every thread that attempts the clock CAS has *itself*
   written back and fenced all records due at this tick first, so
   whichever attempt wins, the media clock never moves past an
   unflushed payload.  Records pushed after a publication snapshot
   belong to epoch ≥ e (quiescence on e−1 already happened) and are due
   only at e+2.  Helping is idempotent by construction: a publication
   re-issues line write-backs of data still in the ring — never a
   payload store — so two helpers racing over the same ring at worst
   flush a line twice.  The one non-idempotent step, scrub + free of
   deferred blocks, is claimed by a single [Atomic.exchange] inside
   [reclaim_ripe] and performed only by the transient-CAS winner, with
   the conservative bound e−1: ripe at the clock value e+1 the winner
   just installed, and still ripe under any later clock if the winner
   is delayed, so helping never double-frees.

   Liveness: no step waits on another thread except the initial
   quiescence on epochs ≤ e−2 (bounded by operation length, and absent
   entirely for a peer parked *between* ops or inside a flush —
   unregistered threads are invisible to the tracker, and their ring
   records are claimable, so the helper flushes them itself).
   Publication is bounded by ring capacity, retirement by the
   published count, and each clock CAS is one attempt with no retry
   loop. *)
let tick t ~tid ~charged =
  Util.Sched.yield "esys.advance";
  let e = Atomic.get t.curr_epoch in
  Tracker.wait_all t.tracker ~epoch:(e - 1);
  Util.Sched.yield "esys.advance.quiesced";
  (* a helper may have completed this very tick while we quiesced; the
     caller's contract (clock strictly past the epoch it observed)
     already holds, so do not push it an extra tick *)
  if Atomic.get t.curr_epoch = e then begin
    let nw = t.cfg.Config.max_threads in
    let coal = t.threads.(tid).coal in
    let fence = if charged then `Sync else `Async in
    if t.cfg.Config.persist then begin
      (* publication pass: emit every owner's ring without consuming *)
      let stops =
        Array.init nw (fun owner ->
            Persist_buffer.publish t.threads.(owner).buffer (fun off len ->
                Wb_coalescer.add coal ~off ~len))
      in
      !test_stall_in_drain ();
      (* one fence covers every owner's published write-backs *)
      flush_coalesced t ~tid ~charged ~fence coal;
      (* fenced: retire each published prefix and update the owner's
         mindicator leaf — records still in a ring (pushed after our
         snapshot) belong to epoch >= e *)
      for owner = 0 to nw - 1 do
        let buf = t.threads.(owner).buffer in
        Persist_buffer.retire_upto buf ~upto:stops.(owner);
        if Persist_buffer.is_empty buf then Mindicator.clear t.mind ~tid:owner
        else Mindicator.retire t.mind ~tid:owner ~epoch:e
      done;
      Util.Sched.yield "esys.advance.clock_store";
      (* helpers race on the persistent clock; exactly one CAS installs
         e+1 and a stale attempt fails harmlessly (the media clock is
         monotone).  The write-back + fence after it is idempotent and
         issued by *every* attempter, so even if the winner stalls
         right after its CAS, any helper's fence makes the new clock
         durable. *)
      ignore (Nvm.Region.cas_i64 t.region ~off:clock_off ~expected:e ~desired:(e + 1));
      Nvm.Region.persist t.region ~tid ~off:clock_off ~len:8
    end;
    Util.Sched.yield "esys.advance.clock_persisted";
    if Atomic.compare_and_set t.curr_epoch e (e + 1) then begin
      (* transient-CAS winner: report the tick and reclaim ripe frees *)
      (match t.chk with
      | None -> ()
      | Some c -> Nvm.Pcheck.on_epoch_advance c ~epoch:(e + 1));
      Atomic.incr t.advances;
      if
        t.cfg.Config.persist
        && t.cfg.Config.reclaim = Config.Background
        && not t.cfg.Config.direct_free
      then begin
        for owner = 0 to nw - 1 do
          reclaim_ripe t ~tid ~coal ~charged ~owner ~upto:(e - 1)
        done;
        flush_coalesced t ~tid ~charged ~fence coal
      end
    end
  end

(* Background/default advance: the advancer's device traffic is not
   billed to application time (dedicated-core assumption). *)
let advance_epoch t ~tid = tick t ~tid ~charged:false

(* Report a DCSS decision to the checker (called by Everify with the
   clock value the decision was computed from). *)
let note_linearize t ~epoch ~clock ~success =
  match t.chk with
  | None -> ()
  | Some c -> Nvm.Pcheck.on_linearize c ~epoch ~clock ~success

(* Force buffered work durable: everything that completed before this
   call survives any later crash.  Mirrors fsync: two epoch advances
   move the persistence frontier past all completed operations.  The
   caller helps with the write-backs and *waits* for them (paper §5.2),
   so sync is fully charged.

   This is wait-free with respect to peers that are between
   operations: each helped tick does a bounded amount of the caller's
   own work (publish every ring, fence, one CAS each on the persistent
   and transient clocks) and never waits on a stalled peer's flush —
   the caller flushes the peer's claimable records
   itself.  If the first tick the caller attempts was already completed
   by a concurrent helper, the clock still ends at least two past the
   epoch of every operation completed before this call, which is the
   durability contract.  The only wait is [Tracker.wait_all] on ops
   still *inside* their begin/end window from two epochs back — a
   quiescence condition no sync can soundly skip. *)
let sync t ~tid =
  tick t ~tid ~charged:true;
  tick t ~tid ~charged:true

(* The durable frontier: recovery after a crash in epoch e restores
   exactly the payloads of epochs <= e - 2, so that is what is durable
   right now.  [sync] advances twice precisely to push this frontier
   past every already-completed operation. *)
let persisted_epoch t = Atomic.get t.curr_epoch - 2
[@@montage.allow "R2: read-only observer of the durable frontier"]

(* ---- background advancer ---- *)

let start_background t =
  if t.bg = None && t.cfg.Config.auto_advance then begin
    Atomic.set t.stop_bg false;
    let period_s = float_of_int t.cfg.Config.epoch_length_ns /. 1e9 in
    let tid = advancer_tid t.cfg in
    t.bg <-
      Some
        (Domain.spawn (fun () ->
             while not (Atomic.get t.stop_bg) do
               (Unix.sleepf period_s
               [@montage.allow
                 "R5: pacing sleep on the dedicated background-advancer \
                  domain; it never runs inside an operation or under \
                  Dsched"]);
               if not (Atomic.get t.stop_bg) then advance_epoch t ~tid
             done))
  end
[@@montage.allow
  "R2: lifecycle flags for the background advancer domain, which is \
   started from the control thread and never runs under Dsched"]

let stop_background t =
  match t.bg with
  | None -> ()
  | Some d ->
      Atomic.set t.stop_bg true;
      Domain.join d;
      t.bg <- None
[@@montage.allow
  "R2: lifecycle flag handshake with the background advancer domain; \
   control-thread only, never under Dsched"]

let sync_checker_clock t =
  match t.chk with
  | None -> ()
  | Some c -> Nvm.Pcheck.on_epoch_advance c ~epoch:(Atomic.get t.curr_epoch)
[@@montage.allow
  "R2: checker-clock observer; runs at create/advance boundaries, not \
   inside operation bodies"]

let create ?(config = Config.default) region =
  let t = make_state region config in
  if Nvm.Region.get_i64 region ~off:clock_off = 0 then begin
    Nvm.Region.set_i64 region ~off:clock_off initial_epoch;
    Nvm.Region.persist region ~tid:0 ~off:clock_off ~len:8
  end
  else Atomic.set t.curr_epoch (Nvm.Region.get_i64 region ~off:clock_off);
  sync_checker_clock t;
  start_background t;
  t
[@@montage.allow
  "R2: initialization before the instance is shared with any worker"]

(* ---- recovery ---- *)

(* The recovery scan's winners: an open-addressing uid -> value table
   over two int arrays (linear probing, power-of-two capacity, at most
   half full; uid 0 marks an empty slot since uids start at 1).  The
   value is the winning block's offset shifted left once, with the
   DELETE flag in the low bit.  The flag is kept here because the
   winner's own header cannot be trusted after the sweep: a swept
   block goes onto a free list, whose link overwrites its first 8
   bytes — the magic and the type.  Inserting allocates nothing, so the
   scan allocates per table growth, not per block. *)
module Uid_table = struct
  (* Owned by one domain at a time: its slice's scan, then the merging
     thread after the join.  The sweep domains only read it. *)
  type t = {
    mutable uids : int array; [@montage.thread_local]
    mutable vals : int array; [@montage.thread_local]
    mutable count : int; [@montage.thread_local]
    mutable max_uid : int; [@montage.thread_local]
  }

  let create () = { uids = Array.make 1024 0; vals = Array.make 1024 0; count = 0; max_uid = 0 }

  (* Multiplicative hashing: uids are dense integers, and the bits of
     their product with an odd constant above bit 20 spread runs of
     them across the table. *)
  let home uids uid = (uid * 0x9E3779B97F4A7C1) lsr 20 land (Array.length uids - 1)

  (* The slot holding [uid], or the empty slot where it belongs. *)
  let rec probe uids uid i =
    let u = Array.unsafe_get uids i in
    if u = uid || u = 0 then i else probe uids uid ((i + 1) land (Array.length uids - 1))

  let find_slot uids uid = probe uids uid (home uids uid)

  let grow t =
    let uids = t.uids and vals = t.vals in
    let n = 2 * Array.length uids in
    t.uids <- Array.make n 0;
    t.vals <- Array.make n 0;
    Array.iteri
      (fun i uid ->
        if uid <> 0 then begin
          let j = find_slot t.uids uid in
          t.uids.(j) <- uid;
          t.vals.(j) <- vals.(i)
        end)
      uids

  (* Keep [value] for [uid] unless the incumbent's epoch, read from its
     (not yet swept) header, is at least [epoch]: the first block seen
     wins a tie. *)
  let offer t region ~uid ~epoch value =
    let i = find_slot t.uids uid in
    if t.uids.(i) = 0 then begin
      t.uids.(i) <- uid;
      t.vals.(i) <- value;
      t.count <- t.count + 1;
      if 2 * t.count > Array.length t.uids then grow t
    end
    else if Payload_hdr.epoch_at region ~off:(t.vals.(i) lsr 1) < epoch then t.vals.(i) <- value

  (* Fold [src]'s winners into [t]. *)
  let merge t region src =
    if src.max_uid > t.max_uid then t.max_uid <- src.max_uid;
    Array.iteri
      (fun i uid ->
        if uid <> 0 then begin
          let v = src.vals.(i) in
          offer t region ~uid ~epoch:(Payload_hdr.epoch_at region ~off:(v lsr 1)) v
        end)
      src.uids

  (* One probe: is the block at [off] its uid's winner, and not a
     DELETE?  A block that holds no header reads as some uid whose
     winner, if any, sits elsewhere. *)
  let live t region off =
    let uid = Payload_hdr.uid_at region ~off in
    uid > 0 && t.vals.(find_slot t.uids uid) = off lsl 1
end

(* Rebuild an epoch system from a crashed region and return handles to
   every surviving payload.  A payload survives when it is the newest
   version of its uid with epoch ≤ crash_epoch − 2 and that version is
   not an anti-payload.  Dead blocks are scrubbed and returned to the
   allocator.

   [threads] parallelizes both passes over disjoint superblock slices
   (the paper's §6.4 names recovery scalability as future work; the
   heap partitioning makes both the header scan and the sweep
   embarrassingly parallel, with one sequential merge of the slices'
   uid tables between them).  The per-block work reads header fields
   in place and allocates nothing; allocation is per survivor. *)
let recover ?(config = Config.default) ?(threads = 1) region =
  let clock = Nvm.Region.get_i64 region ~off:clock_off in
  let cutoff = clock - 2 in
  let t = make_state region config in
  Atomic.set t.curr_epoch (max clock initial_epoch);
  sync_checker_clock t;
  (* Every header read below — scan, merge, sweep and the survivors'
     fields — happens inside this window.  They read every block,
     including ones whose lines persisted without a fence (injection);
     the epoch cutoff filters those out, so the reads are sound — tell
     the checker this is a declared recovery scan. *)
  (match t.chk with Some c -> Nvm.Pcheck.set_recovery_scan c true | None -> ());
  Ralloc.rescan t.alloc;
  let threads = max 1 (min threads (Nvm.Region.max_threads region)) in
  let parallel f =
    if threads = 1 then [| f 0 |]
    else Array.init threads (fun s -> Domain.spawn (fun () -> f s)) |> Array.map Domain.join
  in
  (* pass 1: newest qualifying version per uid, per slice *)
  let scan_slice slice =
    let tbl = Uid_table.create () in
    Ralloc.iter_blocks_slice t.alloc ~slice ~slices:threads (fun ~off ~size ->
        let code = Payload_hdr.type_code region ~off ~block_size:size in
        if code >= 0 then begin
          let uid = Payload_hdr.uid_at region ~off in
          if uid > tbl.max_uid then tbl.max_uid <- uid;
          let epoch = Payload_hdr.epoch_at region ~off in
          if epoch <= cutoff then
            Uid_table.offer tbl region ~uid ~epoch
              ((off lsl 1) lor Bool.to_int (code = Payload_hdr.delete_code))
        end);
    tbl
  in
  let tables = parallel scan_slice in
  (* sequential merge of the per-slice winners, in slice order *)
  let best = tables.(0) in
  for s = 1 to threads - 1 do
    Uid_table.merge best region tables.(s)
  done;
  Atomic.set t.uid_counter (best.max_uid + 1);
  (* pass 2: sweep; losers and anti-payloads are scrubbed and freed *)
  let sweep_slice slice =
    Ralloc.sweep_slice t.alloc ~slice ~slices:threads ~live:(fun off ->
        let live = Uid_table.live best region off in
        if not live then begin
          Payload_hdr.scrub region ~off;
          Nvm.Region.writeback region ~tid:slice ~off ~len:8
        end;
        live);
    Nvm.Region.sfence region ~tid:slice
  in
  ignore (parallel sweep_slice);
  (* hand surviving payloads back as first-class handles, straight from
     the table: a DELETE winner is known by its flag, never by its
     swept header.  Recovered handles start cold: nothing is warm in
     the new run until its first read pays the load from media. *)
  let live_winners = ref 0 in
  Array.iteri (fun i uid -> if uid <> 0 && best.vals.(i) land 1 = 0 then incr live_winners) best.uids;
  (* [caml_make_vect] forces a minor collection when a large array's
     initial value is young, as [Array.init]'s first handle always is;
     [no_pblk] is old once any minor collection has run since start-up *)
  let payloads = Array.make !live_winners no_pblk in
  let next = ref 0 in
  for i = 0 to Array.length best.uids - 1 do
    let uid = best.uids.(i) in
    if uid <> 0 && best.vals.(i) land 1 = 0 then begin
      let off = best.vals.(i) lsr 1 in
      payloads.(!next) <-
        {
          off;
          uid;
          epoch = Payload_hdr.epoch_at region ~off;
          size = Payload_hdr.size_at region ~off;
          live = true;
          mref = false;
          mslot = -1;
          gen = Atomic.make 0;
        };
      incr next
    end
  done;
  (match t.chk with Some c -> Nvm.Pcheck.set_recovery_scan c false | None -> ());
  start_background t;
  (t, payloads)
[@@montage.allow
  "R2: recovery initializes the clock and uid counter before the \
   instance is shared; the parallel scan and sweep domains are joined \
   before return"]

(* Split recovered payloads into [k] slices for parallel rebuilding, as
   the paper's recovery API offers (§5.1). *)
let slices payloads ~k =
  let n = Array.length payloads in
  let k = max 1 (min k n) in
  Array.init k (fun i ->
      let lo = i * n / k and hi = (i + 1) * n / k in
      Array.sub payloads lo (hi - lo))
