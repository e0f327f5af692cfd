(* Simulated byte-addressable persistent memory.

   The region keeps one full copy of its contents, [work]: what loads
   and stores observe (the union of CPU caches and the device, as
   running code sees it).  What survives a crash — the media — is kept
   implicitly, line by line:

   - [base]      — an immutable image the region started from (the
                   caller's, never copied; [""] for a fresh region);
                   bytes past its end are zeros;
   - [media]     — uninitialized storage holding only lines committed
                   since the region was built;
   - [committed] — one byte per line saying where [media] is valid.

   A line's durable content is [media] where committed, [base]
   otherwise.  Every path that changes durable content writes [media]
   and sets the map in the same step, so the one reader of durable
   content ([blit_durable]) sees exactly what a second full media copy
   would hold, and never reads a [media] byte that was not written.

   [work] itself is loaded lazily, line by line, as a DAX mapping reads
   the heap in place: a line of [state] is clean, dirty or unloaded.
   An unloaded line's [work] bytes are garbage and its current content
   is its durable content.  A fresh region starts with every line
   loaded (and zero); [of_image] and [crash] leave every line unloaded
   and copy nothing.  Every accessor loads the unloaded lines it
   touches ([touch]) before it reads or stores them.  Loads are not
   charged: a mapped heap copies nothing on first touch, the touch is
   the device read, and the latency model already charges device reads
   where it always has (payload reads; scalar metadata stays
   uncharged).

   Stores mutate [work] and mark the covered 64 B lines dirty.  A
   [writeback] (CLWB analog) enqueues lines on the *issuing thread's*
   write-pending queue; [sfence] drains that queue into media.  This
   mirrors x86 semantics, where SFENCE orders only the issuing CPU's
   stores.  [crash] discards [work] (every line unloaded again) so that
   only fenced data survives; optional injection parameters let tests
   model lines that persisted despite a missing fence (completed CLWBs)
   or spontaneous cache evictions of dirty lines, both of which real
   hardware permits.

   Thread-safety discipline: distinct threads may concurrently access
   *disjoint* line ranges (the data-structure layer guarantees
   ownership, exactly as it must on real hardware).  First touches are
   the exception: cold readers and 8-byte writers may share a line, so
   loading is safe under any race (see [load_lines]).  [crash] and
   [recover_*] require quiescence. *)

let line_size = 64
let line_shift = 6

type t = {
  capacity : int;
  work : Bytes.t;
  base : string; (* at most [capacity] bytes; zeros past its end *)
  media : Bytes.t; (* valid only on committed lines *)
  committed : Bytes.t; (* one byte per line; 0 = durable content in [base] *)
  state : Bytes.t; (* one byte per line: [clean], [dirty] or [unloaded] *)
  (* how many lines are [unloaded]; at 0, [touch_lines] skips [state] *)
  mutable unloaded_lines : int
      [@montage.guarded_by "load_lock (crash and construction run alone; see load_lines)"];
  (* per-thread write-pending queues of packed (line_off << 15 | lines)
     ranges: payload flushes are contiguous, so committing a range with
     one blit beats per-line bookkeeping.  Each starts small and doubles
     on demand up to [queue_capacity], where it drains early. *)
  queues : int array array;
  queue_len : int array;
  queue_lines : int array; (* total pending lines, for fence costing *)
  latency : Latency.t;
  max_threads : int;
  (* statistics, per-thread padded to avoid false sharing *)
  stat_writebacks : Util.Padded.counters;
  stat_fences : Util.Padded.counters;
  stat_lines_persisted : Util.Padded.counters;
  (* write-back coalescing: records fed to the dedup layer, lines they
     covered before merging, lines actually flushed after merging *)
  stat_coalesce_ranges : Util.Padded.counters;
  stat_coalesce_lines_in : Util.Padded.counters;
  stat_coalesce_lines_out : Util.Padded.counters;
  (* lines whose charged load latency was actually paid ([charge_read]
     has no tid, so this is a single shared counter; the add is noise
     next to the 25 ns/line busy-wait it rides on) *)
  stat_lines_read : int Atomic.t;
  (* opt-in persistency-ordering checker; [None] is the fast path (one
     branch per primitive, no allocation).  Written once during test
     setup, before the region is shared with worker domains. *)
  mutable checker : Pcheck.t option
      [@montage.guarded_by "set-up-before-sharing (enable_pcheck precedes domain spawn)"];
  (* serializes [cas_i64]'s read-check-write; see its comment *)
  cas_lock : Mutex.t;
  (* serializes first touches; see [load_lines] *)
  load_lock : Mutex.t;
}

let clean = '\000'
let dirty = '\001'
let unloaded = '\002'

let queue_capacity = 4096

(* A queue's first allocation: most regions (every model-checked
   scenario builds one) never queue more than a few ranges per fence. *)
let queue_initial = 16

let round_capacity capacity = (capacity + line_size - 1) land lnot (line_size - 1)

(* The one constructor: [work] is the caller's, over the full rounded
   capacity, with every line in [state] — [clean] when [work] already
   holds the region's initial bytes, [unloaded] when they are still
   only in [base], the durable image.  Nothing is committed yet, so
   [media] is never read before it is written and needs no fill. *)
let make ~latency ~max_threads ~capacity ~work ~state ~base =
  let lines = capacity lsr line_shift in
  {
    capacity;
    work;
    base;
    media = Bytes.create capacity;
    committed = Bytes.make lines '\000';
    state = Bytes.make lines state;
    unloaded_lines = (if state = unloaded then lines else 0);
    queues = Array.init max_threads (fun _ -> Array.make queue_initial 0);
    queue_len = Array.make max_threads 0;
    queue_lines = Array.make max_threads 0;
    latency;
    max_threads;
    stat_writebacks = Util.Padded.make_counters max_threads;
    stat_fences = Util.Padded.make_counters max_threads;
    stat_lines_persisted = Util.Padded.make_counters max_threads;
    stat_coalesce_ranges = Util.Padded.make_counters max_threads;
    stat_coalesce_lines_in = Util.Padded.make_counters max_threads;
    stat_coalesce_lines_out = Util.Padded.make_counters max_threads;
    stat_lines_read = Atomic.make 0;
    checker = None;
    cas_lock = Mutex.create ();
    load_lock = Mutex.create ();
  }

let create ?(latency = Latency.default) ?(max_threads = 64) ~capacity () =
  if capacity <= 0 then invalid_arg "Region.create: capacity";
  let capacity = round_capacity capacity in
  make ~latency ~max_threads ~capacity ~work:(Bytes.make capacity '\000') ~state:clean ~base:""

(* Reconstruct a region from a raw media image (e.g. one of the crash
   states materialized by [Pcheck.explore]): the store view and the
   durable state both start as the image — exactly the post-restart
   view after the crash that produced it.  The image becomes [base] as
   it is and every line of [work] starts unloaded, so a restart copies
   nothing: each line is loaded when it is first touched. *)
let of_image ?(latency = Latency.default) ?(max_threads = 64) image =
  let len = String.length image in
  if len <= 0 then invalid_arg "Region.of_image: empty image";
  let capacity = round_capacity len in
  make ~latency ~max_threads ~capacity ~work:(Bytes.create capacity) ~state:unloaded ~base:image

(* Write the durable content of lines [first, last) into [dst] at their
   own offsets, one blit per run of equal map bytes: committed runs
   from [media], the rest from [base], zeros past its end. *)
let blit_durable t dst ~first ~last =
  let run = ref first in
  while !run < last do
    let c = Bytes.unsafe_get t.committed !run in
    let stop = ref (!run + 1) in
    while !stop < last && Bytes.unsafe_get t.committed !stop = c do
      incr stop
    done;
    let off = !run lsl line_shift and len = (!stop - !run) lsl line_shift in
    if c <> '\000' then Bytes.blit t.media off dst off len
    else begin
      let from_base = max 0 (min len (String.length t.base - off)) in
      if from_base > 0 then Bytes.blit_string t.base off dst off from_base;
      Bytes.fill dst (off + from_base) (len - from_base) '\000'
    end;
    run := !stop
  done

(* Snapshot of the durable bytes — the crash state with no unfenced
   survivors.  Feed to [of_image] to restart from this exact durable
   state any number of times (e.g. to compare recoveries at different
   parallelism on one crash image). *)
let media_image t =
  let b = Bytes.create t.capacity in
  blit_durable t b ~first:0 ~last:(Bytes.length t.committed);
  Bytes.unsafe_to_string b

(* ---- first touch ---- *)

(* Load every unloaded line of [first, last] into [work] from its
   durable content, one blit per run, and mark it clean.

   First touches race: two cold readers of one line after a restart,
   or a reader and an 8-byte writer sharing it.  A line therefore
   leaves [unloaded] only here, under [load_lock] and after a recheck,
   so it is loaded exactly once, and a store claims every unloaded line
   it covers this way before it writes.  The fast path in [touch_lines]
   reads [unloaded_lines] and the state byte without the lock.  That is
   sound on x86-TSO: the state store follows the blit's stores, and the
   count's decrement follows both, so an accessor that reads a count of
   0, or [clean] or [dirty], also sees the loaded bytes, and its own
   later store cannot be overtaken by them; one that reads [unloaded]
   takes the lock.  Like [cas_lock], the lock is held for a bounded
   blit with no scheduling point or user code inside. *)
let load_lines t first last =
  Mutex.lock t.load_lock;
  let line = ref first in
  while !line <= last do
    if Bytes.unsafe_get t.state !line <> unloaded then incr line
    else begin
      let stop = ref (!line + 1) in
      while !stop <= last && Bytes.unsafe_get t.state !stop = unloaded do
        incr stop
      done;
      blit_durable t t.work ~first:!line ~last:!stop;
      Bytes.fill t.state !line (!stop - !line) clean;
      t.unloaded_lines <- t.unloaded_lines - (!stop - !line);
      line := !stop
    end
  done;
  Mutex.unlock t.load_lock
[@@montage.allow
  "R5: models a page fault on a mapped heap — the lock is held for one \
   bounded blit with no scheduling point or user code inside, like \
   [cas_lock]"]

let rec all_loaded state line last =
  line > last || (Bytes.unsafe_get state line <> unloaded && all_loaded state (line + 1) last)

(* Make lines [first, last] loaded before an access.  No allocation;
   one compare on a region with every line loaded (one never restarted,
   as a running server's), one byte compare more for a single line. *)
let touch_lines t first last =
  if
    t.unloaded_lines > 0
    && (Bytes.unsafe_get t.state first = unloaded || (last > first && not (all_loaded t.state (first + 1) last)))
  then load_lines t first last

(* [len] > 0 *)
let touch t ~off ~len = touch_lines t (off lsr line_shift) ((off + len - 1) lsr line_shift)

let capacity t = t.capacity
let latency t = t.latency
let max_threads t = t.max_threads

(* ---- checker attachment ---- *)

let checker t = t.checker

let enable_pcheck ?(mode = Pcheck.Record) ?(log_events = false) ?max_log t =
  match t.checker with
  | Some c -> c
  | None ->
      let c =
        Pcheck.create ~mode ~log_events ?max_log ~capacity:t.capacity ~max_threads:t.max_threads ()
      in
      t.checker <- Some c;
      c

(* No-op without a checker, so structures can assert their flush
   contracts unconditionally. *)
let expect_fenced t ~what ~off ~len =
  match t.checker with None -> () | Some c -> Pcheck.expect_fenced c ~what ~off ~len

let check_range t off len =
  if off < 0 || len < 0 || off + len > t.capacity then
    invalid_arg
      (Printf.sprintf "Region: access [%d, %d) outside capacity %d" off (off + len) t.capacity)

let mark_dirty t off len =
  let first = off lsr line_shift and last = (off + len - 1) lsr line_shift in
  for line = first to last do
    Bytes.unsafe_set t.state line dirty
  done

(* ---- data access (stores go to [work]) ---- *)

let note_store t ~off ~len =
  match t.checker with None -> () | Some c -> Pcheck.on_store c ~off ~len ~work:t.work

let note_read t ~off ~len =
  match t.checker with None -> () | Some c -> Pcheck.on_read c ~off ~len

let write t ~off ~src ~src_off ~len =
  check_range t off len;
  if len > 0 then touch t ~off ~len;
  Bytes.blit src src_off t.work off len;
  if len > 0 then begin
    mark_dirty t off len;
    note_store t ~off ~len
  end

(* A store whose bytes [fill] lays out in place: [fill work off] must
   write exactly [work.[off, off + len)], the region's own store view,
   and nothing else.  Same touch, dirty marking and checker report as
   [write], without a staging buffer. *)
let write_with t ~off ~len fill =
  check_range t off len;
  if len > 0 then begin
    touch t ~off ~len;
    fill t.work off;
    mark_dirty t off len;
    note_store t ~off ~len
  end

let write_string t ~off s =
  let len = String.length s in
  check_range t off len;
  if len > 0 then touch t ~off ~len;
  Bytes.blit_string s 0 t.work off len;
  if len > 0 then begin
    mark_dirty t off len;
    note_store t ~off ~len
  end

(* Payload reads pay the device's amortized load latency; scalar
   accessors below model hot metadata and stay uncharged. *)
let charge_read t ~off ~len =
  check_range t off len;
  let lines = ((off + len - 1) lsr line_shift) - (off lsr line_shift) + 1 in
  ignore (Atomic.fetch_and_add t.stat_lines_read lines);
  Latency.charge_read t.latency ~lines

let read t ~off ~dst ~dst_off ~len =
  check_range t off len;
  if len > 0 then touch t ~off ~len;
  charge_read t ~off ~len;
  note_read t ~off ~len;
  Bytes.blit t.work off dst dst_off len

(* A payload read whose load was already paid: the runtime charged the
   payload's lines on its first (cold) read and keeps it warm since. *)
let read_uncharged t ~off ~dst ~dst_off ~len =
  check_range t off len;
  if len > 0 then begin
    touch t ~off ~len;
    note_read t ~off ~len;
    Bytes.blit t.work off dst dst_off len
  end

let read_string t ~off ~len =
  check_range t off len;
  if len > 0 then begin
    touch t ~off ~len;
    charge_read t ~off ~len;
    note_read t ~off ~len
  end;
  Bytes.sub_string t.work off len

let set_u8 t ~off v =
  check_range t off 1;
  touch t ~off ~len:1;
  Bytes.unsafe_set t.work off (Char.chr (v land 0xFF));
  mark_dirty t off 1;
  note_store t ~off ~len:1

let get_u8 t ~off =
  check_range t off 1;
  touch t ~off ~len:1;
  note_read t ~off ~len:1;
  Char.code (Bytes.unsafe_get t.work off)

let set_i64 t ~off v =
  check_range t off 8;
  touch t ~off ~len:8;
  Bytes.set_int64_le t.work off (Int64.of_int v);
  mark_dirty t off 8;
  note_store t ~off ~len:8

let get_i64 t ~off =
  check_range t off 8;
  touch t ~off ~len:8;
  note_read t ~off ~len:8;
  Int64.to_int (Bytes.get_int64_le t.work off)

(* Atomic 8-byte compare-and-swap on the store view — the lock-cmpxchg
   analog for a persistent address, which the nonblocking epoch advance
   uses to publish the clock (racing helpers install e+1 exactly once;
   a stale attempt fails instead of regressing the clock).  The mutex
   only serializes the read-check-write against other [cas_i64] calls:
   it is O(1), contains no scheduling point, and so behaves as the
   single hardware instruction it models, even under Dsched.  A
   successful swap has store semantics (dirty marking + checker
   [on_store]); the caller still owns write-back and fence. *)
let cas_i64 t ~off ~expected ~desired =
  check_range t off 8;
  touch t ~off ~len:8;
  Mutex.lock t.cas_lock;
  let cur = Int64.to_int (Bytes.get_int64_le t.work off) in
  let won = cur = expected in
  if won then Bytes.set_int64_le t.work off (Int64.of_int desired);
  Mutex.unlock t.cas_lock;
  if won then begin
    mark_dirty t off 8;
    note_store t ~off ~len:8
  end;
  won
[@@montage.allow
  "R5: models one atomic instruction — the lock is O(1) with no \
   scheduling point or user code inside, like Pcheck's bookkeeping \
   mutex"]

let set_i32 t ~off v =
  check_range t off 4;
  touch t ~off ~len:4;
  Bytes.set_int32_le t.work off (Int32.of_int v);
  mark_dirty t off 4;
  note_store t ~off ~len:4

let get_i32 t ~off =
  check_range t off 4;
  touch t ~off ~len:4;
  note_read t ~off ~len:4;
  (* values are sizes/offsets, always < 2^31: zero-extend *)
  Int32.to_int (Bytes.get_int32_le t.work off) land 0xFFFFFFFF

(* Transient metadata access: reads and writes that never participate in
   persistence (no dirty marking).  Allocator free lists thread their
   next pointers through free blocks this way, exactly as Ralloc keeps
   its metadata out of NVM write-back traffic. *)

let transient_set_i64 t ~off v =
  check_range t off 8;
  touch t ~off ~len:8;
  Bytes.set_int64_le t.work off (Int64.of_int v)

let transient_get_i64 t ~off =
  check_range t off 8;
  touch t ~off ~len:8;
  Int64.to_int (Bytes.get_int64_le t.work off)

(* ---- persistence primitives ---- *)

(* Entries pack (first_line << 15 | line_count); 15 bits of count covers
   2 MB per entry, and larger ranges are split by [writeback]. *)
let count_bits = 15
let count_mask = (1 lsl count_bits) - 1
let max_entry_lines = count_mask

let commit_entry t entry =
  let first = entry lsr count_bits and lines = entry land count_mask in
  let off = first lsl line_shift in
  touch_lines t first (first + lines - 1);
  Bytes.blit t.work off t.media off (lines lsl line_shift);
  Bytes.fill t.committed first lines '\001';
  Bytes.fill t.state first lines clean

let drain_queue t ~tid =
  let q = t.queues.(tid) in
  let n = t.queue_len.(tid) in
  for i = 0 to n - 1 do
    commit_entry t q.(i)
  done;
  let lines = t.queue_lines.(tid) in
  t.queue_len.(tid) <- 0;
  t.queue_lines.(tid) <- 0;
  Util.Padded.add t.stat_lines_persisted tid lines;
  (match t.checker with None -> () | Some c -> Pcheck.on_drain c ~tid);
  lines

let enqueue_range t ~tid ~first ~lines =
  let n = t.queue_len.(tid) in
  if n >= queue_capacity then
    (* queue overflow: hardware would stall the store; drain early *)
    ignore (drain_queue t ~tid)
  else if n = Array.length t.queues.(tid) then begin
    let bigger = Array.make (min queue_capacity (2 * n)) 0 in
    Array.blit t.queues.(tid) 0 bigger 0 n;
    t.queues.(tid) <- bigger
  end;
  let n = t.queue_len.(tid) in
  t.queues.(tid).(n) <- (first lsl count_bits) lor lines;
  t.queue_len.(tid) <- n + 1;
  t.queue_lines.(tid) <- t.queue_lines.(tid) + lines

(* Shared core: queue [total] lines from [first] on tid's write-pending
   queue, charging [charge_ns] per line.  Callers pick the per-line
   rate: isolated CLWB issue, pipelined batch issue, or zero. *)
let enqueue_line_run t ~tid ~first ~total ~charge_ns =
  let rec chunks first remaining =
    if remaining > 0 then begin
      let lines = min remaining max_entry_lines in
      enqueue_range t ~tid ~first ~lines;
      chunks (first + lines) (remaining - lines)
    end
  in
  chunks first total;
  (* one batched spin: per-call overhead must not distort small charges *)
  if charge_ns > 0 && total > 0 then Util.Spin_wait.ns (total * charge_ns);
  Util.Padded.add t.stat_writebacks tid total

(* CLWB analog: queue every line covering [off, off+len) for write-back. *)
let writeback t ~tid ~off ~len =
  if len > 0 then begin
    check_range t off len;
    (match t.checker with None -> () | Some c -> Pcheck.on_writeback c ~tid ~off ~len);
    let first = off lsr line_shift and last = (off + len - 1) lsr line_shift in
    enqueue_line_run t ~tid ~first ~total:(last - first + 1)
      ~charge_ns:t.latency.Latency.writeback_ns
  end

(* Batched line-granular write-back (the coalesced drain path): queue
   [lines] 64 B lines starting at line [first], charging the pipelined
   per-line batch rate — consecutive CLWBs issued back to back overlap
   in the store buffer. *)
let writeback_lines t ~tid ~first ~lines =
  if lines > 0 then begin
    let off = first lsl line_shift and len = lines lsl line_shift in
    check_range t off len;
    (match t.checker with None -> () | Some c -> Pcheck.on_writeback c ~tid ~off ~len);
    enqueue_line_run t ~tid ~first ~total:lines ~charge_ns:t.latency.Latency.writeback_batch_ns
  end

(* Uncharged batched write-back: identical semantics, no latency.  For
   work performed by a background domain that, in the paper's
   deployment, runs on its own core — its device traffic does not
   consume application-thread time.  On this one-core simulator
   charging it would bill the application for bandwidth the paper
   explicitly moves off the critical path. *)
let writeback_lines_uncharged t ~tid ~first ~lines =
  if lines > 0 then begin
    let off = first lsl line_shift and len = lines lsl line_shift in
    check_range t off len;
    (match t.checker with None -> () | Some c -> Pcheck.on_writeback c ~tid ~off ~len);
    enqueue_line_run t ~tid ~first ~total:lines ~charge_ns:0
  end

(* Record one coalescing round's effectiveness: [ranges] buffered
   records covering [lines_in] lines were merged into [lines_out]
   flushed lines. *)
let note_coalesced t ~tid ~ranges ~lines_in ~lines_out =
  Util.Padded.add t.stat_coalesce_ranges tid ranges;
  Util.Padded.add t.stat_coalesce_lines_in tid lines_in;
  Util.Padded.add t.stat_coalesce_lines_out tid lines_out

let note_fence t ~tid =
  match t.checker with
  | None -> ()
  | Some c -> Pcheck.on_fence c ~tid ~pending:t.queue_len.(tid)

(* SFENCE analog: commit this thread's queued ranges to media. *)
let sfence t ~tid =
  note_fence t ~tid;
  let lines = drain_queue t ~tid in
  Latency.charge_fence t.latency ~lines;
  Util.Padded.incr t.stat_fences tid

(* Commit the thread's queued ranges without charging the drain latency:
   models a fence whose wait is overlapped on another hardware thread
   (e.g. Pronto-Full's sister-hyperthread write-back).  Semantics are
   identical to [sfence]; only the cost model differs. *)
let sfence_async t ~tid =
  note_fence t ~tid;
  ignore (drain_queue t ~tid);
  Util.Padded.incr t.stat_fences tid

let persist t ~tid ~off ~len =
  writeback t ~tid ~off ~len;
  sfence t ~tid

(* ---- crash and recovery ---- *)

(* One line reaches media outside a fence drain (an injection). *)
let commit_line t line =
  let off = line lsl line_shift in
  touch_lines t line line;
  Bytes.blit t.work off t.media off line_size;
  Bytes.unsafe_set t.committed line '\001'

(* Simulate power failure.  Requires quiescence.  With probability
   [persist_unfenced], each queued-but-unfenced line reaches media (its
   CLWB had completed); with probability [evict_dirty], a dirty line is
   spontaneously evicted and persists despite never being flushed. *)
let crash ?(persist_unfenced = 0.0) ?(evict_dirty = 0.0) ?rng t =
  let rng = match rng with Some r -> r | None -> Util.Xoshiro.create 42 in
  (* lines whose media content comes from unfenced persistence, for the
     checker's read-after-crash rule (collected only when attached) *)
  let injected = ref [] in
  let note_injected line = if t.checker <> None then injected := line :: !injected in
  if persist_unfenced > 0.0 then
    for tid = 0 to t.max_threads - 1 do
      let q = t.queues.(tid) in
      for i = 0 to t.queue_len.(tid) - 1 do
        (* each queued line may have completed its write-back *)
        let first = q.(i) lsr count_bits and lines = q.(i) land count_mask in
        for line = first to first + lines - 1 do
          if Util.Xoshiro.float rng < persist_unfenced then begin
            commit_line t line;
            note_injected line
          end
        done
      done
    done;
  if evict_dirty > 0.0 then
    for line = 0 to (t.capacity lsr line_shift) - 1 do
      if Bytes.unsafe_get t.state line = dirty && Util.Xoshiro.float rng < evict_dirty
      then begin
        commit_line t line;
        note_injected line
      end
    done;
  (* Power is lost: caches vanish.  The post-restart view is media,
     loaded line by line on first touch. *)
  Bytes.fill t.state 0 (Bytes.length t.state) unloaded;
  t.unloaded_lines <- Bytes.length t.state;
  Array.fill t.queue_len 0 t.max_threads 0;
  Array.fill t.queue_lines 0 t.max_threads 0;
  match t.checker with None -> () | Some c -> Pcheck.on_crash c ~injected:!injected

(* ---- statistics ---- *)

type stats = {
  writebacks : int;
  fences : int;
  lines_persisted : int;
  lines_read : int;
  coalesce_ranges : int;
  coalesce_lines_in : int;
  coalesce_lines_out : int;
}

let stats t =
  {
    writebacks = Util.Padded.sum t.stat_writebacks;
    fences = Util.Padded.sum t.stat_fences;
    lines_persisted = Util.Padded.sum t.stat_lines_persisted;
    lines_read = Atomic.get t.stat_lines_read;
    coalesce_ranges = Util.Padded.sum t.stat_coalesce_ranges;
    coalesce_lines_in = Util.Padded.sum t.stat_coalesce_lines_in;
    coalesce_lines_out = Util.Padded.sum t.stat_coalesce_lines_out;
  }
