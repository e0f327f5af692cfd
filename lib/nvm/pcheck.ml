(* Pcheck — a persistency-ordering checker and durability linter for
   the simulated NVM substrate (PMTest-style assertion checking).

   The checker observes the per-line event lattice

       store → writeback → fence/drain → epoch-advance → crash

   through hooks that [Region] and [Montage.Epoch_sys] invoke when a
   checker is attached, and enforces two rule sets online:

   Correctness rules (violations; [Enforce] mode raises):

   - {b read-unfenced-after-crash}: a line whose media content was
     produced by unfenced persistence (a completed-but-unfenced CLWB or
     a spontaneous dirty eviction injected by [Region.crash]) must not
     be read after the crash outside a declared recovery scan.  Montage
     recovery brackets its header scan with {!set_recovery_scan}
     because its epoch filter makes reading such lines sound; any other
     read is a structure silently depending on luck.
   - {b flush/store race}: a line must not reach its fence with a
     store newer than its last write-back — the CLWB may already have
     completed without the new data on real hardware, so the "flushed"
     line is torn at the fence.  A store to a queued line is therefore
     only *provisionally* racy: re-issuing the write-back before the
     fence (as Mnemosyne's word-granular logging does constantly)
     restores coverage and is clean, and so does re-registering the
     line with a persist buffer ({!on_buffer_push}) — the new data's
     flush contract is then open again and enforced by the
     epoch-retired-unflushed rule, which is exactly Montage's buffered
     answer to the same race (a same-epoch in-place rewrite racing the
     background drain's fence is benign: until the epoch retires,
     recovery discards the payload either way).  Only a store that
     reaches the fence with neither a fresh CLWB nor a fresh buffer
     registration is flagged.  The check fires at drain time.
   - {b epoch-retired-unflushed}: a payload range registered with the
     persist buffer in epoch [e] must reach media before the clock
     reaches [e + 2] — the buffered-durability contract of paper §3.
   - {b linearize-epoch-mismatch}: an epoch-verified DCSS must never
     decide success when the clock it observed differs from the
     descriptor's tagged epoch (a tripwire for [Everify] refactors).
   - {b contract}: an {!expect_fenced} assertion placed by a structure
     (the baselines declare their per-operation flush contracts this
     way) found the range dirty or write-pending.

   Performance lints (recorded with per-site counts, never raised):

   - {b clean-writeback}: CLWB of a line with no store since its last
     commit — wasted write-back bandwidth;
   - {b empty-fence}: SFENCE with an empty write-pending queue;
   - {b duplicate-flush}: the same line queued twice within one fence
     interval.

   With [log_events] the checker also keeps a replayable event log;
   {!explore} materializes every fence-respecting media state (bounded
   by [max_states]) and asserts a user recovery predicate on each —
   a small crash-state enumerator for unit tests.

   Concurrency: per-line state follows the same ownership discipline
   as [Region] itself (threads touch disjoint lines; fences are
   per-thread), so it is updated without locks.  Rare shared paths —
   violation/lint recording, range registration, the event log — are
   guarded by a mutex. *)

let line_shift = 6
let line_size = 64

(* ---- violations ---- *)

type violation =
  | Read_unfenced_after_crash of { off : int; len : int; line : int }
  | Store_flush_race of { tid : int; off : int; len : int; line : int }
  | Epoch_retired_unflushed of { tid : int; epoch : int; off : int; len : int; clock : int }
  | Linearize_epoch_mismatch of { epoch : int; clock : int }
  | Epoch_clock_regression of { from_ : int; to_ : int }
  | Contract of { what : string; off : int; len : int; line : int }

let violation_to_string = function
  | Read_unfenced_after_crash { off; len; line } ->
      Printf.sprintf
        "read-unfenced-after-crash: read [%d, %d) touches line %d whose post-crash content was \
         never fenced (persisted by injection)"
        off (off + len) line
  | Store_flush_race { tid; off; len; line } ->
      Printf.sprintf
        "flush/store race: line %d ([%d, %d)) reached tid %d's fence with a store newer than its \
         last write-back — the queued CLWB may have completed without that data"
        line off (off + len) tid
  | Epoch_retired_unflushed { tid; epoch; off; len; clock } ->
      Printf.sprintf
        "epoch-retired-unflushed: payload range [%d, %d) registered by tid %d in epoch %d never \
         reached media before the clock hit %d (must persist by epoch %d)"
        off (off + len) tid epoch clock (epoch + 2)
  | Linearize_epoch_mismatch { epoch; clock } ->
      Printf.sprintf
        "linearize-epoch-mismatch: DCSS decided success for epoch %d while observing clock %d" epoch
        clock
  | Epoch_clock_regression { from_; to_ } ->
      Printf.sprintf
        "epoch-clock-regression: the clock was advanced to %d after the checker observed %d — a \
         racing advance published a stale epoch, so recovery cutoffs could move backwards"
        to_ from_
  | Contract { what; off; len; line } ->
      Printf.sprintf "contract %S: range [%d, %d) expected fenced but line %d is dirty or pending"
        what off (off + len) line

exception Violation of violation

(* ---- lints ---- *)

type lint = Clean_writeback | Empty_fence | Duplicate_flush

let lint_name = function
  | Clean_writeback -> "clean-writeback"
  | Empty_fence -> "empty-fence"
  | Duplicate_flush -> "duplicate-flush"

(* ---- event log ---- *)

type event =
  | Store of { off : int; len : int; data : Bytes.t }
  | Writeback of { tid : int; off : int; len : int }
  | Drain of { tid : int } (* this tid's queued ranges reached media *)
  | Fence of { tid : int }
  | Epoch_advance of { epoch : int }
  | Crash

type mode = Record | Enforce

type t = {
  mode : mode;
  capacity : int;
  line_count : int;
  (* per-line state; ownership discipline as in Region *)
  dirty : Bytes.t; (* stored since last commit *)
  pending_by : int array; (* tid + 1 of the thread whose queue holds the line; 0 = none *)
  stored_after_wb : Bytes.t; (* stored since last writeback while queued: racy unless re-queued *)
  unfenced_media : Bytes.t; (* post-crash: media content came from unfenced persistence *)
  commit_stamp : int array; (* stamp of the last drain that committed this line *)
  stamp : int Atomic.t;
  (* per-thread pending ranges (mirrors the region write-pending queues) *)
  pending : (int * int) list ref array; (* (first_line, lines) *)
  pending_count : int array;
  (* per-thread open rewrite declarations ({!on_rewrite}): lines
     [rewrite_first, rewrite_last]; max_int/-1 = none open *)
  rewrite_first : int array;
  rewrite_last : int array;
  (* persist-buffer obligations: ranges that must persist before their
     epoch retires by two *)
  mutable obligations : obligation list;
  clock : int Atomic.t;
  recovery_scan : bool Atomic.t;
  (* findings *)
  lock : Mutex.t;
  mutable violations : violation list;
  lints : (lint * string, int ref) Hashtbl.t;
  mutable lint_total : int;
  (* event log *)
  log_events : bool;
  max_log : int;
  log : event array ref;
  mutable log_len : int;
  mutable log_truncated : bool;
}

and obligation = { ob_tid : int; ob_epoch : int; ob_first : int; ob_lines : int; ob_stamp : int }

let create ?(mode = Record) ?(log_events = false) ?(max_log = 1 lsl 16) ~capacity ~max_threads () =
  let line_count = (capacity + line_size - 1) lsr line_shift in
  {
    mode;
    capacity;
    line_count;
    dirty = Bytes.make line_count '\000';
    pending_by = Array.make line_count 0;
    stored_after_wb = Bytes.make line_count '\000';
    unfenced_media = Bytes.make line_count '\000';
    commit_stamp = Array.make line_count 0;
    stamp = Atomic.make 1;
    pending = Array.init max_threads (fun _ -> ref []);
    pending_count = Array.make max_threads 0;
    rewrite_first = Array.make max_threads max_int;
    rewrite_last = Array.make max_threads (-1);
    obligations = [];
    clock = Atomic.make 0;
    recovery_scan = Atomic.make false;
    lock = Mutex.create ();
    violations = [];
    lints = Hashtbl.create 64;
    lint_total = 0;
    log_events;
    max_log;
    log = ref (Array.make (if log_events then 1024 else 0) Crash);
    log_len = 0;
    log_truncated = false;
  }

let mode t = t.mode

(* The checker's own mutex is held only for O(1) bookkeeping appends
   and never across a hook callback or scheduling point; Pcheck runs in
   testing/strict configurations where a short kernel block is
   harmless. *)
[@@@montage.allow
  "R5: checker-internal mutex held for O(1) bookkeeping only, never \
   across user code; Pcheck is a testing facility, not a hot path"]

(* ---- findings plumbing ---- *)

let violate t v =
  Mutex.lock t.lock;
  t.violations <- v :: t.violations;
  Mutex.unlock t.lock;
  if t.mode = Enforce then raise (Violation v)

(* Attribute a lint to the call site that reached the region: the first
   backtrace slot outside the nvm substrate itself.  Requires debug
   info; falls back to "<unknown>". *)
let lint_site () =
  let bt = Printexc.get_callstack 16 in
  match Printexc.backtrace_slots bt with
  | None -> "<unknown>"
  | Some slots ->
      let rec find i =
        if i >= Array.length slots then "<unknown>"
        else
          match Printexc.Slot.location slots.(i) with
          (* skip frames in the substrate itself and in the stdlib
             (stdlib filenames carry no directory component) *)
          | Some { filename; line_number; _ }
            when String.contains filename '/'
                 && not
                      (Filename.check_suffix filename "pcheck.ml"
                      || Filename.check_suffix filename "region.ml") ->
              Printf.sprintf "%s:%d" filename line_number
          | _ -> find (i + 1)
      in
      find 0

let lint t kind =
  let site = lint_site () in
  Mutex.lock t.lock;
  t.lint_total <- t.lint_total + 1;
  (match Hashtbl.find_opt t.lints (kind, site) with
  | Some r -> incr r
  | None -> Hashtbl.add t.lints (kind, site) (ref 1));
  Mutex.unlock t.lock

let record_event t ev =
  if t.log_events then begin
    Mutex.lock t.lock;
    let arr = !(t.log) in
    if t.log_len >= t.max_log then t.log_truncated <- true
    else begin
      if t.log_len >= Array.length arr then begin
        let bigger = Array.make (min t.max_log (2 * Array.length arr)) Crash in
        Array.blit arr 0 bigger 0 t.log_len;
        t.log := bigger
      end;
      !(t.log).(t.log_len) <- ev;
      t.log_len <- t.log_len + 1
    end;
    Mutex.unlock t.lock
  end

let lines_of ~off ~len = (off lsr line_shift, (off + len - 1) lsr line_shift)

(* ---- hooks (called by Region / Epoch_sys) ---- *)

(* Some thread has declared it is about to re-register [line] with a
   persist buffer or its own write-back ({!on_rewrite}).  Read racily:
   a stale view can only miss or keep a declaration for an instant. *)
let in_rewrite t line =
  let open_ = ref false in
  for i = 0 to Array.length t.rewrite_first - 1 do
    if t.rewrite_first.(i) <= line && line <= t.rewrite_last.(i) then open_ := true
  done;
  !open_

let close_rewrite t ~tid = t.rewrite_first.(tid) <- max_int

let on_rewrite t ~tid ~off ~len =
  if len > 0 then begin
    let first, last = lines_of ~off ~len in
    t.rewrite_last.(tid) <- last;
    t.rewrite_first.(tid) <- first
  end

let on_store t ~off ~len ~work =
  if len > 0 then begin
    let first, last = lines_of ~off ~len in
    for line = first to last do
      (* provisionally racy: cleared if the line is written back again
         before the owning queue drains; a store under an open rewrite
         declaration is re-registered before anyone could rely on it *)
      if t.pending_by.(line) <> 0 && not (in_rewrite t line) then
        Bytes.unsafe_set t.stored_after_wb line '\001';
      Bytes.unsafe_set t.dirty line '\001';
      Bytes.unsafe_set t.unfenced_media line '\000'
    done;
    if t.log_events then record_event t (Store { off; len; data = Bytes.sub work off len })
  end

let on_read t ~off ~len =
  if len > 0 && not (Atomic.get t.recovery_scan) then begin
    let first, last = lines_of ~off ~len in
    for line = first to last do
      if Bytes.unsafe_get t.unfenced_media line <> '\000' then
        violate t (Read_unfenced_after_crash { off; len; line })
    done
  end

let on_writeback t ~tid ~off ~len =
  if len > 0 then begin
    let first, last = lines_of ~off ~len in
    let clean = ref true and dup = ref false in
    for line = first to last do
      if Bytes.unsafe_get t.dirty line <> '\000' then clean := false;
      if t.pending_by.(line) = tid + 1 then dup := true;
      t.pending_by.(line) <- tid + 1;
      (* the fresh CLWB covers any store since the previous one *)
      Bytes.unsafe_set t.stored_after_wb line '\000'
    done;
    close_rewrite t ~tid;
    if !clean then lint t Clean_writeback;
    if !dup then lint t Duplicate_flush;
    t.pending.(tid) := (first, last - first + 1) :: !(t.pending.(tid));
    t.pending_count.(tid) <- t.pending_count.(tid) + 1;
    record_event t (Writeback { tid; off; len })
  end

(* The region drained tid's write-pending queue into media (an sfence,
   an async fence, or a queue-overflow stall). *)
let on_drain t ~tid =
  if t.pending_count.(tid) > 0 then begin
    let s = Atomic.fetch_and_add t.stamp 1 + 1 in
    let ranges = !(t.pending.(tid)) in
    (* Commit stamps only move forward.  Drains on two threads can
       commit one line at once, and the one that took the older stamp
       may reach the line last; winding the line back to that stamp
       would make an obligation the newer drain satisfied look
       unflushed at retirement. *)
    Mutex.lock t.lock;
    List.iter
      (fun (first, lines) ->
        for line = first to first + lines - 1 do
          if t.commit_stamp.(line) < s then t.commit_stamp.(line) <- s
        done)
      ranges;
    Mutex.unlock t.lock;
    List.iter
      (fun (first, lines) ->
        for line = first to first + lines - 1 do
          if Bytes.unsafe_get t.stored_after_wb line <> '\000' then begin
            Bytes.unsafe_set t.stored_after_wb line '\000';
            violate t
              (Store_flush_race { tid; off = line lsl line_shift; len = line_size; line })
          end;
          if t.pending_by.(line) = tid + 1 then t.pending_by.(line) <- 0;
          Bytes.unsafe_set t.dirty line '\000'
        done)
      ranges;
    t.pending.(tid) := [];
    t.pending_count.(tid) <- 0;
    record_event t (Drain { tid })
  end

let on_fence t ~tid ~pending =
  if pending = 0 then lint t Empty_fence;
  record_event t (Fence { tid })

let on_crash t ~injected =
  Mutex.lock t.lock;
  Bytes.fill t.dirty 0 t.line_count '\000';
  Bytes.fill t.unfenced_media 0 t.line_count '\000';
  Bytes.fill t.stored_after_wb 0 t.line_count '\000';
  Array.fill t.pending_by 0 t.line_count 0;
  Array.iter (fun cell -> cell := []) t.pending;
  Array.fill t.pending_count 0 (Array.length t.pending_count) 0;
  Array.fill t.rewrite_first 0 (Array.length t.rewrite_first) max_int;
  (* outstanding obligations belong to epochs recovery will discard *)
  t.obligations <- [];
  (* clear the monotonicity watermark: a recovery (or a re-used checker
     across [explore] branches) may legally resume at a lower clock *)
  Atomic.set t.clock 0;
  List.iter (fun line -> Bytes.unsafe_set t.unfenced_media line '\001') injected;
  Mutex.unlock t.lock;
  record_event t Crash

(* A payload range was pushed onto a persist buffer: it must reach
   media before its epoch retires by two. *)
let on_buffer_push t ~tid ~epoch ~off ~len =
  if len > 0 then begin
    let first, last = lines_of ~off ~len in
    (* the push re-opens the flush contract for the line's current
       content (checked at retirement), so a CLWB of the older content
       still in flight on some other thread's queue is no longer racy
       — mirrors on_writeback's clearing for the re-CLWB case *)
    for line = first to last do
      Bytes.unsafe_set t.stored_after_wb line '\000'
    done;
    close_rewrite t ~tid;
    let ob =
      { ob_tid = tid; ob_epoch = epoch; ob_first = first; ob_lines = last - first + 1;
        ob_stamp = Atomic.get t.stamp }
    in
    Mutex.lock t.lock;
    t.obligations <- ob :: t.obligations;
    Mutex.unlock t.lock
  end

let check_obligation t ~clock ob =
  let ok = ref true in
  for line = ob.ob_first to ob.ob_first + ob.ob_lines - 1 do
    if t.commit_stamp.(line) <= ob.ob_stamp then ok := false
  done;
  if not !ok then
    violate t
      (Epoch_retired_unflushed
         {
           tid = ob.ob_tid;
           epoch = ob.ob_epoch;
           off = ob.ob_first lsl line_shift;
           len = ob.ob_lines lsl line_shift;
           clock;
         })

let on_epoch_advance t ~epoch =
  (* The clock must be monotone within one pre-crash execution: under
     the nonblocking advance, helpers race to install e+1, and only the
     winning transient CAS may report the tick — a loser reporting its
     stale epoch would move recovery cutoffs backwards.  (A crash
     resets this watermark: recovery legitimately restarts the clock at
     whatever the media image holds.) *)
  let prev = Atomic.get t.clock in
  if epoch < prev then violate t (Epoch_clock_regression { from_ = prev; to_ = epoch });
  Atomic.set t.clock epoch;
  Mutex.lock t.lock;
  let retired, live = List.partition (fun ob -> ob.ob_epoch <= epoch - 2) t.obligations in
  t.obligations <- live;
  Mutex.unlock t.lock;
  record_event t (Epoch_advance { epoch });
  List.iter (check_obligation t ~clock:epoch) retired

(* A DCSS decided [success] for [epoch] having observed [clock]. *)
let on_linearize t ~epoch ~clock ~success =
  if success && clock <> epoch then violate t (Linearize_epoch_mismatch { epoch; clock })

(* ---- declared contracts (PMTest-style isPersist assertion) ---- *)

let expect_fenced t ~what ~off ~len =
  if len > 0 then begin
    let first, last = lines_of ~off ~len in
    let rec scan line =
      if line <= last then
        if Bytes.unsafe_get t.dirty line <> '\000' || t.pending_by.(line) <> 0 then
          violate t (Contract { what; off; len; line })
        else scan (line + 1)
    in
    scan first
  end

let set_recovery_scan t flag = Atomic.set t.recovery_scan flag

(* ---- findings access ---- *)

let violations t =
  Mutex.lock t.lock;
  let v = List.rev t.violations in
  Mutex.unlock t.lock;
  v

let clear_violations t =
  Mutex.lock t.lock;
  t.violations <- [];
  Mutex.unlock t.lock

let lint_counts t =
  Mutex.lock t.lock;
  let out =
    Hashtbl.fold (fun (kind, site) r acc -> (kind, site, !r) :: acc) t.lints []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  Mutex.unlock t.lock;
  out

let lint_total t = t.lint_total

let summary t =
  let buf = Buffer.create 256 in
  let vs = violations t in
  Buffer.add_string buf
    (Printf.sprintf "pcheck: %d violation(s), %d lint event(s)\n" (List.length vs) t.lint_total);
  List.iter (fun v -> Buffer.add_string buf ("  VIOLATION " ^ violation_to_string v ^ "\n")) vs;
  List.iter
    (fun (kind, site, n) ->
      Buffer.add_string buf (Printf.sprintf "  lint %-16s %6d  at %s\n" (lint_name kind) n site))
    (lint_counts t);
  Buffer.contents buf

(* ---- bounded crash-state enumeration ---- *)

type explore_report = {
  states : int;
  failures : int;
  first_failure : string option;
  truncated : bool;
}

(* Replay the event log; at every point where the media-or-pending
   state changed, materialize each fence-respecting media image: the
   fenced prefix plus every subset of queued-but-unfenced ranges (each
   CLWB may independently have completed), bounded to [max_states]
   predicate calls in total and 2^[max_pending_bits] subsets per point. *)
let explore ?(max_states = 4096) ?(max_pending_bits = 10) t predicate =
  if not t.log_events then invalid_arg "Pcheck.explore: checker created without ~log_events:true";
  let work = Bytes.make t.capacity '\000' in
  let media = Bytes.make t.capacity '\000' in
  let pending : (int * int) list array = Array.make (Array.length t.pending) [] in
  let states = ref 0 and failures = ref 0 and first_failure = ref None and capped = ref false in
  let all_pending () = Array.fold_left (fun acc l -> List.rev_append l acc) [] pending in
  let commit_range m (first, lines) =
    let off = first lsl line_shift in
    Bytes.blit work off m off (lines lsl line_shift)
  in
  let try_state ~at subset =
    if !states >= max_states then capped := true
    else begin
      incr states;
      let m = Bytes.copy media in
      List.iter (commit_range m) subset;
      (* [m] is this state's own copy and is never written again, so it
         can be handed out as the immutable image [Region.of_image] takes *)
      if not (predicate (Bytes.unsafe_to_string m)) then begin
        incr failures;
        if !first_failure = None then
          first_failure :=
            Some
              (Printf.sprintf "crash after event %d with %d pending range(s) persisted" at
                 (List.length subset))
      end
    end
  in
  let enumerate ~at =
    if !states < max_states then begin
      let ranges = all_pending () in
      let n = List.length ranges in
      if n > max_pending_bits then begin
        capped := true;
        (* extremes only: nothing pending persisted / everything did *)
        try_state ~at [];
        try_state ~at ranges
      end
      else begin
        let arr = Array.of_list ranges in
        for mask = 0 to (1 lsl n) - 1 do
          let subset = ref [] in
          for i = 0 to n - 1 do
            if mask land (1 lsl i) <> 0 then subset := arr.(i) :: !subset
          done;
          try_state ~at !subset
        done
      end
    end
  in
  enumerate ~at:(-1);
  for i = 0 to t.log_len - 1 do
    (match !(t.log).(i) with
    | Store { off; len; data } -> Bytes.blit data 0 work off len
    | Writeback { tid; off; len } ->
        let first, last = lines_of ~off ~len in
        pending.(tid) <- (first, last - first + 1) :: pending.(tid)
    | Drain { tid } ->
        List.iter (commit_range media) (List.rev pending.(tid));
        pending.(tid) <- []
    | Fence _ -> ()
    | Epoch_advance _ -> ()
    | Crash ->
        Bytes.blit media 0 work 0 t.capacity;
        Array.fill pending 0 (Array.length pending) []);
    (match !(t.log).(i) with
    | Store _ | Writeback _ | Drain _ | Crash -> enumerate ~at:i
    | Fence _ | Epoch_advance _ -> ())
  done;
  {
    states = !states;
    failures = !failures;
    first_failure = !first_failure;
    truncated = t.log_truncated || !capped;
  }
