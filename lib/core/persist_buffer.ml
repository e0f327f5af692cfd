(* Per-thread circular write-back buffer (paper §5.2).

   Workers append (offset, length) records of payload ranges that must
   reach NVM by the end of their epoch.  The owning worker is the only
   producer and writes the tail.  Consumers never pop a record before
   its write-back is fenced: [publish] *peeks* — it emits every record
   in [head, tail-at-entry) without consuming any of them — and only
   after the caller has fenced the emitted write-backs does
   [retire_upto] move the head past them.  Until then the records stay
   visible, so any helper (an epoch advance, a sync caller, the owner
   on a full ring) can re-publish and fence them itself; write-backs
   are idempotent, so helping never double-applies anything.  The ring
   itself is the publication descriptor: (head, observed tail) delimits
   the claimable records, and the monotonic CAS on head in
   [retire_upto] is the claim-completion step that concurrent helpers
   race benignly.  There is never a moment when a record is out of the
   ring but not yet durable.

   Entries are packed as (offset << 14 | length); payloads are at most
   8 KB so 14 bits of length suffice. *)

type t = {
  slots : int array;
  capacity : int;
  head : int Atomic.t; (* oldest record not yet retired *)
  tail : int Atomic.t; (* next free slot; owner-written *)
}

let length_bits = 14
let length_mask = (1 lsl length_bits) - 1
let max_len = length_mask

let pack ~off ~len =
  (* a silent [land length_mask] here would corrupt the packed offset
     and flush the wrong range — reject out-of-range records loudly *)
  if len < 0 || len > max_len then
    invalid_arg (Printf.sprintf "Persist_buffer.pack: length %d outside [0, %d]" len max_len);
  if off < 0 then invalid_arg (Printf.sprintf "Persist_buffer.pack: negative offset %d" off);
  (off lsl length_bits) lor len
let unpack_off e = e lsr length_bits
let unpack_len e = e land length_mask

let create ~capacity =
  { slots = Array.make (max 2 capacity) 0; capacity = max 2 capacity; head = Atomic.make 0; tail = Atomic.make 0 }

let is_empty t = Atomic.get t.head >= Atomic.get t.tail
[@@montage.allow
  "R2: racy observer; callers that act on the answer re-check under \
   their own pbuf.* Sched points"]

(* Owner-called: no free slot until a publication retires some. *)
let is_full t = Atomic.get t.tail - Atomic.get t.head >= t.capacity
[@@montage.allow
  "R2: owner-called observer; tail is owner-private and head only \
   moves forward, so a stale read errs toward an early flush"]

(* Owner-only append.  A full ring is the owner's bug: overwriting the
   oldest slot would lose a record no consumer has made durable, so the
   owner publishes, fences and retires first ([Epoch_sys]'s
   [record_persist] does). *)
let push t ~off ~len =
  Util.Sched.yield "pbuf.push";
  let tail = Atomic.get t.tail in
  if tail - Atomic.get t.head >= t.capacity then
    invalid_arg "Persist_buffer.push: ring full (publish and retire first)";
  t.slots.(tail mod t.capacity) <- pack ~off ~len;
  Atomic.set t.tail (tail + 1)

(* Planted bug for the Dsched harness (see DESIGN.md, "Dsched"): while
   set, every [publish] skips its first record but still returns the
   stop index past it, so [retire_upto] retires a record that was never
   written back — a lost publication the durable-linearizability
   explorer must detect.  Never set outside tests. *)
let test_drop_first_publish_record = ref false

(* Emit every record currently in the ring, oldest first, *without*
   consuming.  Bounded by the tail observed at entry (later records
   belong to a later epoch).  Returns the exclusive upper index to hand
   to [retire_upto] once the emitted write-backs are fenced.  Safe from
   any thread: a slot is rewritten only after the head passes it, so a
   racing reader sees either the old record (already retired —
   re-emitting is an idempotent write-back of durable data) or the new
   one (a harmless early flush); int-array reads cannot tear. *)
let publish t f =
  Util.Sched.yield "pbuf.publish";
  let stop = Atomic.get t.tail in
  let start = Atomic.get t.head in
  let start = if !test_drop_first_publish_record && start < stop then start + 1 else start in
  for i = start to stop - 1 do
    let entry = t.slots.(i mod t.capacity) in
    f (unpack_off entry) (unpack_len entry)
  done;
  stop

(* Retire published records: advance the head to at least [upto],
   one monotonic CAS step at a time.  Called only after the caller's
   fence covers everything below [upto].  Helpers retiring the same
   prefix cooperate — every CAS failure means another thread moved the
   head forward — so the loop takes at most [upto - head] iterations
   regardless of contention: bounded, hence wait-free. *)
let retire_upto t ~upto =
  Util.Sched.yield "pbuf.retire";
  let rec go () =
    let head = Atomic.get t.head in
    if head < upto then begin
      ignore (Atomic.compare_and_set t.head head (head + 1));
      go ()
    end
  in
  go ()
