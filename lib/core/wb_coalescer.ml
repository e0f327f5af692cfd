(* Line-granular write-back coalescer.

   A drain collects the byte ranges of every persist record it is about
   to flush into one of these, then [flush]es: entries are sorted by
   first line and overlapping or adjacent runs are merged, so each 64 B
   line is written back at most once per drain no matter how many
   buffered records covered it.  Montage's buffered ranges overlap
   whenever a payload was rewritten in place within an epoch (a
   same-epoch pset, or a dequeue scrubbing the antagonist's create
   record), so the merge is where the duplicate-flush savings come
   from.

   Entries pack (first_line << count_bits | run_lines).  10 bits of run
   length covers 1023 lines = 64 KB per run; persist-buffer records are
   at most 2^14 - 1 bytes = 256 lines, so a single [add] never needs to
   split, but the splitting loop keeps the packing safe for any input.
   Sorting packed ints with the line index in the high bits orders runs
   by first line directly.

   Single-owner discipline: a coalescer belongs to the draining
   thread; no synchronization inside. *)

type t = {
  mutable entries : int array [@montage.thread_local];
  mutable len : int [@montage.thread_local];
  mutable ranges : int [@montage.thread_local];
      (* [add] calls since the last flush *)
  mutable lines_in : int [@montage.thread_local];
      (* lines covered before merging *)
}

let count_bits = 10
let count_mask = (1 lsl count_bits) - 1
let max_run = count_mask

let create ?(initial_capacity = 256) () =
  { entries = Array.make (max initial_capacity 16) 0; len = 0; ranges = 0; lines_in = 0 }

let is_empty t = t.len = 0

let ensure_room t needed =
  let cap = Array.length t.entries in
  if t.len + needed > cap then begin
    let cap' = ref (cap * 2) in
    while t.len + needed > !cap' do
      cap' := !cap' * 2
    done;
    let entries' = Array.make !cap' 0 in
    Array.blit t.entries 0 entries' 0 t.len;
    t.entries <- entries'
  end

let push_run t ~first ~lines =
  let rec go first remaining =
    if remaining > 0 then begin
      let run = min remaining max_run in
      ensure_room t 1;
      t.entries.(t.len) <- (first lsl count_bits) lor run;
      t.len <- t.len + 1;
      go (first + run) (remaining - run)
    end
  in
  go first lines

(* Queue the lines covering byte range [off, off+len). *)
let add t ~off ~len =
  if len > 0 then begin
    let first = off asr 6 and last = (off + len - 1) asr 6 in
    let lines = last - first + 1 in
    t.ranges <- t.ranges + 1;
    t.lines_in <- t.lines_in + lines;
    push_run t ~first ~lines
  end

(* Sort, merge overlapping/adjacent runs, emit each merged run once.
   Returns (ranges, lines_in, lines_out) for the round and resets the
   coalescer.  Runs separated by a gap are never bridged: [emit] sees
   exactly the union of the added lines. *)
let flush t ~emit =
  let ranges = t.ranges and lines_in = t.lines_in in
  let lines_out = ref 0 in
  if t.len > 0 then begin
    let entries = Array.sub t.entries 0 t.len in
    Array.sort compare entries;
    let cur_first = ref (entries.(0) lsr count_bits) in
    let cur_last = ref (!cur_first + (entries.(0) land count_mask) - 1) in
    let emit_current () =
      let lines = !cur_last - !cur_first + 1 in
      lines_out := !lines_out + lines;
      emit ~first:!cur_first ~lines
    in
    for i = 1 to Array.length entries - 1 do
      let f = entries.(i) lsr count_bits in
      let l = f + (entries.(i) land count_mask) - 1 in
      if f <= !cur_last + 1 then begin
        (* overlapping or adjacent: extend the current run *)
        if l > !cur_last then cur_last := l
      end
      else begin
        emit_current ();
        cur_first := f;
        cur_last := l
      end
    done;
    emit_current ()
  end;
  t.len <- 0;
  t.ranges <- 0;
  t.lines_in <- 0;
  (ranges, lines_in, !lines_out)
