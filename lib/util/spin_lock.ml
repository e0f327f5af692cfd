(* Mutual-exclusion lock for short critical sections.

   Implemented over an OS mutex rather than a pure TTAS spin: with more
   domains than cores (this container has one core), a spinning waiter
   burns the very timeslice the lock holder needs, stalling every
   structure for milliseconds per preemption.  Blocking in the kernel
   hands the core straight back to the holder.  [try_acquire] keeps the
   one-CAS-equivalent fast path for callers that poll.

   Under the deterministic scheduler ([Sched.active]) the mutex cannot
   be used: every logical thread is a fiber on one domain, so blocking
   in the kernel would wedge the whole engine.  The lock then degrades
   to a plain boolean guarded by [Sched.await] — sound because fibers
   are cooperative (no other fiber runs between a successful
   availability poll and the acquiring store below).  The two
   representations are never mixed: the scheduler only runs while all
   lock-holding code is fiber code.

   The module keeps its historical name; call sites are agnostic. *)

[@@@montage.allow
  "R5: this module is the blocking-lock primitive itself — the kernel \
   block is the documented design above; under the deterministic \
   scheduler [acquire] degrades to the fiber-cooperative flag instead"]

type t = { mutex : Mutex.t; mutable flag : bool }

let create () = { mutex = Mutex.create (); flag = false }

let acquire t =
  if Sched.active () then begin
    let rec loop () =
      Sched.await "spin_lock.acquire" (fun () -> not t.flag);
      if t.flag then loop () else t.flag <- true
    in
    loop ()
  end
  else Mutex.lock t.mutex

let try_acquire t =
  if Sched.active () then begin
    Sched.yield "spin_lock.try_acquire";
    if t.flag then false
    else begin
      t.flag <- true;
      true
    end
  end
  else Mutex.try_lock t.mutex

let release t = if Sched.active () then t.flag <- false else Mutex.unlock t.mutex

let with_lock t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e

(* Lock striping: one lock per slot costs a [Mutex.create] per slot,
   which dominates building a large transient index (a recovered
   hashmap's 4,096 buckets).  A table capped at [stripes] locks keeps
   that cost fixed; the mask keeps each slot under one lock. *)
type table = t array

let is_pow2 n = n > 0 && n land (n - 1) = 0

let table ~stripes ~slots =
  if not (is_pow2 stripes && is_pow2 slots) then
    invalid_arg "Spin_lock.table: stripes and slots must be positive powers of two";
  Array.init (min slots stripes) (fun _ -> create ())

let stripe tbl i = tbl.(i land (Array.length tbl - 1))
