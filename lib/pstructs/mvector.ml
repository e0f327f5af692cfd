(* Montage persistent vector: a dynamic array of values.

   The abstract state is (length, elements-by-index); each element is
   one payload carrying its index, so recovery is "place every payload
   at its index" — no order reconstruction needed.  The paper's related
   work (MOD, Mahapatra et al.) treats vectors as a standard member of
   the persistent-structure menagerie; this is the Montage version:
   transient OCaml array of handles, payloads in NVM, buffered
   durability for free.

   Concurrency: a single structural lock (push/pop/resize move the
   boundary); element reads are lock-free through the transient array.
   set/get on an index follow the Montage discipline. *)

module E = Montage.Epoch_sys
module Seq = Montage.Payload.Seq

type t = {
  esys : E.t;
  lock : Util.Spin_lock.t;
  mutable slots : E.pblk option array;
  mutable length : int;
}

let create ?(capacity = 16) esys =
  { esys; lock = Util.Spin_lock.create (); slots = Array.make (max 1 capacity) None; length = 0 }

let esys t = t.esys
let length t = t.length

let ensure_capacity t n =
  if n > Array.length t.slots then begin
    let fresh = Array.make (max n (2 * Array.length t.slots)) None in
    Array.blit t.slots 0 fresh 0 t.length;
    t.slots <- fresh
  end
[@@montage.allow
  "R1: every caller either holds t.lock (push/set paths) or is \
   recovery running before the structure is shared"]

let push t ~tid value =
  Util.Sched.yield "mvector.push";
  Util.Spin_lock.with_lock t.lock (fun () ->
      E.with_op t.esys ~tid (fun () ->
          let index = t.length in
          ensure_capacity t (index + 1);
          t.slots.(index) <- Some (Seq.pnew t.esys ~tid (index, value));
          t.length <- index + 1;
          index))

let pop t ~tid =
  Util.Sched.yield "mvector.pop";
  Util.Spin_lock.with_lock t.lock (fun () ->
      if t.length = 0 then None
      else
        E.with_op t.esys ~tid (fun () ->
            let index = t.length - 1 in
            let p = Option.get t.slots.(index) in
            let _, value = Seq.get t.esys ~tid p in
            E.pdelete t.esys ~tid p;
            t.slots.(index) <- None;
            t.length <- index;
            Some value))

let get t ~tid index =
  Util.Sched.yield "mvector.get";
  if index < 0 || index >= t.length then None
  else
    match t.slots.(index) with
    | Some p -> Some (snd (Seq.get t.esys ~tid p))
    | None -> None

let set t ~tid index value =
  Util.Sched.yield "mvector.set";
  Util.Spin_lock.with_lock t.lock (fun () ->
      if index < 0 || index >= t.length then false
      else
        E.with_op t.esys ~tid (fun () ->
            let p = Option.get t.slots.(index) in
            t.slots.(index) <- Some (Seq.set t.esys ~tid p (index, value));
            true))

let to_list t ~tid =
  List.init t.length (fun i -> Option.get (get t ~tid i))

let iteri t ~tid f =
  for i = 0 to t.length - 1 do
    match get t ~tid i with Some v -> f i v | None -> ()
  done

(* ---- recovery ---- *)

let recover esys payloads =
  let t = create ~capacity:(max 16 (Array.length payloads)) esys in
  let max_index = ref (-1) in
  Array.iter
    (fun p ->
      let index = Seq.seq_unsafe esys p in
      ensure_capacity t (index + 1);
      t.slots.(index) <- Some p;
      if index > !max_index then max_index := index)
    payloads;
  t.length <- !max_index + 1;
  t
[@@montage.allow
  "R1: recovery builds the vector before it is shared with any \
   operation; normal length writers hold the vector lock"]
