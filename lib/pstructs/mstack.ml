(* Montage stack: LIFO analog of the queue — single lock, sequence-
   numbered payloads, transient list index.  Recovery sorts by sequence
   number descending so the newest surviving push is on top. *)

module E = Montage.Epoch_sys
module Seq = Montage.Payload.Seq

type t = {
  esys : E.t;
  lock : Util.Spin_lock.t;
  mutable items : (int * E.pblk) list;
  mutable next_seq : int;
}

let create esys = { esys; lock = Util.Spin_lock.create (); items = []; next_seq = 1 }

let esys t = t.esys
let length t = Util.Spin_lock.with_lock t.lock (fun () -> List.length t.items)
let is_empty t = Util.Spin_lock.with_lock t.lock (fun () -> t.items = [])

let push t ~tid value =
  Util.Sched.yield "mstack.push";
  Util.Spin_lock.with_lock t.lock (fun () ->
      E.with_op t.esys ~tid (fun () ->
          let seq = t.next_seq in
          t.next_seq <- seq + 1;
          let payload = Seq.pnew t.esys ~tid (seq, value) in
          t.items <- (seq, payload) :: t.items))

let pop t ~tid =
  Util.Sched.yield "mstack.pop";
  Util.Spin_lock.with_lock t.lock (fun () ->
      match t.items with
      | [] -> None
      | (_, payload) :: rest ->
          E.with_op t.esys ~tid (fun () ->
              let _, value = Seq.get t.esys ~tid payload in
              E.pdelete t.esys ~tid payload;
              t.items <- rest;
              Some value))

let top t ~tid =
  Util.Sched.yield "mstack.top";
  Util.Spin_lock.with_lock t.lock (fun () ->
      match t.items with
      | [] -> None
      | (_, payload) :: _ ->
          let _, value = Seq.get t.esys ~tid payload in
          Some value)

let recover esys payloads =
  let t = create esys in
  let entries = Array.map (fun p -> (Seq.seq_unsafe esys p, p)) payloads in
  Array.sort (fun (a, _) (b, _) -> compare b a) entries;
  t.items <- Array.to_list entries;
  (match Array.length entries with
  | 0 -> ()
  | _ -> t.next_seq <- fst entries.(0) + 1);
  t
[@@montage.allow
  "R1: recovery builds the stack before it is shared with any \
   operation; normal items/next_seq writers hold the stack lock"]
