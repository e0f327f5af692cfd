(* Montage queue (paper §3.1, §6.1): a single-lock FIFO queue.

   The abstract state is the items and their order, so each payload
   carries a consecutive sequence number; the transient index is a
   plain OCaml [Queue] of (seq, handle) pairs.  Recovery sorts
   surviving payloads by sequence number — the persisted order is
   exactly the linearization order of the enqueues that survived the
   crash cut. *)

module E = Montage.Epoch_sys
module Seq = Montage.Payload.Seq

type t = {
  esys : E.t;
  lock : Util.Spin_lock.t;
  items : (int * E.pblk) Queue.t;
  mutable next_seq : int;
}

let create esys = { esys; lock = Util.Spin_lock.create (); items = Queue.create (); next_seq = 1 }

let esys t = t.esys
let length t = Util.Spin_lock.with_lock t.lock (fun () -> Queue.length t.items)
let is_empty t = length t = 0

let enqueue t ~tid value =
  Util.Sched.yield "mqueue.enqueue";
  Util.Spin_lock.with_lock t.lock (fun () ->
      E.with_op t.esys ~tid (fun () ->
          let seq = t.next_seq in
          t.next_seq <- seq + 1;
          let payload = Seq.pnew t.esys ~tid (seq, value) in
          Queue.push (seq, payload) t.items))

let dequeue t ~tid =
  Util.Sched.yield "mqueue.dequeue";
  Util.Spin_lock.with_lock t.lock (fun () ->
      if Queue.is_empty t.items then None
      else
        E.with_op t.esys ~tid (fun () ->
            let _, payload = Queue.pop t.items in
            let _, value = Seq.get t.esys ~tid payload in
            E.pdelete t.esys ~tid payload;
            Some value))

(* Front element without removing it (read-only, no BEGIN_OP). *)
let peek t ~tid =
  Util.Sched.yield "mqueue.peek";
  Util.Spin_lock.with_lock t.lock (fun () ->
      match Queue.peek_opt t.items with
      | None -> None
      | Some (_, payload) ->
          let _, value = Seq.get t.esys ~tid payload in
          Some value)

(* ---- recovery ---- *)

let recover esys payloads =
  let t = create esys in
  let entries =
    Array.map (fun p -> (Seq.seq_unsafe esys p, p)) payloads
  in
  Array.sort (fun (a, _) (b, _) -> compare a b) entries;
  Array.iter (fun (seq, p) -> Queue.push (seq, p) t.items) entries;
  (match Array.length entries with
  | 0 -> ()
  | n -> t.next_seq <- fst entries.(n - 1) + 1);
  t
[@@montage.allow
  "R1: recovery builds the queue before it is shared with any \
   operation; normal next_seq writers hold the queue lock"]
