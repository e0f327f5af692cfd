(* Montage hashmap (paper Fig. 2): a lock-per-bucket chained map whose
   *abstract* state — the bag of key/value pairs — lives in NVM
   payloads, while the entire lookup structure (bucket array, chain
   nodes, cached keys) is transient OCaml-heap data rebuilt on
   recovery.

   Each chain node caches its key in DRAM so traversal touches NVM only
   to read values.  Updates follow the Montage discipline: [pset] may
   return a fresh handle (a copying update across an epoch boundary),
   which the node — the single transient object indirecting to the
   payload, per well-formedness constraint 4 — reinstalls. *)

module E = Montage.Epoch_sys
module Kv = Montage.Payload.Kv

type node = { key : string; mutable payload : E.pblk; mutable next : node option }

type bucket = { lock : Util.Spin_lock.t; mutable head : node option }

type t = { esys : E.t; buckets : bucket array; size : int Atomic.t }

let create ?(buckets = 1 lsl 16) esys =
  {
    esys;
    buckets = Array.init buckets (fun _ -> { lock = Util.Spin_lock.create (); head = None });
    size = Atomic.make 0;
  }

let bucket_of t key = t.buckets.(Hashtbl.hash key land (Array.length t.buckets - 1))

let size t = Atomic.get t.size
[@@montage.allow "R2: read-only statistics observer"]

let esys t = t.esys

(* Read-only: no BEGIN_OP needed (paper §3.1); the bucket lock is the
   transient synchronization. *)
let get t ~tid key =
  Util.Sched.yield "mhashmap.get";
  let b = bucket_of t key in
  Util.Spin_lock.with_lock b.lock (fun () ->
      let rec find = function
        | None -> None
        | Some n when String.equal n.key key ->
            (* value-only decode: the node already caches the key, and a
               warm handle returns its memo without touching NVM *)
            Some (Kv.get_value t.esys ~tid n.payload)
        | Some n -> find n.next
      in
      find b.head)

let contains t ~tid:_ key =
  Util.Sched.yield "mhashmap.contains";
  let b = bucket_of t key in
  Util.Spin_lock.with_lock b.lock (fun () ->
      let rec find = function
        | None -> false
        | Some n when String.equal n.key key -> true
        | Some n -> find n.next
      in
      find b.head)

(* Insert, or update if the key exists; returns the previous value. *)
let put t ~tid key value =
  Util.Sched.yield "mhashmap.put";
  let b = bucket_of t key in
  Util.Spin_lock.with_lock b.lock (fun () ->
      E.with_op t.esys ~tid (fun () ->
          let rec walk prev curr =
            match curr with
            | Some n when String.equal n.key key ->
                let old = Kv.get_value t.esys ~tid n.payload in
                n.payload <- Kv.set t.esys ~tid n.payload (key, value);
                Some old
            | Some n when n.key > key ->
                let payload = Kv.pnew t.esys ~tid (key, value) in
                let fresh = { key; payload; next = curr } in
                (match prev with None -> b.head <- Some fresh | Some p -> p.next <- Some fresh);
                Atomic.incr t.size;
                None
            | Some n -> walk (Some n) n.next
            | None ->
                let payload = Kv.pnew t.esys ~tid (key, value) in
                let fresh = { key; payload; next = None } in
                (match prev with None -> b.head <- Some fresh | Some p -> p.next <- Some fresh);
                Atomic.incr t.size;
                None
          in
          walk None b.head))

(* Insert only if absent; true on success. *)
let put_if_absent t ~tid key value =
  Util.Sched.yield "mhashmap.put_if_absent";
  let b = bucket_of t key in
  Util.Spin_lock.with_lock b.lock (fun () ->
      let rec present = function
        | None -> false
        | Some n when String.equal n.key key -> true
        | Some n when n.key > key -> false
        | Some n -> present n.next
      in
      if present b.head then false
      else
        E.with_op t.esys ~tid (fun () ->
            let payload = Kv.pnew t.esys ~tid (key, value) in
            let rec splice prev curr =
              match curr with
              | Some n when n.key < key -> splice (Some n) n.next
              | _ ->
                  let fresh = { key; payload; next = curr } in
                  (match prev with None -> b.head <- Some fresh | Some p -> p.next <- Some fresh)
            in
            splice None b.head;
            Atomic.incr t.size;
            true))

(* Atomic read-modify-write: run [f] on the key's current value (None
   if absent) under the bucket lock and store its [Some] result —
   inserting if the key was absent — or leave the map unchanged on
   [None].  Returns the previous value.  This is the primitive the
   kvstore's add/replace/incr/decr/CAS ops build on: get-then-put
   without the lock would lose concurrent updates. *)
let update t ~tid key f =
  Util.Sched.yield "mhashmap.update";
  let b = bucket_of t key in
  Util.Spin_lock.with_lock b.lock (fun () ->
      let insert prev curr value =
        E.with_op t.esys ~tid (fun () ->
            let payload = Kv.pnew t.esys ~tid (key, value) in
            let fresh = { key; payload; next = curr } in
            (match prev with None -> b.head <- Some fresh | Some p -> p.next <- Some fresh);
            Atomic.incr t.size)
      in
      let rec walk prev curr =
        match curr with
        | Some n when String.equal n.key key ->
            let old = Kv.get_value t.esys ~tid n.payload in
            (match f (Some old) with
            | Some value ->
                E.with_op t.esys ~tid (fun () ->
                    n.payload <- Kv.set t.esys ~tid n.payload (key, value))
            | None -> ());
            Some old
        | Some n when n.key > key ->
            (match f None with Some value -> insert prev curr value | None -> ());
            None
        | Some n -> walk (Some n) n.next
        | None ->
            (match f None with Some value -> insert prev curr value | None -> ());
            None
      in
      walk None b.head)

(* Remove; returns the removed value. *)
let remove t ~tid key =
  Util.Sched.yield "mhashmap.remove";
  let b = bucket_of t key in
  Util.Spin_lock.with_lock b.lock (fun () ->
      let rec walk prev curr =
        match curr with
        | Some n when String.equal n.key key ->
            E.with_op t.esys ~tid (fun () ->
                let old = Kv.get_value t.esys ~tid n.payload in
                E.pdelete t.esys ~tid n.payload;
                (match prev with None -> b.head <- n.next | Some p -> p.next <- n.next);
                Atomic.decr t.size;
                Some old)
        | Some n when n.key > key -> None
        | Some n -> walk (Some n) n.next
        | None -> None
      in
      walk None b.head)

(* Snapshot of all pairs (quiescent use only: tests, recovery checks). *)
let to_alist t ~tid =
  Array.fold_left
    (fun acc b ->
      Util.Spin_lock.with_lock b.lock (fun () ->
          let rec collect acc = function
            | None -> acc
            | Some n ->
                let k, v = Kv.get t.esys ~tid n.payload in
                collect ((k, v) :: acc) n.next
          in
          collect acc b.head))
    [] t.buckets

(* ---- recovery ---- *)

(* Rebuild the transient index from recovered payloads.  Single slice:
   the whole map; multiple slices can be inserted by parallel domains
   via [recover_slice] (bucket locks make it safe).  Only each key is
   read, so the handles stay cold until their first [get].  Two live
   payloads carrying one key is corruption: splicing both would let
   [get] silently answer with whichever comes first. *)
let recover_slice t payloads =
  Array.iter
    (fun p ->
      let key = Kv.key_unsafe t.esys p in
      let b = bucket_of t key in
      Util.Spin_lock.with_lock b.lock (fun () ->
          let rec splice prev curr =
            match curr with
            | Some n when n.key < key -> splice (Some n) n.next
            | Some n when n.key = key ->
                Montage.Errors.corrupt
                  "mhashmap recovery: payloads uid %d and uid %d both carry key %S" n.payload.uid
                  p.uid key
            | _ ->
                let fresh = { key; payload = p; next = curr } in
                (match prev with None -> b.head <- Some fresh | Some pr -> pr.next <- Some fresh)
          in
          splice None b.head;
          Atomic.incr t.size))
    payloads
[@@montage.allow
  "R2: recovery-time counter; parallel slices' incrs commute and \
   recovery completes before the map is shared with any operation"]

let recover ?(buckets = 1 lsl 16) ?(threads = 1) esys payloads =
  let t = create ~buckets esys in
  if threads <= 1 then recover_slice t payloads
  else begin
    let slices = E.slices payloads ~k:threads in
    let domains = Array.map (fun s -> Domain.spawn (fun () -> recover_slice t s)) slices in
    Array.iter Domain.join domains
  end;
  t
