(* Montage hashmap (paper Fig. 2): a chained map under striped bucket
   locks whose *abstract* state — the bag of key/value pairs — lives in
   NVM payloads, while the entire lookup structure (chain heads, chain
   nodes, cached keys, locks) is transient OCaml-heap data rebuilt on
   recovery.

   Each chain node caches its key in DRAM so traversal touches NVM only
   to read values.  Updates follow the Montage discipline: [pset] may
   return a fresh handle (a copying update across an epoch boundary),
   which the node — the single transient object indirecting to the
   payload, per well-formedness constraint 4 — reinstalls. *)

module E = Montage.Epoch_sys
module Kv = Montage.Payload.Kv
module Kv_content = Montage.Payload.Kv_content
module View = Montage.Payload.View

type node = { key : string; mutable payload : E.pblk; mutable next : node option }

(* Bucket [i]'s chain is [heads.(i)], guarded by [Util.Spin_lock.stripe
   locks i]: one fixed table of at most [stripes] locks, so building a
   map — every recovery builds one — allocates nothing per bucket and
   makes at most [stripes] mutexes.  Each bucket maps to exactly one
   lock; maps of at most [stripes] buckets keep a lock per bucket. *)
let stripes = 256

type t = {
  esys : E.t;
  heads : node option array;
  locks : Util.Spin_lock.table;
  size : int Atomic.t;
}

let create ?(buckets = 1 lsl 16) esys =
  if buckets <= 0 || buckets land (buckets - 1) <> 0 then
    invalid_arg (Printf.sprintf "Mhashmap: buckets = %d is not a positive power of two" buckets);
  {
    esys;
    heads = Array.make buckets None;
    locks = Util.Spin_lock.table ~stripes ~slots:buckets;
    size = Atomic.make 0;
  }

let index t key = Hashtbl.hash key land (Array.length t.heads - 1)

let size t = Atomic.get t.size
[@@montage.allow "R2: read-only statistics observer"]

let esys t = t.esys

(* The node's value in place: the payload's bytes after the cached
   key, read straight from the region. *)
let value_view t ~tid (n : node) =
  Kv.value_view t.esys ~tid n.payload ~klen:(String.length n.key)

(* The chain node holding [key]; raises [Absent], which no consumer
   can raise, so [find] needs no option and no closure. *)
exception Absent

let rec lookup key = function
  | Some n when String.equal n.key key -> n
  | Some n -> lookup key n.next
  | None -> raise_notrace Absent

(* Read-only: no BEGIN_OP needed (paper §3.1); the bucket lock is the
   transient synchronization.  [f] runs on the value in place under the
   bucket lock, which excludes every writer of the payload, so what it
   copies out is one version and nothing is copied on the way. *)
let find t ~tid key f =
  Util.Sched.yield "mhashmap.get";
  let i = index t key in
  let lock = Util.Spin_lock.stripe t.locks i in
  Util.Spin_lock.acquire lock;
  match f (value_view t ~tid (lookup key t.heads.(i))) with
  | r ->
      Util.Spin_lock.release lock;
      Some r
  | exception Absent ->
      Util.Spin_lock.release lock;
      None
  | exception e ->
      Util.Spin_lock.release lock;
      raise e

let get t ~tid key = find t ~tid key View.to_string

let contains t ~tid:_ key =
  Util.Sched.yield "mhashmap.contains";
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let rec find = function
        | None -> false
        | Some n when String.equal n.key key -> true
        | Some n -> find n.next
      in
      find t.heads.(i))

(* The one write walk under the bucket lock.  [decide] sees the key's
   current node ([None] if absent) and returns the whole payload
   content to store, or [None] to leave the map unchanged; the content
   then goes in through one [pset_fill] over the node's handle
   (installing the handle it returns) or one [pnew_fill] for a new
   node, inside an operation.  Nothing is read unless [decide] reads
   it, and [decide] must finish its reads before it returns: an
   in-place store must not read the payload it replaces.  [tag] names
   the caller's scheduling point. *)
let write t ~tid ~tag key decide =
  Util.Sched.yield tag;
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let insert prev curr =
        match decide None with
        | None -> ()
        | Some content ->
            E.with_op t.esys ~tid (fun () ->
                let fresh = { key; payload = E.pnew_fill t.esys ~tid content; next = curr } in
                (match prev with None -> t.heads.(i) <- Some fresh | Some p -> p.next <- Some fresh);
                Atomic.incr t.size)
      in
      let rec walk prev curr =
        match curr with
        | Some n when String.equal n.key key -> (
            match decide (Some n) with
            | None -> ()
            | Some content ->
                E.with_op t.esys ~tid (fun () ->
                    n.payload <- E.pset_fill t.esys ~tid n.payload content))
        | Some n when n.key > key -> insert prev curr
        | Some n -> walk (Some n) n.next
        | None -> insert prev None
      in
      walk None t.heads.(i))

(* Store a value written in place ([fill]) without reading the one it
   replaces: the key and the value are laid out once, straight into
   the payload. *)
let set t ~tid key fill =
  let content = Kv_content.fill key fill in
  write t ~tid ~tag:"mhashmap.set" key (fun _ -> Some content)

(* Insert, or update if the key exists; returns the previous value. *)
let put t ~tid key value =
  let content = Kv_content.fill key (Montage.Payload.fill_string value) in
  let old = ref None in
  write t ~tid ~tag:"mhashmap.put" key (fun n ->
      old := Option.map (fun n -> View.to_string (value_view t ~tid n)) n;
      Some content);
  !old

(* Insert only if absent; true on success. *)
let put_if_absent t ~tid key value =
  let content = Kv_content.fill key (Montage.Payload.fill_string value) in
  let stored = ref false in
  write t ~tid ~tag:"mhashmap.put_if_absent" key (function
    | Some _ -> None
    | None ->
        stored := true;
        Some content);
  !stored

(* Atomic read-modify-write over the value in place: [f] sees the
   key's current value as a view ([None] if absent) under the bucket
   lock, and its [Some] fill is stored — inserting if the key was
   absent — while [None] leaves the map unchanged.  This is the
   primitive the kvstore's conditional ops build on: get-then-put
   without the lock would lose concurrent updates.  The fill may read
   the view (an append copies the old value), so it is laid out in a
   staging buffer before the store begins. *)
let modify t ~tid key f =
  write t ~tid ~tag:"mhashmap.update" key (fun n ->
      Option.map
        (fun fill -> E.fill_bytes (Montage.Payload.bytes_of_fill (Kv_content.fill key fill)))
        (f (Option.map (value_view t ~tid) n)))

(* [modify] over strings; returns the previous value. *)
let update t ~tid key f =
  let old = ref None in
  modify t ~tid key (fun cur ->
      let cur = Option.map View.to_string cur in
      old := cur;
      Option.map Montage.Payload.fill_string (f cur));
  !old

(* Remove; returns the removed value. *)
let remove t ~tid key =
  Util.Sched.yield "mhashmap.remove";
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let rec walk prev curr =
        match curr with
        | Some n when String.equal n.key key ->
            E.with_op t.esys ~tid (fun () ->
                let old = View.to_string (value_view t ~tid n) in
                E.pdelete t.esys ~tid n.payload;
                (match prev with None -> t.heads.(i) <- n.next | Some p -> p.next <- n.next);
                Atomic.decr t.size;
                Some old)
        | Some n when n.key > key -> None
        | Some n -> walk (Some n) n.next
        | None -> None
      in
      walk None t.heads.(i))

(* Snapshot of all pairs (quiescent use only: tests, recovery checks). *)
let to_alist t ~tid =
  let rec collect acc = function
    | None -> acc
    | Some n -> collect ((n.key, View.to_string (value_view t ~tid n)) :: acc) n.next
  in
  let acc = ref [] in
  for i = 0 to Array.length t.heads - 1 do
    acc := Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () -> collect !acc t.heads.(i))
  done;
  !acc

(* ---- recovery ---- *)

(* Rebuild the transient index from recovered payloads.  Single slice:
   the whole map; multiple slices can be inserted by parallel domains
   via [recover_slice] (bucket locks make it safe).  Only each key is
   read, so the handles stay cold until their first [get].  Two live
   payloads carrying one key is corruption: splicing both would let
   [get] silently answer with whichever comes first.  The check holds
   across slices, since every slice splices into the same chains. *)

(* The node [key] belongs after in a sorted chain: [None] for the
   head, else the last node with a smaller key. *)
let rec insert_after key prev curr =
  match curr with Some n when n.key < key -> insert_after key curr n.next | _ -> prev

(* Per record: one key read and one node, and no closure — the bucket
   lock is taken and released around the splice directly, and released
   before a duplicate raises.  The slice's count joins [size] once. *)
let recover_slice t payloads =
  for j = 0 to Array.length payloads - 1 do
    let p = payloads.(j) in
    let key = Kv.key_unsafe t.esys p in
    let i = index t key in
    let lock = Util.Spin_lock.stripe t.locks i in
    Util.Spin_lock.acquire lock;
    let head = t.heads.(i) in
    let prev = insert_after key None head in
    let next = match prev with None -> head | Some pr -> pr.next in
    let clash =
      match next with
      | Some n when String.equal n.key key -> n.payload.uid
      | _ ->
          let fresh = Some { key; payload = p; next } in
          (match prev with None -> t.heads.(i) <- fresh | Some pr -> pr.next <- fresh);
          0
    in
    Util.Spin_lock.release lock;
    if clash <> 0 then
      Montage.Errors.corrupt "mhashmap recovery: payloads uid %d and uid %d both carry key %S" clash
        p.uid key
  done;
  ignore (Atomic.fetch_and_add t.size (Array.length payloads))
[@@montage.allow
  "R2: recovery-time counter; parallel slices' adds commute and \
   recovery completes before the map is shared with any operation"]

(* Every slice's domain is joined before the first failure is raised,
   so a [Corrupt] from one slice leaves no domain running. *)
let recover ?(buckets = 1 lsl 16) ?(threads = 1) esys payloads =
  let t = create ~buckets esys in
  if threads <= 1 then recover_slice t payloads
  else
    E.slices payloads ~k:threads
    |> Array.map (fun s ->
           Domain.spawn (fun () -> match recover_slice t s with () -> None | exception e -> Some e))
    |> Array.map Domain.join
    |> Array.iter (Option.iter raise);
  t
