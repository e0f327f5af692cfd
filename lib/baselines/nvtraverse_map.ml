(* NVTraverse-style hashmap (Friedman et al., PLDI '20).

   NVTraverse transforms a "traversal data structure" into a durably
   linearizable one: the traversal prefix runs with no persistence
   instrumentation, but before an operation's critical (linearizing)
   accesses it must write back the nodes it will depend on and fence —
   and this applies to *reads as well as writes*, which is why the
   paper observes NVTraverse keeping pace at low thread counts and
   falling behind once write-combining contention appears.

   Concretely per operation on a chained hashmap:
   - get: flush the matched node, fence, then read it;
   - insert: flush the predecessor, write + flush the new node, fence,
     link;
   - remove: flush predecessor and victim, fence, unlink.

   Node payloads live in NVM; the chain itself is transient (the
   transformation persists the semantic nodes, and our flush accounting
   charges the same critical-path costs). *)

type node = { key : string; block : int; vlen : int; mutable next : node option }

(* Mhashmap's bucket shape: chain [i] is [heads.(i)], guarded by one
   of [Transient_map.stripes] striped locks. *)
type t = {
  pm : Pmem.t;
  heads : node option array;
  locks : Util.Spin_lock.table;
  size : int Atomic.t;
}

let create ?(buckets = 1 lsl 16) pm =
  {
    pm;
    heads = Array.make buckets None;
    locks = Util.Spin_lock.table ~stripes:Transient_map.stripes ~slots:buckets;
    size = Atomic.make 0;
  }

let index t key = Hashtbl.hash key land (Array.length t.heads - 1)
let size t = Atomic.get t.size

let node_block_len n = 4 + String.length n.key + n.vlen

let get t ~tid key =
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let rec find = function
        | None -> None
        | Some n when String.equal n.key key ->
            (* ensure-persisted before depending on the node (the
               transformation's read-path flush + fence) *)
            Pmem.persist t.pm ~tid ~off:n.block ~len:(node_block_len n);
            Pmem.expect_fenced t.pm ~what:"nvtraverse_map.get: node durable before dependent read"
              ~off:n.block ~len:(node_block_len n);
            Some (Pmem.read_block t.pm ~off:n.block)
        | Some n -> find n.next
      in
      find t.heads.(i))

let put t ~tid key value =
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let rec walk prev curr =
        match curr with
        | Some n when String.equal n.key key ->
            let old = Pmem.read_block t.pm ~off:n.block in
            (* flush the node we traversed to, then persist the update *)
            Pmem.persist t.pm ~tid ~off:n.block ~len:(node_block_len n);
            Pmem.free t.pm ~tid n.block;
            let block = Pmem.write_block t.pm ~tid ~data:value in
            Pmem.persist t.pm ~tid ~off:block ~len:(4 + String.length value) |> ignore;
            Pmem.expect_fenced t.pm ~what:"nvtraverse_map.put: updated value durable before link"
              ~off:block ~len:(4 + String.length value);
            let fresh = { key; block; vlen = String.length value; next = n.next } in
            (match prev with None -> t.heads.(i) <- Some fresh | Some p -> p.next <- Some fresh);
            Some old
        | Some n when n.key > key -> insert prev curr
        | Some n -> walk (Some n) n.next
        | None -> insert prev None
      and insert prev curr =
        (* flush the predecessor's payload (critical traversal suffix) *)
        (match prev with
        | Some p -> Pmem.persist t.pm ~tid ~off:p.block ~len:(node_block_len p)
        | None -> ());
        let block = Pmem.write_block t.pm ~tid ~data:value in
        Pmem.persist t.pm ~tid ~off:block ~len:(4 + String.length value);
        Pmem.expect_fenced t.pm ~what:"nvtraverse_map.put: new node durable before link"
          ~off:block ~len:(4 + String.length value);
        let fresh = { key; block; vlen = String.length value; next = curr } in
        (match prev with None -> t.heads.(i) <- Some fresh | Some p -> p.next <- Some fresh);
        Atomic.incr t.size;
        None
      in
      walk None t.heads.(i))

let remove t ~tid key =
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let rec walk prev curr =
        match curr with
        | Some n when String.equal n.key key ->
            let old = Pmem.read_block t.pm ~off:n.block in
            (match prev with
            | Some p -> Pmem.persist t.pm ~tid ~off:p.block ~len:(node_block_len p)
            | None -> ());
            Pmem.persist t.pm ~tid ~off:n.block ~len:(node_block_len n);
            Pmem.expect_fenced t.pm ~what:"nvtraverse_map.remove: victim durable before unlink"
              ~off:n.block ~len:(node_block_len n);
            Pmem.free t.pm ~tid n.block;
            (match prev with None -> t.heads.(i) <- n.next | Some p -> p.next <- n.next);
            Atomic.decr t.size;
            Some old
        | Some n when n.key > key -> None
        | Some n -> walk (Some n) n.next
        | None -> None
      in
      walk None t.heads.(i))
