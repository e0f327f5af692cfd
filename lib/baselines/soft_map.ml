(* SOFT-style hashmap (Zuriel et al., OOPSLA '19): persist only the
   semantic data, keep a *full copy* in DRAM, and read exclusively from
   DRAM.

   Every insert persists one PNode (key, value, validity bit) with a
   write-back + fence before linearizing; every remove persists the
   invalidation the same way — strict durable linearizability with a
   single fence per update and *zero* NVM traffic on reads.  That is
   why SOFT leads every read path in the paper's Figure 7 and why it
   cannot exploit NVM capacity (the whole data set lives in DRAM too)
   and does not support atomic update of an existing key (the paper's
   benchmark avoids updates for this reason; [put] here is
   insert-if-absent, returning false when the key exists).

   PNode layout: [1 valid | 4 klen | 4 vlen | key | value]. *)

type node = {
  key : string;
  value : string; (* DRAM copy: reads never touch NVM *)
  pnode : int; (* offset of the persistent twin *)
  mutable next : node option;
}

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

let write_pnode t ~tid ~key ~value =
  let region = Pmem.region t.pm in
  let klen = String.length key and vlen = String.length value in
  let off = Pmem.alloc t.pm ~tid ~size:(9 + klen + vlen) in
  Nvm.Region.set_u8 region ~off 1;
  Nvm.Region.set_i32 region ~off:(off + 1) klen;
  Nvm.Region.set_i32 region ~off:(off + 5) vlen;
  Nvm.Region.write_string region ~off:(off + 9) key;
  Nvm.Region.write_string region ~off:(off + 9 + klen) value;
  (* strict durability: persisted before the insert linearizes *)
  Pmem.persist t.pm ~tid ~off ~len:(9 + klen + vlen);
  off

(* Reads are pure DRAM. *)
let get t ~tid:_ key =
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let rec find = function
        | None -> None
        | Some n when String.equal n.key key -> Some n.value
        | Some n -> find n.next
      in
      find t.heads.(i))

(* Insert-if-absent; [false] when the key exists (no atomic update). *)
let put t ~tid key value =
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let rec present = function
        | None -> false
        | Some n when String.equal n.key key -> true
        | Some n -> present n.next
      in
      if present t.heads.(i) then false
      else begin
        let pnode = write_pnode t ~tid ~key ~value in
        t.heads.(i) <- Some { key; value; pnode; next = t.heads.(i) };
        Atomic.incr t.size;
        true
      end)

let remove t ~tid key =
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let region = Pmem.region t.pm in
      let rec walk prev curr =
        match curr with
        | None -> None
        | Some n when String.equal n.key key ->
            (* persist the invalidation before linearizing the remove *)
            Nvm.Region.set_u8 region ~off:n.pnode 0;
            Pmem.persist t.pm ~tid ~off:n.pnode ~len:1;
            Pmem.free t.pm ~tid n.pnode;
            (match prev with None -> t.heads.(i) <- n.next | Some p -> p.next <- n.next);
            Atomic.decr t.size;
            Some n.value
        | Some n -> walk (Some n) n.next
      in
      walk None t.heads.(i))
