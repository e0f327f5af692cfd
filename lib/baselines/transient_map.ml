(* Transient reference hashmaps (paper's DRAM (T) and NVM (T)).

   Same shape as the Montage hashmap — sorted chains under striped
   bucket locks, transient index on the OCaml heap — but with no
   persistence support.
   DRAM (T) keeps values as OCaml strings; NVM (T) stores each value in
   a region block (paying the simulated media costs on reads/writes)
   without any write-back or fencing, which is the paper's performance
   ceiling for a persistent map. *)

type placement = Dram | Nvm of Pmem.t

type node = {
  key : string;
  mutable value : string; (* Dram placement *)
  mutable block : int; (* Nvm placement: block offset, -1 if unused *)
  mutable next : node option;
}

(* Mhashmap's lock table: chain [i] is [heads.(i)], guarded by
   [Util.Spin_lock.stripe locks i]; the reference maps share the size
   of its stripe table so their lock costs stay comparable. *)
let stripes = 256

type t = {
  placement : placement;
  heads : node option array;
  locks : Util.Spin_lock.table;
  size : int Atomic.t;
}

let create ?(buckets = 1 lsl 16) placement =
  {
    placement;
    heads = Array.make buckets None;
    locks = Util.Spin_lock.table ~stripes ~slots:buckets;
    size = Atomic.make 0;
  }

let index t key = Hashtbl.hash key land (Array.length t.heads - 1)
let size t = Atomic.get t.size

(* Every node, each chain under its bucket's lock: whole-map iteration
   for Pronto's checkpointer. *)
let iter t f =
  for i = 0 to Array.length t.heads - 1 do
    Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
        let rec chain = function
          | None -> ()
          | Some n ->
              f n;
              chain n.next
        in
        chain t.heads.(i))
  done

let node_value t n =
  match t.placement with Dram -> n.value | Nvm pm -> Pmem.read_block pm ~off:n.block

(* The DRAM baseline must pay the same per-operation byte copy a C/C++
   structure pays when it memcpys the value into its own node; handing
   out the caller's immutable string would make DRAM (T) artificially
   zero-copy. *)
let private_copy s = Bytes.unsafe_to_string (Bytes.of_string s)

let make_node t ~tid key value next =
  match t.placement with
  | Dram -> { key; value = private_copy value; block = -1; next }
  | Nvm pm -> { key; value = ""; block = Pmem.write_block pm ~tid ~data:value; next }

let set_node_value t ~tid n value =
  match t.placement with
  | Dram -> n.value <- private_copy value
  | Nvm pm ->
      Pmem.free pm ~tid n.block;
      n.block <- Pmem.write_block pm ~tid ~data:value

let free_node t ~tid n = match t.placement with Dram -> () | Nvm pm -> Pmem.free pm ~tid n.block

let get t ~tid:_ key =
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let rec find = function
        | None -> None
        | Some n when String.equal n.key key -> Some (node_value t n)
        | Some n -> find n.next
      in
      find t.heads.(i))

let put t ~tid key value =
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let rec walk prev curr =
        match curr with
        | Some n when String.equal n.key key ->
            let old = node_value t n in
            set_node_value t ~tid n value;
            Some old
        | Some n when n.key > key ->
            let fresh = make_node t ~tid key value curr in
            (match prev with None -> t.heads.(i) <- Some fresh | Some p -> p.next <- Some fresh);
            Atomic.incr t.size;
            None
        | Some n -> walk (Some n) n.next
        | None ->
            let fresh = make_node t ~tid key value None in
            (match prev with None -> t.heads.(i) <- Some fresh | Some p -> p.next <- Some fresh);
            Atomic.incr t.size;
            None
      in
      walk None t.heads.(i))

(* Atomic read-modify-write under the bucket lock, mirroring
   [Mhashmap.update]: [f]'s [Some] result is stored (inserting if the
   key was absent); [None] leaves the map unchanged.  Returns the
   previous value.  Keeps the transient references honest when the
   kvstore benchmarks race add/replace/incr against each other. *)
let update t ~tid key f =
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let insert prev curr value =
        let fresh = make_node t ~tid key value curr in
        (match prev with None -> t.heads.(i) <- Some fresh | Some p -> p.next <- Some fresh);
        Atomic.incr t.size
      in
      let rec walk prev curr =
        match curr with
        | Some n when String.equal n.key key ->
            let old = node_value t n in
            (match f (Some old) with
            | Some value -> set_node_value t ~tid n value
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
      walk None t.heads.(i))

let remove t ~tid key =
  let i = index t key in
  Util.Spin_lock.with_lock (Util.Spin_lock.stripe t.locks i) (fun () ->
      let rec walk prev curr =
        match curr with
        | Some n when String.equal n.key key ->
            let old = node_value t n in
            free_node t ~tid n;
            (match prev with None -> t.heads.(i) <- n.next | Some p -> p.next <- n.next);
            Atomic.decr t.size;
            Some old
        | Some n when n.key > key -> None
        | Some n -> walk (Some n) n.next
        | None -> None
      in
      walk None t.heads.(i))
