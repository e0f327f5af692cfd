(* Montage ordered map: a lock-based concurrent skip list.

   The paper's §6.1 mentions "various tree-based maps" built on
   Montage; this is the repository's ordered-map representative.  As
   with every Montage structure, only the key/value payloads live in
   NVM — the entire tower structure is transient and rebuilt on
   recovery, which makes recovery just a sequence of ordered inserts.

   Concurrency: a hand-over-hand-free design with one striped lock per
   key region would complicate the example; since the paper's maps use
   lock-based buckets, we use a single structural lock for mutations
   and lock-free reads via forward pointers that are only ever swung
   from one valid state to another (readers may miss in-flight inserts,
   which is linearizable for a map).  Mutations follow the Montage
   discipline inside begin_op/end_op. *)

module E = Montage.Epoch_sys
module Kv = Montage.Payload.Kv

let max_level = 16

type node = {
  key : string;
  mutable payload : E.pblk option; (* None only for the head sentinel *)
  forward : node option array; (* length = node's level *)
}

type t = {
  esys : E.t;
  head : node;
  lock : Util.Spin_lock.t;
  mutable level : int; (* highest level in use *)
  size : int Atomic.t;
  seed : Util.Xoshiro.t; (* level generator; used under the lock *)
}

let create ?(seed = 0x5EED) esys =
  {
    esys;
    head = { key = ""; payload = None; forward = Array.make max_level None };
    lock = Util.Spin_lock.create ();
    level = 1;
    size = Atomic.make 0;
    seed = Util.Xoshiro.create seed;
  }

let esys t = t.esys

let size t = Atomic.get t.size
[@@montage.allow "R2: read-only statistics observer"]

let random_level t =
  let rec toss level =
    if level < max_level && Util.Xoshiro.bool t.seed then toss (level + 1) else level
  in
  toss 1

(* Walk greater levels first; returns the last node with key < [key]
   at every level, as the classic algorithm does. *)
let find_predecessors t key =
  let preds = Array.make max_level t.head in
  let node = ref t.head in
  for level = t.level - 1 downto 0 do
    let rec walk () =
      match !node.forward.(level) with
      | Some next when next.key < key ->
          node := next;
          walk ()
      | _ -> ()
    in
    walk ();
    preds.(level) <- !node
  done;
  preds

(* Read-only: traverse the transient index; only the final payload read
   touches NVM. *)
let get t ~tid key =
  Util.Sched.yield "mskiplist.get";
  let node = ref t.head in
  for level = t.level - 1 downto 0 do
    let rec walk () =
      match !node.forward.(level) with
      | Some next when next.key < key ->
          node := next;
          walk ()
      | _ -> ()
    in
    walk ()
  done;
  match !node.forward.(0) with
  | Some next when String.equal next.key key -> (
      match next.payload with
      (* value-only read: the node caches the key; the value is
         decoded straight from the region in one seqlock window, so
         this lock-free read sees one whole version *)
      | Some p -> Some (Kv.get_value t.esys ~tid p)
      | None -> None)
  | _ -> None

(* Insert or update; [keep] decodes the value it replaces, which the
   caller returns. *)
let write t ~tid key value ~keep =
  Util.Sched.yield (if keep then "mskiplist.put" else "mskiplist.set");
  Util.Spin_lock.with_lock t.lock (fun () ->
      E.with_op t.esys ~tid (fun () ->
          let preds = find_predecessors t key in
          match preds.(0).forward.(0) with
          | Some node when String.equal node.key key ->
              (* update in place (payload may be replaced by pset) *)
              let p = Option.get node.payload in
              let old = if keep then Some (Kv.get_value t.esys ~tid p) else None in
              node.payload <- Some (Kv.set t.esys ~tid p (key, value));
              old
          | _ ->
              let level = random_level t in
              if level > t.level then begin
                for l = t.level to level - 1 do
                  preds.(l) <- t.head
                done;
                t.level <- level
              end;
              let payload = Kv.pnew t.esys ~tid (key, value) in
              let fresh = { key; payload = Some payload; forward = Array.make level None } in
              for l = 0 to level - 1 do
                fresh.forward.(l) <- preds.(l).forward.(l);
                preds.(l).forward.(l) <- Some fresh
              done;
              Atomic.incr t.size;
              None))

let put t ~tid key value = write t ~tid key value ~keep:true
let set t ~tid key value = ignore (write t ~tid key value ~keep:false)

let remove t ~tid key =
  Util.Sched.yield "mskiplist.remove";
  Util.Spin_lock.with_lock t.lock (fun () ->
      let preds = find_predecessors t key in
      match preds.(0).forward.(0) with
      | Some node when String.equal node.key key ->
          E.with_op t.esys ~tid (fun () ->
              let p = Option.get node.payload in
              let old = Kv.get_value t.esys ~tid p in
              E.pdelete t.esys ~tid p;
              for l = 0 to Array.length node.forward - 1 do
                if l < t.level then
                  match preds.(l).forward.(l) with
                  | Some n when n == node -> preds.(l).forward.(l) <- node.forward.(l)
                  | _ -> ()
              done;
              Atomic.decr t.size;
              Some old)
      | _ -> None)

(* Ordered iteration — what a hash map cannot give you. *)
let fold_range t ~tid ~lo ~hi ~init f =
  let node = ref t.head in
  for level = t.level - 1 downto 0 do
    let rec walk () =
      match !node.forward.(level) with
      | Some next when next.key < lo ->
          node := next;
          walk ()
      | _ -> ()
    in
    walk ()
  done;
  let acc = ref init in
  let rec scan cursor =
    match cursor with
    | Some n when n.key <= hi ->
        (match n.payload with
        | Some p ->
            let k, v = Kv.get t.esys ~tid p in
            acc := f !acc k v
        | None -> ());
        scan n.forward.(0)
    | _ -> ()
  in
  scan !node.forward.(0);
  !acc

let min_binding t ~tid =
  match t.head.forward.(0) with
  | Some n ->
      let p = Option.get n.payload in
      Some (Kv.get t.esys ~tid p)
  | None -> None

let to_alist t ~tid =
  let rec scan acc = function
    | Some n ->
        let p = Option.get n.payload in
        scan (Kv.get t.esys ~tid p :: acc) n.forward.(0)
    | None -> List.rev acc
  in
  scan [] t.head.forward.(0)

(* ---- recovery ---- *)

let recover ?(threads = 1) esys payloads =
  let t = create esys in
  if Array.length payloads = 0 then t
  else begin
  (* sort recovered keys, then bulk-insert without epoch machinery;
     parallel slices contend on the single lock, so recovery is
     sequentialized structurally but slices can read keys in parallel.
     Only keys are read: the handles stay cold until their first get *)
  let decoded =
    if threads <= 1 then Array.map (fun p -> (Kv.key_unsafe esys p, p)) payloads
    else begin
      let out = Array.make (Array.length payloads) ("", payloads.(0)) in
      let slices = E.slices payloads ~k:threads in
      let offsets = Array.make (Array.length slices) 0 in
      let pos = ref 0 in
      Array.iteri
        (fun i s ->
          offsets.(i) <- !pos;
          pos := !pos + Array.length s)
        slices;
      let ds =
        Array.mapi
          (fun i s ->
            Domain.spawn (fun () ->
                Array.iteri
                  (fun j p -> out.(offsets.(i) + j) <- (Kv.key_unsafe esys p, p))
                  s))
          slices
      in
      Array.iter Domain.join ds;
      out
    end
  in
  Array.sort (fun (a, _) (b, _) -> compare a b) decoded;
  Array.iter
    (fun (key, p) ->
      let preds = find_predecessors t key in
      let level = random_level t in
      if level > t.level then begin
        for l = t.level to level - 1 do
          preds.(l) <- t.head
        done;
        t.level <- level
      end;
      let fresh = { key; payload = Some p; forward = Array.make level None } in
      for l = 0 to level - 1 do
        fresh.forward.(l) <- preds.(l).forward.(l);
        preds.(l).forward.(l) <- Some fresh
      done;
      Atomic.incr t.size)
    decoded;
    t
  end
[@@montage.allow
  "R1: recovery builds the skiplist before it is shared with any \
   operation; normal level writers hold the structure lock"]
[@@montage.allow
  "R2: recovery-time counter, incremented before the structure is \
   shared with any operation"]
