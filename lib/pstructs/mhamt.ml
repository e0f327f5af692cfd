(* Montage-backed persistent HAMT with O(1) snapshots.

   The abstract state is a bag of [(key, seq, value-or-tombstone)]
   records in NVM payloads; the trie that indexes them is immutable
   transient OCaml-heap data.  Mutations path-copy from the changed
   leaf to the root and publish the new [(version, root)] pair with a
   single atomic store, so a snapshot is one atomic read and every
   published root names an immutable version forever.

   Durability discipline: an overwrite never [pset]s the old payload —
   a snapshot may still be reading it — it [pnew]s a fresh record with
   a larger [seq] and *retires* the old one.  A remove [pnew]s a
   tombstone ([seq], no value) in the same operation that retires the
   removed record, so the abstract remove is durable while the record's
   bytes stay pinned.  Retired payloads (plus their shadowing
   tombstones) reach [pdelete] — and from there the epoch system's
   exchange-claimed reclamation — only once no live snapshot's version
   precedes the retirement, in one op so a crash can't separate them.
   Recovery keeps the largest-[seq] record per key and queues every
   superseded block for the same deferred reclamation path. *)

module E = Montage.Epoch_sys
module Errors = Montage.Errors
module PView = Montage.Payload.View

(* ---- record payloads: (key, seq, value) / (key, seq, tombstone) ---- *)

module Rec_content = struct
  type t = string * int * string option

  (* [8B seq LE | 1B kind | 4B klen LE | key | value] *)
  let klen_at = 9
  let key_at = 13

  (* The fixed fields in front of the key; recovery reads only these
     and the key. *)
  let seq_of b = Int64.to_int (Bytes.get_int64_le b 0)
  let is_live b = Bytes.get b 8 <> '\000'

  let encode (key, seq, value) =
    let klen = String.length key in
    let vlen = match value with None -> 0 | Some v -> String.length v in
    {
      Montage.Payload.len = key_at + klen + vlen;
      write =
        (fun b at ->
          Bytes.set_int64_le b at (Int64.of_int seq);
          Bytes.set b (at + 8) (match value with None -> '\000' | Some _ -> '\001');
          Bytes.set_int32_le b (at + klen_at) (Int32.of_int klen);
          Bytes.blit_string key 0 b (at + key_at) klen;
          match value with
          | None -> ()
          | Some v -> Bytes.blit_string v 0 b (at + key_at + klen) vlen);
    }

  (* The value alone, for reads whose trie entry already holds the key. *)
  let value_of v =
    if PView.get_char v 8 = '\000' then None
    else
      let off = key_at + PView.get_int32_le v klen_at in
      Some (PView.sub_string v ~pos:off ~len:(PView.length v - off))

  let decode v =
    let klen = PView.get_int32_le v klen_at in
    (PView.sub_string v ~pos:key_at ~len:klen, PView.get_int64_le v 0, value_of v)
end

module Rec = Montage.Payload.Make (Rec_content)

(* ---- the immutable trie ---- *)

(* 4 bits per level over a 30-bit hash: shifts 0,4,...,28; two keys
   whose masked hashes differ always split at some level, and equal
   masked hashes share one collision [Leaf]. *)
let bits = 4
let fanout = 1 lsl bits
let hash_mask = 0x3FFFFFFF
let max_shift = 28

type entry = { ekey : string; payload : E.pblk }

type node =
  | Leaf of { lhash : int; entries : entry array }
  | Branch of { bitmap : int; children : node array }

let nil = Branch { bitmap = 0; children = [||] }

let popcount16 x =
  let x = (x land 0x5555) + ((x lsr 1) land 0x5555) in
  let x = (x land 0x3333) + ((x lsr 2) land 0x3333) in
  let x = (x land 0x0F0F) + ((x lsr 4) land 0x0F0F) in
  (x + (x lsr 8)) land 0x1F

let array_insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let array_remove a i = Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let array_set a i x =
  let b = Array.copy a in
  b.(i) <- x;
  b

let entry_index entries key =
  let n = Array.length entries in
  let rec scan i = if i = n then None else if String.equal entries.(i).ekey key then Some i else scan (i + 1) in
  scan 0

let rec find_entry node h shift key =
  match node with
  | Leaf l -> (
      if l.lhash <> h then None
      else match entry_index l.entries key with None -> None | Some i -> Some l.entries.(i))
  | Branch b ->
      let bit = 1 lsl ((h lsr shift) land (fanout - 1)) in
      if b.bitmap land bit = 0 then None
      else find_entry b.children.(popcount16 (b.bitmap land (bit - 1))) h (shift + bits) key

(* Push two hash-distinct leaves down until their nibbles split. *)
let rec join shift h1 n1 h2 e2 =
  if shift > max_shift then Errors.corrupt "Mhamt.join: equal 30-bit hashes reached a split";
  let i1 = (h1 lsr shift) land (fanout - 1) and i2 = (h2 lsr shift) land (fanout - 1) in
  if i1 = i2 then Branch { bitmap = 1 lsl i1; children = [| join (shift + bits) h1 n1 h2 e2 |] }
  else
    let l2 = Leaf { lhash = h2; entries = [| e2 |] } in
    Branch
      {
        bitmap = (1 lsl i1) lor (1 lsl i2);
        children = (if i1 < i2 then [| n1; l2 |] else [| l2; n1 |]);
      }

(* Path-copying insert/overwrite: the new root plus the displaced entry
   (None on fresh insert). *)
let rec insert node h shift entry =
  match node with
  | Branch b when b.bitmap = 0 -> (Leaf { lhash = h; entries = [| entry |] }, None)
  | Branch b ->
      let idx = (h lsr shift) land (fanout - 1) in
      let bit = 1 lsl idx in
      let pos = popcount16 (b.bitmap land (bit - 1)) in
      if b.bitmap land bit = 0 then
        ( Branch
            {
              bitmap = b.bitmap lor bit;
              children = array_insert b.children pos (Leaf { lhash = h; entries = [| entry |] });
            },
          None )
      else
        let child, old = insert b.children.(pos) h (shift + bits) entry in
        (Branch { bitmap = b.bitmap; children = array_set b.children pos child }, old)
  | Leaf l when l.lhash = h -> (
      match entry_index l.entries entry.ekey with
      | Some i -> (Leaf { lhash = h; entries = array_set l.entries i entry }, Some l.entries.(i))
      | None ->
          (Leaf { lhash = h; entries = array_insert l.entries (Array.length l.entries) entry }, None))
  | Leaf l -> (join shift l.lhash node h entry, None)

(* Path-copying remove: [Some (new_subtree_or_empty, removed)] when the
   key was present.  Single-leaf branches collapse so the trie shape is
   a function of its contents alone. *)
let rec remove_entry node h shift key =
  match node with
  | Leaf l when l.lhash = h -> (
      match entry_index l.entries key with
      | None -> None
      | Some i ->
          let removed = l.entries.(i) in
          let rest =
            if Array.length l.entries = 1 then None
            else Some (Leaf { lhash = h; entries = array_remove l.entries i })
          in
          Some (rest, removed))
  | Leaf _ -> None
  | Branch b -> (
      let idx = (h lsr shift) land (fanout - 1) in
      let bit = 1 lsl idx in
      if b.bitmap land bit = 0 then None
      else
        let pos = popcount16 (b.bitmap land (bit - 1)) in
        match remove_entry b.children.(pos) h (shift + bits) key with
        | None -> None
        | Some (child, removed) ->
            let bitmap, children =
              match child with
              | Some c -> (b.bitmap, array_set b.children pos c)
              | None -> (b.bitmap land lnot bit, array_remove b.children pos)
            in
            let rest =
              if bitmap = 0 then None
              else if Array.length children = 1 then
                match children.(0) with
                | Leaf _ as leaf -> Some leaf
                | Branch _ -> Some (Branch { bitmap; children })
              else Some (Branch { bitmap; children })
            in
            Some (rest, removed))

let rec iter_entries node f =
  match node with
  | Leaf l -> Array.iter f l.entries
  | Branch b -> Array.iter (fun c -> iter_entries c f) b.children

(* ---- the map ---- *)

type retired = { rver : int; rpayload : E.pblk; rtomb : E.pblk option }

type t = {
  esys : E.t;
  hash : string -> int;
  (* one atomic pair so snapshot is a single read *)
  state : (int * node) Atomic.t;
  size : int Atomic.t;
  (* single-writer lock: serializes mutations and guards [retired] *)
  wlock : Util.Spin_lock.t;
  retired : retired Queue.t; [@montage.guarded_by "wlock"]
  (* snapshot registry: view id -> pinned version *)
  slock : Util.Spin_lock.t;
  snaps : (int, int) Hashtbl.t; [@montage.guarded_by "slock"]
  mutable next_snap : int; [@montage.guarded_by "slock"]
}

type view = { v_owner : t; v_root : node; v_version : int; v_id : int; v_released : bool Atomic.t }

let create ?(hash = Hashtbl.hash) esys =
  {
    esys;
    hash;
    state = Atomic.make (0, nil);
    size = Atomic.make 0;
    wlock = Util.Spin_lock.create ();
    retired = Queue.create ();
    slock = Util.Spin_lock.create ();
    snaps = Hashtbl.create 16;
    next_snap = 0;
  }

let esys t = t.esys

let size t = Atomic.get t.size [@@montage.allow "R2: read-only statistics observer"]

let version t = fst (Atomic.get t.state) [@@montage.allow "R2: read-only statistics observer"]

let hkey t key = t.hash key land hash_mask

let value_of t ~tid e =
  match Montage.Payload.read t.esys ~tid e.payload Rec_content.value_of with
  | Some v -> v
  | None -> Errors.corrupt "Mhamt: tombstone record reached the trie"

(* ---- retirement & reclamation ---- *)

(* Oldest version any live snapshot can still read (max_int if none).
   A payload retired at version r is reachable from snapshot s iff
   s < r, so it is reclaimable once min_live >= r. *)
let min_live_version t =
  Util.Spin_lock.with_lock t.slock (fun () ->
      Hashtbl.fold (fun _ v acc -> if v < acc then v else acc) t.snaps max_int)

(* Caller holds [wlock] and is *outside* any epoch operation.  Retired
   entries are queued in retirement order, so a stopped pop leaves only
   still-pinned (or newer) blocks behind.  The record and its tombstone
   go down in one op: same epoch, so no crash state separates them. *)
let reclaim_locked t ~tid =
  if not (Queue.is_empty t.retired) then begin
    let horizon = min_live_version t in
    let ripe = ref [] in
    let rec pop () =
      match Queue.peek_opt t.retired with
      | Some r when r.rver <= horizon ->
          ignore (Queue.pop t.retired);
          ripe := r :: !ripe;
          pop ()
      | _ -> ()
    in
    pop ();
    match !ripe with
    | [] -> ()
    | ripe ->
        E.with_op t.esys ~tid (fun () ->
            List.iter
              (fun r ->
                E.pdelete t.esys ~tid r.rpayload;
                match r.rtomb with None -> () | Some tomb -> E.pdelete t.esys ~tid tomb)
              ripe)
  end

let pending_reclaim t =
  Util.Sched.yield "mhamt.pending_reclaim";
  Util.Spin_lock.with_lock t.wlock (fun () -> Queue.length t.retired)

(* ---- reads (current version) ---- *)

(* Lock-free and optimistic: between reading the root and decoding the
   payload, a writer may retire *and reclaim* the very record we
   resolved — observable only as [Use_after_free] ([pdelete] marks the
   handle dead before any reuse), in which case the newer root has the
   answer.  Each retry needs another completed mutation, so the loop
   terminates in any finite schedule. *)
let rec get t ~tid key =
  Util.Sched.yield "mhamt.get";
  let _, root = Atomic.get t.state in
  match find_entry root (hkey t key) 0 key with
  | None -> None
  | Some e -> ( try Some (value_of t ~tid e) with Errors.Use_after_free -> get t ~tid key)

let contains t ~tid:_ key =
  Util.Sched.yield "mhamt.contains";
  let _, root = Atomic.get t.state in
  find_entry root (hkey t key) 0 key <> None

(* ---- writes ---- *)

(* All mutations run under [wlock]: the HAMT trades mhashmap's
   per-bucket write concurrency for lock-free reads and O(1) whole-map
   snapshots.  The new pair is published *before* reclamation computes
   the snapshot horizon, so a concurrent [snapshot] either registered
   its version under [slock] first (raising the horizon) or will read
   the new pair — never a root whose blocks this reclamation frees. *)

(* Insert or overwrite; [keep] decodes the value it replaces, which
   the caller returns. *)
let write t ~tid key value ~keep =
  Util.Sched.yield (if keep then "mhamt.put" else "mhamt.set");
  Util.Spin_lock.with_lock t.wlock (fun () ->
      let prev =
        E.with_op t.esys ~tid (fun () ->
            let ver, root = Atomic.get t.state in
            let seq = ver + 1 in
            let payload = Rec.pnew t.esys ~tid (key, seq, Some value) in
            let root', old = insert root (hkey t key) 0 { ekey = key; payload } in
            let prev = if keep then Option.map (value_of t ~tid) old else None in
            Atomic.set t.state (seq, root');
            (match old with
            | Some e -> Queue.push { rver = seq; rpayload = e.payload; rtomb = None } t.retired
            | None -> Atomic.incr t.size);
            prev)
      in
      reclaim_locked t ~tid;
      prev)

let put t ~tid key value = write t ~tid key value ~keep:true
let set t ~tid key value = ignore (write t ~tid key value ~keep:false)

let put_if_absent t ~tid key value =
  Util.Sched.yield "mhamt.put_if_absent";
  Util.Spin_lock.with_lock t.wlock (fun () ->
      let ver, root = Atomic.get t.state in
      if find_entry root (hkey t key) 0 key <> None then false
      else begin
        E.with_op t.esys ~tid (fun () ->
            let seq = ver + 1 in
            let payload = Rec.pnew t.esys ~tid (key, seq, Some value) in
            let root', _ = insert root (hkey t key) 0 { ekey = key; payload } in
            Atomic.set t.state (seq, root');
            Atomic.incr t.size);
        reclaim_locked t ~tid;
        true
      end)

let remove t ~tid key =
  Util.Sched.yield "mhamt.remove";
  Util.Spin_lock.with_lock t.wlock (fun () ->
      let ver, root = Atomic.get t.state in
      match remove_entry root (hkey t key) 0 key with
      | None -> None
      | Some (rest, removed) ->
          let prev =
            E.with_op t.esys ~tid (fun () ->
                let seq = ver + 1 in
                let prev = value_of t ~tid removed in
                (* the tombstone carries the remove's durability while
                   the removed record's bytes stay pinned by snapshots *)
                let tomb = Rec.pnew t.esys ~tid (key, seq, None) in
                Atomic.set t.state (seq, Option.value rest ~default:nil);
                Queue.push { rver = seq; rpayload = removed.payload; rtomb = Some tomb } t.retired;
                Atomic.decr t.size;
                prev)
          in
          reclaim_locked t ~tid;
          Some prev)

(* Atomic read-modify-write under the writer lock — the primitive the
   kvstore's add/replace/incr/decr/CAS ops build on. *)
let update t ~tid key f =
  Util.Sched.yield "mhamt.update";
  Util.Spin_lock.with_lock t.wlock (fun () ->
      let ver, root = Atomic.get t.state in
      let h = hkey t key in
      let prev =
        match find_entry root h 0 key with
        | Some e -> (
            let old = value_of t ~tid e in
            (match f (Some old) with
            | Some value ->
                E.with_op t.esys ~tid (fun () ->
                    let seq = ver + 1 in
                    let payload = Rec.pnew t.esys ~tid (key, seq, Some value) in
                    let root', _ = insert root h 0 { ekey = key; payload } in
                    Atomic.set t.state (seq, root');
                    Queue.push { rver = seq; rpayload = e.payload; rtomb = None } t.retired)
            | None -> ());
            Some old)
        | None ->
            (match f None with
            | Some value ->
                E.with_op t.esys ~tid (fun () ->
                    let seq = ver + 1 in
                    let payload = Rec.pnew t.esys ~tid (key, seq, Some value) in
                    let root', _ = insert root h 0 { ekey = key; payload } in
                    Atomic.set t.state (seq, root');
                    Atomic.incr t.size)
            | None -> ());
            None
      in
      reclaim_locked t ~tid;
      prev)

(* ---- snapshots ---- *)

let snapshot t =
  Util.Sched.yield "mhamt.snapshot";
  Util.Spin_lock.with_lock t.slock (fun () ->
      let ver, root = Atomic.get t.state in
      let id = t.next_snap in
      t.next_snap <- id + 1;
      Hashtbl.replace t.snaps id ver;
      { v_owner = t; v_root = root; v_version = ver; v_id = id; v_released = Atomic.make false })

let release t v ~tid =
  Util.Sched.yield "mhamt.release";
  if t != v.v_owner then invalid_arg "Mhamt.release: view belongs to a different map";
  if not (Atomic.exchange v.v_released true) then begin
    Util.Spin_lock.with_lock t.slock (fun () -> Hashtbl.remove t.snaps v.v_id);
    (* whatever this view alone was pinning is ripe now *)
    Util.Spin_lock.with_lock t.wlock (fun () -> reclaim_locked t ~tid)
  end

module View = struct
  let live v = if Atomic.get v.v_released then invalid_arg "Mhamt.View: view was released"
  [@@montage.allow "R2: release-flag guard; every View entry point yields before calling it"]

  let version v =
    Util.Sched.yield "mhamt.view_version";
    v.v_version

  (* View reads never race reclamation: an unreleased view's version is
     in the registry, holding the horizon below every payload its root
     reaches — no retry loop needed. *)
  let find v ~tid key =
    Util.Sched.yield "mhamt.view_find";
    live v;
    let t = v.v_owner in
    match find_entry v.v_root (hkey t key) 0 key with
    | None -> None
    | Some e -> Some (value_of t ~tid e)

  let mem v key =
    Util.Sched.yield "mhamt.view_mem";
    live v;
    find_entry v.v_root (hkey v.v_owner key) 0 key <> None

  let iter v ~tid f =
    Util.Sched.yield "mhamt.view_iter";
    live v;
    iter_entries v.v_root (fun e -> f e.ekey (value_of v.v_owner ~tid e))

  let fold v ~tid f acc =
    Util.Sched.yield "mhamt.view_fold";
    live v;
    let acc = ref acc in
    iter_entries v.v_root (fun e -> acc := f !acc e.ekey (value_of v.v_owner ~tid e));
    !acc

  let to_alist v ~tid = fold v ~tid (fun acc k value -> (k, value) :: acc) []

  let cardinal v =
    Util.Sched.yield "mhamt.view_cardinal";
    live v;
    let n = ref 0 in
    iter_entries v.v_root (fun _ -> incr n);
    !n
end

(* Consistent listing of the current version: an internal snapshot,
   released before returning. *)
let to_alist t ~tid =
  Util.Sched.yield "mhamt.to_alist";
  let v = snapshot t in
  Fun.protect ~finally:(fun () -> release t v ~tid) (fun () -> View.to_alist v ~tid)

(* ---- recovery ---- *)

(* Per key the largest-[seq] record wins; a tombstone winner erases the
   key.  Losers and winning tombstones are queued at horizon version 0
   so the first post-recovery mutation (or release) reclaims them —
   recovery itself opens no epoch operation and is idempotent under
   re-crash.  Each record is read only as far as its key (seq, kind,
   key), never its value, so the handles stay cold until their first
   get.  [threads > 1] reads slices in parallel domains; the winner
   fold and trie build stay sequential (they are cheap relative to the
   reads, and the trie is immutable). *)
let recover ?hash ?(threads = 1) esys payloads =
  let decode_slice slice =
    Array.map
      (fun p ->
        let b, k =
          Montage.Payload.key_prefix_unsafe esys p ~klen_at:Rec_content.klen_at
            ~key_at:Rec_content.key_at
        in
        (k, Rec_content.seq_of b, Rec_content.is_live b, p))
      slice
  in
  let decoded =
    if threads <= 1 then decode_slice payloads
    else
      let slices = E.slices payloads ~k:threads in
      let domains = Array.map (fun s -> Domain.spawn (fun () -> decode_slice s)) slices in
      Array.concat (Array.to_list (Array.map Domain.join domains))
  in
  let best : (string, int * bool * E.pblk) Hashtbl.t =
    Hashtbl.create (max 16 (Array.length decoded))
  in
  let superseded = ref [] in
  Array.iter
    (fun (k, s, live, p) ->
      match Hashtbl.find_opt best k with
      | Some (s0, _, _) when s0 >= s -> superseded := p :: !superseded
      | Some (_, _, p0) ->
          superseded := p0 :: !superseded;
          Hashtbl.replace best k (s, live, p)
      | None -> Hashtbl.add best k (s, live, p))
    decoded;
  let t = create ?hash esys in
  let root, max_seq, live_count, tombs =
    Hashtbl.fold
      (fun k (s, live, p) (root, max_seq, live_count, tombs) ->
        let max_seq = max max_seq s in
        if live then
          let root = fst (insert root (hkey t k) 0 { ekey = k; payload = p }) in
          (root, max_seq, live_count + 1, tombs)
        else (root, max_seq, live_count, p :: tombs))
      best (nil, 0, 0, [])
  in
  Atomic.set t.state (max_seq, root);
  Atomic.set t.size live_count;
  List.iter
    (fun p -> Queue.push { rver = 0; rpayload = p; rtomb = None } t.retired)
    (tombs @ !superseded);
  t
[@@montage.allow
  "R2: recovery-time initialization; the map is not shared with any \
   operation until recover returns"]
