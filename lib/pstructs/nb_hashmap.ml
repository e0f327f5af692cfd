(* Nonblocking Montage hashmap: a fixed array of Harris-style sorted
   kv lists (the Nb_list_set construction carrying values), giving the
   lock-free map the paper's §3.3/§6.1 alludes to.

   Like SOFT, atomic in-place update of an existing key is not offered
   — [add] is insert-if-absent and [remove] deletes — because a
   lock-free in-place update would need its own payload-swing protocol;
   the benchmark workloads (and SOFT's) are expressible without it.
   Linearization points are epoch-verified DCSS as in Nb_list_set. *)

module E = Montage.Epoch_sys
module V = Montage.Everify
module Kv = Montage.Payload.Kv

type node = { key : string; payload : E.pblk option; next : link V.t }
and link = { succ : node option; marked : bool }

type t = { esys : E.t; heads : node array }

let sentinel () = { key = ""; payload = None; next = V.make { succ = None; marked = false } }

let create ?(buckets = 1 lsl 12) esys =
  { esys; heads = Array.init buckets (fun _ -> sentinel ()) }

let esys t = t.esys
let bucket_of t key = t.heads.(Hashtbl.hash key land (Array.length t.heads - 1))

let rec search t head key =
  let rec advance pred pred_link =
    match pred_link.succ with
    | None -> (pred, pred_link, None)
    | Some curr ->
        let curr_link = V.load_verify t.esys curr.next in
        if curr_link.marked then begin
          let unlinked = { succ = curr_link.succ; marked = false } in
          if V.cas t.esys pred.next ~expect:pred_link ~desired:unlinked then advance pred unlinked
          else search t head key
        end
        else if curr.key < key then advance curr curr_link
        else (pred, pred_link, Some curr)
  in
  advance head (V.load_verify t.esys head.next)

(* Wait-free read: value of [key], traversing without helping. *)
let get t ~tid key =
  Util.Sched.yield "nb_hashmap.get";
  let head = bucket_of t key in
  let rec walk cursor =
    match cursor with
    | None -> None
    | Some node ->
        if node.key < key then walk (V.peek node.next).succ
        else if node.key = key && not (V.peek node.next).marked then
          match node.payload with
          | Some p -> Some (Kv.get_value t.esys ~tid p)
          | None -> None
        else None
  in
  walk (V.peek head.next).succ

let mem t key =
  let head = bucket_of t key in
  let rec walk cursor =
    match cursor with
    | None -> false
    | Some node ->
        if node.key < key then walk (V.peek node.next).succ
        else node.key = key && not (V.peek node.next).marked
  in
  walk (V.peek head.next).succ

(* Insert-if-absent; [false] when present. *)
let add t ~tid key value =
  Util.Sched.yield "nb_hashmap.add";
  let head = bucket_of t key in
  let rec restart () =
    E.begin_op t.esys ~tid;
    match attempt None with
    | outcome ->
        E.end_op t.esys ~tid;
        outcome
    | exception Montage.Errors.Epoch_changed ->
        E.end_op t.esys ~tid;
        restart ()
  and attempt payload_opt =
    let pred, pred_link, curr = search t head key in
    match curr with
    | Some node when node.key = key ->
        (match payload_opt with Some p -> E.pdelete t.esys ~tid p | None -> ());
        false
    | _ ->
        let payload =
          match payload_opt with
          | Some p -> p
          | None -> Kv.pnew t.esys ~tid (key, value)
        in
        let fresh = { key; payload = Some payload; next = V.make { succ = curr; marked = false } } in
        if
          V.cas_verify t.esys ~tid pred.next ~expect:pred_link
            ~desired:{ succ = Some fresh; marked = false }
        then true
        else begin
          (try E.check_epoch t.esys ~tid
           with Montage.Errors.Epoch_changed ->
             E.pdelete t.esys ~tid payload;
             raise Montage.Errors.Epoch_changed);
          attempt (Some payload)
        end
  in
  restart ()

let remove t ~tid key =
  Util.Sched.yield "nb_hashmap.remove";
  let head = bucket_of t key in
  let rec restart () =
    E.begin_op t.esys ~tid;
    match attempt () with
    | outcome ->
        E.end_op t.esys ~tid;
        outcome
    | exception Montage.Errors.Epoch_changed ->
        E.end_op t.esys ~tid;
        restart ()
  and attempt () =
    let pred, pred_link, curr = search t head key in
    match curr with
    | Some node when node.key = key ->
        let node_link = V.load_verify t.esys node.next in
        if node_link.marked then false
        else if
          V.cas_verify t.esys ~tid node.next ~expect:node_link
            ~desired:{ succ = node_link.succ; marked = true }
        then begin
          (match node.payload with Some p -> E.pdelete t.esys ~tid p | None -> ());
          ignore
            (V.cas t.esys pred.next ~expect:pred_link
               ~desired:{ succ = node_link.succ; marked = false });
          true
        end
        else begin
          E.check_epoch t.esys ~tid;
          attempt ()
        end
    | _ -> false
  in
  restart ()

(* Quiescent enumeration. *)
let to_alist t ~tid =
  Array.fold_left
    (fun acc head ->
      let rec walk acc = function
        | None -> acc
        | Some node ->
            let link = V.peek node.next in
            let acc =
              if link.marked then acc
              else
                match node.payload with
                | Some p -> Kv.get t.esys ~tid p :: acc
                | None -> acc
            in
            walk acc link.succ
      in
      walk acc (V.peek head.next).succ)
    [] t.heads

let size t = List.length (to_alist t ~tid:0)

(* ---- recovery ---- *)

let recover ?(buckets = 1 lsl 12) esys payloads =
  let t = create ~buckets esys in
  (* group per bucket, then build each chain sorted *)
  let per_bucket = Array.make buckets [] in
  Array.iter
    (fun p ->
      let key = Kv.key_unsafe esys p in
      let idx = Hashtbl.hash key land (buckets - 1) in
      per_bucket.(idx) <- (key, p) :: per_bucket.(idx))
    payloads;
  Array.iteri
    (fun idx entries ->
      let sorted = List.sort (fun (a, _) (b, _) -> compare b a) entries in
      let chain =
        List.fold_left
          (fun below (key, p) ->
            Some { key; payload = Some p; next = V.make { succ = below; marked = false } })
          None sorted
      in
      let head = t.heads.(idx) in
      ignore (V.cas esys head.next ~expect:(V.peek head.next) ~desired:{ succ = chain; marked = false }))
    per_bucket;
  t
