(* Mechanical linearizability checking of the nonblocking Montage
   structures: record real concurrent histories (with epoch churn in
   the background, so the DCSS retry paths are exercised) and verify a
   legal linearization exists — the crash-free half of the paper's §4
   correctness argument, checked on actual executions. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config
module L = Lin_check

let testing_cfg = { Cfg.testing with max_threads = 8 }

let make_esys () =
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:10 ~capacity:(1 lsl 22) () in
  E.create ~config:testing_cfg region

(* Run [per_thread] ops on each of [threads] domains, with an epoch
   ticker stirring retries; returns all recorded events. *)
let run_history ~threads ~per_thread ~driver esys =
  L.reset_clock ();
  let all = Array.make threads [] in
  let stop = Atomic.make false in
  let ops = Atomic.make 0 in
  (* progress-paced ticker: advance only when the workers have recorded
     new operations since the last tick — epoch churn tracks the
     workload with no wall-clock pacing to race against *)
  let ticker =
    Domain.spawn (fun () ->
        let last = ref (-1) in
        while not (Atomic.get stop) do
          let seen = Atomic.get ops in
          if seen <> !last then begin
            last := seen;
            E.advance_epoch esys ~tid:(threads + 1)
          end
          else Domain.cpu_relax ()
        done)
  in
  let ds =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            let rng = Util.Xoshiro.create (tid * 31 + 5) in
            let events = ref [] in
            for i = 1 to per_thread do
              events := driver ~tid ~rng ~i :: !events;
              Atomic.incr ops
            done;
            all.(tid) <- !events))
  in
  Array.iter Domain.join ds;
  Atomic.set stop true;
  Domain.join ticker;
  Array.to_list all |> List.concat

let test_nb_stack_linearizable () =
  let esys = make_esys () in
  let s = Pstructs.Nb_stack.create esys in
  let driver ~tid ~rng ~i =
    if Util.Xoshiro.int rng 3 = 0 then L.record L.Pop (fun () -> Pstructs.Nb_stack.pop s ~tid)
    else
      let v = Printf.sprintf "%d-%d" tid i in
      L.record (L.Push v) (fun () ->
          Pstructs.Nb_stack.push s ~tid v;
          None)
  in
  let events = run_history ~threads:3 ~per_thread:7 ~driver esys in
  Alcotest.(check bool) "history linearizes as a stack" true (L.check L.stack_spec events)

let test_nb_queue_linearizable () =
  let esys = make_esys () in
  let q = Pstructs.Nb_queue.create esys in
  let driver ~tid ~rng ~i =
    if Util.Xoshiro.int rng 3 = 0 then L.record L.Deq (fun () -> Pstructs.Nb_queue.dequeue q ~tid)
    else
      let v = Printf.sprintf "%d-%d" tid i in
      L.record (L.Enq v) (fun () ->
          Pstructs.Nb_queue.enqueue q ~tid v;
          None)
  in
  let events = run_history ~threads:3 ~per_thread:7 ~driver esys in
  Alcotest.(check bool) "history linearizes as a FIFO queue" true (L.check L.queue_spec events)

let test_nb_set_linearizable () =
  let esys = make_esys () in
  let s = Pstructs.Nb_list_set.create esys in
  let driver ~tid ~rng ~i:_ =
    (* small key space so adds/removes genuinely conflict *)
    let key = Printf.sprintf "k%d" (Util.Xoshiro.int rng 4) in
    match Util.Xoshiro.int rng 3 with
    | 0 -> L.record (L.Add key) (fun () -> Pstructs.Nb_list_set.add s ~tid key)
    | 1 -> L.record (L.Remove key) (fun () -> Pstructs.Nb_list_set.remove s ~tid key)
    | _ -> L.record (L.Contains key) (fun () -> Pstructs.Nb_list_set.contains s key)
  in
  let events = run_history ~threads:3 ~per_thread:7 ~driver esys in
  Alcotest.(check bool) "history linearizes as a set" true (L.check L.set_spec events)

let test_mgraph_linearizable () =
  let esys = make_esys () in
  let g = Pstructs.Mgraph.create ~capacity:8 esys in
  let driver ~tid ~rng ~i =
    (* small id space so vertex/edge ops genuinely conflict *)
    let a = Util.Xoshiro.int rng 4 and b = Util.Xoshiro.int rng 4 in
    match Util.Xoshiro.int rng 6 with
    | 0 ->
        let attrs = Printf.sprintf "v%d-%d" tid i in
        L.record (L.Gadd_vertex (a, attrs)) (fun () ->
            L.GB (Pstructs.Mgraph.add_vertex g ~tid a attrs))
    | 1 -> L.record (L.Gremove_vertex a) (fun () -> L.GB (Pstructs.Mgraph.remove_vertex g ~tid a))
    | 2 ->
        let attrs = Printf.sprintf "e%d-%d" tid i in
        L.record (L.Gadd_edge (a, b, attrs)) (fun () ->
            L.GB (Pstructs.Mgraph.add_edge g ~tid a b attrs))
    | 3 -> L.record (L.Gremove_edge (a, b)) (fun () -> L.GB (Pstructs.Mgraph.remove_edge g ~tid a b))
    | 4 -> L.record (L.Gedge_attrs (a, b)) (fun () -> L.GS (Pstructs.Mgraph.edge_attrs g ~tid a b))
    | _ -> L.record (L.Gvertex_attrs a) (fun () -> L.GS (Pstructs.Mgraph.vertex_attrs g ~tid a))
  in
  let events = run_history ~threads:3 ~per_thread:7 ~driver esys in
  Alcotest.(check bool) "history linearizes as a graph" true (L.check L.graph_spec events)

(* Background-advancer variants: the histories are recorded while the
   auto-spawned advancer ticks asynchronously and drains every worker's
   buffer, so linearizability is checked against the deployment-shaped
   write-back path, not just the manual-tick one. *)

let bg_cfg = { Cfg.testing with max_threads = 8; auto_advance = true; epoch_length_ns = 300_000 }

let make_bg_esys () =
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:10 ~capacity:(1 lsl 22) () in
  E.create ~config:bg_cfg region

let run_history_bg ~threads ~per_thread ~driver esys =
  L.reset_clock ();
  let all = Array.make threads [] in
  let ds =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            let rng = Util.Xoshiro.create ((tid * 31) + 5) in
            let events = ref [] in
            for i = 1 to per_thread do
              events := driver ~tid ~rng ~i :: !events
            done;
            all.(tid) <- !events))
  in
  Array.iter Domain.join ds;
  E.stop_background esys;
  Array.to_list all |> List.concat

let test_mstack_linearizable_bg () =
  let esys = make_bg_esys () in
  let s = Pstructs.Mstack.create esys in
  let driver ~tid ~rng ~i =
    if Util.Xoshiro.int rng 3 = 0 then L.record L.Pop (fun () -> Pstructs.Mstack.pop s ~tid)
    else
      let v = Printf.sprintf "%d-%d" tid i in
      L.record (L.Push v) (fun () ->
          Pstructs.Mstack.push s ~tid v;
          None)
  in
  let events = run_history_bg ~threads:3 ~per_thread:7 ~driver esys in
  Alcotest.(check bool) "history linearizes as a stack" true (L.check L.stack_spec events)

let test_nb_set_linearizable_bg () =
  let esys = make_bg_esys () in
  let s = Pstructs.Nb_list_set.create esys in
  let driver ~tid ~rng ~i:_ =
    let key = Printf.sprintf "k%d" (Util.Xoshiro.int rng 4) in
    match Util.Xoshiro.int rng 3 with
    | 0 -> L.record (L.Add key) (fun () -> Pstructs.Nb_list_set.add s ~tid key)
    | 1 -> L.record (L.Remove key) (fun () -> Pstructs.Nb_list_set.remove s ~tid key)
    | _ -> L.record (L.Contains key) (fun () -> Pstructs.Nb_list_set.contains s key)
  in
  let events = run_history_bg ~threads:3 ~per_thread:7 ~driver esys in
  Alcotest.(check bool) "history linearizes as a set" true (L.check L.set_spec events)

(* The checker itself must reject garbage: a dequeue that returns a
   value nobody enqueued, and a FIFO violation between non-overlapping
   operations. *)
let test_checker_rejects_phantom_value () =
  let events =
    [
      { L.op = L.Enq "a"; result = None; invoked = 0; responded = 1 };
      { L.op = L.Deq; result = Some "phantom"; invoked = 2; responded = 3 };
    ]
  in
  Alcotest.(check bool) "phantom rejected" false (L.check L.queue_spec events)

let test_checker_rejects_fifo_violation () =
  (* enq a; enq b (strictly after); then deq -> b with no overlap *)
  let events =
    [
      { L.op = L.Enq "a"; result = None; invoked = 0; responded = 1 };
      { L.op = L.Enq "b"; result = None; invoked = 2; responded = 3 };
      { L.op = L.Deq; result = Some "b"; invoked = 4; responded = 5 };
    ]
  in
  Alcotest.(check bool) "LIFO-on-a-queue rejected" false (L.check L.queue_spec events)

let test_checker_accepts_overlap_reordering () =
  (* two overlapping enqueues may linearize in either order *)
  let events =
    [
      { L.op = L.Enq "a"; result = None; invoked = 0; responded = 3 };
      { L.op = L.Enq "b"; result = None; invoked = 1; responded = 2 };
      { L.op = L.Deq; result = Some "b"; invoked = 4; responded = 5 };
      { L.op = L.Deq; result = Some "a"; invoked = 6; responded = 7 };
    ]
  in
  Alcotest.(check bool) "overlapping order allowed" true (L.check L.queue_spec events)

let test_checker_respects_realtime_order () =
  (* pop before any push completes cannot return the pushed value *)
  let events =
    [
      { L.op = L.Pop; result = Some "x"; invoked = 0; responded = 1 };
      { L.op = L.Push "x"; result = None; invoked = 2; responded = 3 };
    ]
  in
  Alcotest.(check bool) "time travel rejected" false (L.check L.stack_spec events)

let () =
  Alcotest.run "linearizability"
    [
      ( "checker",
        [
          Alcotest.test_case "rejects phantom values" `Quick test_checker_rejects_phantom_value;
          Alcotest.test_case "rejects FIFO violations" `Quick test_checker_rejects_fifo_violation;
          Alcotest.test_case "accepts overlap reordering" `Quick test_checker_accepts_overlap_reordering;
          Alcotest.test_case "respects real-time order" `Quick test_checker_respects_realtime_order;
        ] );
      ( "structures",
        [
          Alcotest.test_case "nb_stack" `Quick test_nb_stack_linearizable;
          Alcotest.test_case "nb_queue" `Quick test_nb_queue_linearizable;
          Alcotest.test_case "nb_list_set" `Quick test_nb_set_linearizable;
          Alcotest.test_case "mgraph" `Quick test_mgraph_linearizable;
        ] );
      ( "background-advancer",
        [
          Alcotest.test_case "mstack" `Quick test_mstack_linearizable_bg;
          Alcotest.test_case "nb_list_set" `Quick test_nb_set_linearizable_bg;
        ] );
    ]
