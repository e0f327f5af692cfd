(* The coalescing write-back path — the only one: every buffered
   write-back reaches media through a per-thread coalescer.  Unit
   coverage of the line-dedup layer, the batched Region API, write-back,
   fence, dedup and lint accounting on a deterministic Montage workload,
   the background
   advancer's drain of loaded workers, and a crash-recovery matrix —
   [Pcheck.explore] enumerating every fence-respecting crash state of
   mqueue/mhashmap/mskiplist runs and asserting the recovery predicate
   on each. *)

module W = Montage.Wb_coalescer
module R = Nvm.Region
module P = Nvm.Pcheck
module E = Montage.Epoch_sys
module Cfg = Montage.Config

let base_cfg = { Cfg.testing with max_threads = 2 }

(* ---- Wb_coalescer ---- *)

let flush_runs coal =
  let runs = ref [] in
  let totals = W.flush coal ~emit:(fun ~first ~lines -> runs := (first, lines) :: !runs) in
  (List.rev !runs, totals)

let test_coalescer_merges_overlap () =
  let coal = W.create () in
  W.add coal ~off:0 ~len:100;
  (* lines 0-1 *)
  W.add coal ~off:64 ~len:64;
  (* line 1 again *)
  let runs, (ranges, lines_in, lines_out) = flush_runs coal in
  Alcotest.(check (list (pair int int))) "one merged run" [ (0, 2) ] runs;
  Alcotest.(check int) "ranges" 2 ranges;
  Alcotest.(check int) "lines before merge" 3 lines_in;
  Alcotest.(check int) "lines after merge" 2 lines_out

let test_coalescer_merges_adjacent_keeps_gaps () =
  let coal = W.create () in
  W.add coal ~off:192 ~len:64;
  (* line 3 *)
  W.add coal ~off:0 ~len:64;
  (* line 0 *)
  W.add coal ~off:64 ~len:64;
  (* line 1: adjacent to line 0 *)
  let runs, (_, _, lines_out) = flush_runs coal in
  Alcotest.(check (list (pair int int))) "adjacent merged, gap preserved" [ (0, 2); (3, 1) ] runs;
  Alcotest.(check int) "line 2 never emitted" 3 lines_out

let test_coalescer_resets_after_flush () =
  let coal = W.create () in
  W.add coal ~off:0 ~len:64;
  let _ = flush_runs coal in
  Alcotest.(check bool) "empty after flush" true (W.is_empty coal);
  let runs, totals = flush_runs coal in
  Alcotest.(check (list (pair int int))) "nothing re-emitted" [] runs;
  Alcotest.(check (triple int int int)) "zero totals" (0, 0, 0) totals

let test_coalescer_grows () =
  let coal = W.create ~initial_capacity:2 () in
  (* disjoint lines force one entry each, well past the initial room *)
  for i = 0 to 499 do
    W.add coal ~off:(128 * i) ~len:8
  done;
  let runs, (ranges, _, lines_out) = flush_runs coal in
  Alcotest.(check int) "all runs kept" 500 (List.length runs);
  Alcotest.(check int) "ranges" 500 ranges;
  Alcotest.(check int) "no spurious merge" 500 lines_out

(* mirrors the coalescer against a naive line set over random ranges *)
let prop_coalescer_matches_line_set =
  QCheck.Test.make ~count:100 ~name:"flush emits exactly the union of added lines, once each"
    QCheck.(small_list (pair (int_bound 200) (int_bound 300)))
    (fun ranges ->
      let coal = W.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (off_line, len) ->
          let off = 64 * off_line in
          W.add coal ~off ~len;
          if len > 0 then
            for line = off / 64 to (off + len - 1) / 64 do
              Hashtbl.replace model line ()
            done)
        ranges;
      let emitted = Hashtbl.create 64 in
      let dup = ref false in
      let _ =
        W.flush coal ~emit:(fun ~first ~lines ->
            for line = first to first + lines - 1 do
              if Hashtbl.mem emitted line then dup := true;
              Hashtbl.replace emitted line ()
            done)
      in
      (not !dup)
      && Hashtbl.length emitted = Hashtbl.length model
      && Hashtbl.fold (fun line () acc -> acc && Hashtbl.mem model line) emitted true)

(* ---- Region batched API ---- *)

let test_writeback_lines_persists () =
  let r = R.create ~latency:Nvm.Latency.zero ~max_threads:2 ~capacity:(1 lsl 12) () in
  R.write_string r ~off:64 (String.make 128 'z');
  R.writeback_lines r ~tid:0 ~first:1 ~lines:2;
  R.sfence r ~tid:0;
  R.crash r;
  Alcotest.(check string) "batched lines survive" (String.make 128 'z')
    (R.read_string r ~off:64 ~len:128);
  let s = R.stats r in
  Alcotest.(check int) "writebacks count lines" 2 s.R.writebacks;
  Alcotest.(check int) "one fence" 1 s.R.fences

let test_note_coalesced_stats () =
  let r = R.create ~latency:Nvm.Latency.zero ~max_threads:2 ~capacity:(1 lsl 12) () in
  R.note_coalesced r ~tid:0 ~ranges:5 ~lines_in:9 ~lines_out:4;
  R.note_coalesced r ~tid:1 ~ranges:2 ~lines_in:2 ~lines_out:2;
  let s = R.stats r in
  Alcotest.(check int) "ranges" 7 s.R.coalesce_ranges;
  Alcotest.(check int) "lines in" 11 s.R.coalesce_lines_in;
  Alcotest.(check int) "lines out" 6 s.R.coalesce_lines_out

(* ---- accounting on a deterministic Montage workload ---- *)

(* Same-epoch rewrites of few keys through a tiny ring: the overflow
   path fires constantly and the buffered ranges overlap heavily —
   exactly the traffic coalescing exists to dedup. *)
let rewrite_workload cfg =
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:4 ~capacity:(1 lsl 22) () in
  let cfg = { cfg with Cfg.buffer_size = 4 } in
  let esys = E.create ~config:cfg region in
  let m = Pstructs.Mhashmap.create ~buckets:16 esys in
  for k = 0 to 7 do
    (* back-to-back same-epoch rewrites keep a run of same-line records
       in the ring together, so overflow batches and the epoch drain
       both see the overlap *)
    for round = 0 to 9 do
      ignore
        (Pstructs.Mhashmap.put m ~tid:0
           (Printf.sprintf "key%d" k)
           (Printf.sprintf "round%d" round))
    done
  done;
  E.advance_epoch esys ~tid:0;
  E.advance_epoch esys ~tid:0;
  (region, R.stats region)

(* The per-record drain this path replaced paid one write-back per
   buffered line and a fence per drained record; the coalesced drain is
   measured against that cost.  [writebacks] also
   counts lines queued outside the coalescer, so it must come in under
   the records' line total even with those included. *)
let test_coalescing_reduces_writebacks_and_fences () =
  let _, st = rewrite_workload base_cfg in
  Alcotest.(check bool)
    (Printf.sprintf "fewer write-backs than buffered lines (%d < %d)" st.R.writebacks
       st.R.coalesce_lines_in)
    true
    (st.R.writebacks < st.R.coalesce_lines_in);
  Alcotest.(check bool)
    (Printf.sprintf "fewer fences than drained records (%d < %d)" st.R.fences
       st.R.coalesce_ranges)
    true
    (st.R.fences < st.R.coalesce_ranges)

let lint_count c kind =
  List.fold_left (fun acc (k, _, n) -> if k = kind then acc + n else acc) 0 (P.lint_counts c)

(* Ten same-epoch rewrites per key drain as ten buffered records over
   the same lines.  The coalescer must merge them (more lines in than
   out) and flush each line once behind its fence (no [Duplicate_flush]
   lint). *)
let test_coalescing_removes_duplicate_flushes () =
  let region, st = rewrite_workload base_cfg in
  Alcotest.(check bool)
    (Printf.sprintf "dedup ratio > 1 (%d lines in, %d out)" st.R.coalesce_lines_in
       st.R.coalesce_lines_out)
    true
    (st.R.coalesce_lines_in > st.R.coalesce_lines_out);
  match R.checker region with
  | None -> Alcotest.fail "no checker"
  | Some c -> Alcotest.(check int) "each line flushed once" 0 (lint_count c P.Duplicate_flush)

(* ---- the advancer's epoch drain ---- *)

(* Both workers leave loaded buffers; the background advancer's tid
   drains them in two ticks, and after a crash every pair recovers. *)
let test_advancer_drain_correct () =
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:4 ~capacity:(1 lsl 22) () in
  let cfg = { base_cfg with Cfg.buffer_size = 256 } in
  let esys = E.create ~config:cfg region in
  let m = Pstructs.Mhashmap.create ~buckets:16 esys in
  let workers =
    Array.init 2 (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to 49 do
              ignore (Pstructs.Mhashmap.put m ~tid (Printf.sprintf "t%d-%d" tid i) (string_of_int i))
            done))
  in
  Array.iter Domain.join workers;
  let advancer = cfg.Cfg.max_threads in
  E.advance_epoch esys ~tid:advancer;
  E.advance_epoch esys ~tid:advancer;
  R.crash region;
  let esys2, payloads = E.recover ~config:{ cfg with Cfg.pcheck = Cfg.Pcheck_off } region in
  let m2 = Pstructs.Mhashmap.recover ~buckets:16 esys2 payloads in
  Alcotest.(check int) "all pairs durable after the advancer's drain" 100 (Pstructs.Mhashmap.size m2);
  for tid = 0 to 1 do
    for i = 0 to 49 do
      Alcotest.(check (option string))
        (Printf.sprintf "t%d-%d" tid i)
        (Some (string_of_int i))
        (Pstructs.Mhashmap.get m2 ~tid (Printf.sprintf "t%d-%d" tid i))
    done
  done;
  match R.checker region with
  | None -> Alcotest.fail "checker missing"
  | Some c -> Alcotest.(check int) "no violations" 0 (List.length (P.violations c))

(* ---- crash-recovery matrix over every fence-respecting crash state ---- *)

(* Host run: checker pre-attached with an event log (E.create reuses it
   — enable_pcheck is idempotent), manual epochs. *)
let logged_esys ?(cfg = base_cfg) () =
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:4 ~capacity:(1 lsl 18) () in
  let c = R.enable_pcheck ~mode:P.Enforce ~log_events:true region in
  let esys = E.create ~config:cfg region in
  (region, c, esys)

let recover_cfg = { base_cfg with Cfg.pcheck = Cfg.Pcheck_off }

(* Materialize one crash state and run full recovery on it. *)
let recovered_from image =
  let r2 = R.of_image ~latency:Nvm.Latency.zero ~max_threads:4 image in
  E.recover ~config:recover_cfg r2

let explore_states = 400

let test_crash_matrix_mqueue () =
  let _, c, esys = logged_esys () in
  let q = Pstructs.Mqueue.create esys in
  let values = List.init 6 (fun i -> Printf.sprintf "v%d" i) in
  List.iteri
    (fun i v ->
      Pstructs.Mqueue.enqueue q ~tid:0 v;
      if i = 2 then E.sync esys ~tid:0)
    values;
  E.advance_epoch esys ~tid:0;
  E.advance_epoch esys ~tid:0;
  (* at every fence-respecting crash state, the recovered queue must be
     a prefix of the enqueue order — anything else means the coalesced
     drain persisted ranges out of epoch order *)
  let report =
    P.explore ~max_states:explore_states c (fun image ->
        match recovered_from image with
        | exception _ -> false
        | esys2, payloads ->
            let q2 = Pstructs.Mqueue.recover esys2 payloads in
            let rec dequeued acc =
              match Pstructs.Mqueue.dequeue q2 ~tid:0 with
              | Some v -> dequeued (v :: acc)
              | None -> List.rev acc
            in
            let got = dequeued [] in
            List.length got <= List.length values
            && List.for_all2 ( = ) got (List.filteri (fun i _ -> i < List.length got) values))
  in
  Alcotest.(check bool) "states explored" true (report.P.states > 0);
  Alcotest.(check int) "recovery predicate holds everywhere" 0 report.P.failures

let test_crash_matrix_mhashmap () =
  let _, c, esys = logged_esys () in
  let m = Pstructs.Mhashmap.create ~buckets:8 esys in
  let written = Hashtbl.create 16 in
  for i = 0 to 5 do
    let k = Printf.sprintf "k%d" i in
    (* two values per key across an epoch boundary, so crash states
       straddle an in-place rewrite *)
    ignore (Pstructs.Mhashmap.put m ~tid:0 k (Printf.sprintf "a%d" i));
    Hashtbl.replace written (k, Printf.sprintf "a%d" i) ()
  done;
  E.sync esys ~tid:0;
  for i = 0 to 5 do
    let k = Printf.sprintf "k%d" i in
    ignore (Pstructs.Mhashmap.put m ~tid:0 k (Printf.sprintf "b%d" i));
    Hashtbl.replace written (k, Printf.sprintf "b%d" i) ()
  done;
  E.advance_epoch esys ~tid:0;
  E.advance_epoch esys ~tid:0;
  let report =
    P.explore ~max_states:explore_states c (fun image ->
        match recovered_from image with
        | exception _ -> false
        | esys2, payloads ->
            let m2 = Pstructs.Mhashmap.recover ~buckets:8 esys2 payloads in
            List.for_all
              (fun (k, v) -> Hashtbl.mem written (k, v))
              (Pstructs.Mhashmap.to_alist m2 ~tid:0))
  in
  Alcotest.(check bool) "states explored" true (report.P.states > 0);
  Alcotest.(check int) "every recovered pair was written" 0 report.P.failures

let test_crash_matrix_mskiplist () =
  let _, c, esys = logged_esys () in
  let s = Pstructs.Mskiplist.create ~seed:11 esys in
  let written = Hashtbl.create 16 in
  for i = 0 to 5 do
    let k = Printf.sprintf "k%02d" i in
    ignore (Pstructs.Mskiplist.put s ~tid:0 k (string_of_int i));
    Hashtbl.replace written (k, string_of_int i) ()
  done;
  E.sync esys ~tid:0;
  ignore (Pstructs.Mskiplist.remove s ~tid:0 "k03");
  ignore (Pstructs.Mskiplist.put s ~tid:0 "k06" "6");
  Hashtbl.replace written ("k06", "6") ();
  E.advance_epoch esys ~tid:0;
  E.advance_epoch esys ~tid:0;
  let report =
    P.explore ~max_states:explore_states c (fun image ->
        match recovered_from image with
        | exception _ -> false
        | esys2, payloads ->
            let s2 = Pstructs.Mskiplist.recover esys2 payloads in
            List.for_all (fun (k, v) -> Hashtbl.mem written (k, v)) (Pstructs.Mskiplist.to_alist s2 ~tid:0))
  in
  Alcotest.(check bool) "states explored" true (report.P.states > 0);
  Alcotest.(check int) "every recovered pair was written" 0 report.P.failures

let test_crash_matrix_mgraph () =
  let _, c, esys = logged_esys () in
  let g = Pstructs.Mgraph.create ~capacity:8 esys in
  for v = 0 to 3 do
    ignore (Pstructs.Mgraph.add_vertex g ~tid:0 v (Printf.sprintf "v%d" v))
  done;
  ignore (Pstructs.Mgraph.add_edge g ~tid:0 0 1 "e01");
  ignore (Pstructs.Mgraph.add_edge g ~tid:0 1 2 "e12");
  E.sync esys ~tid:0;
  ignore (Pstructs.Mgraph.remove_edge g ~tid:0 0 1);
  ignore (Pstructs.Mgraph.add_edge g ~tid:0 2 3 "e23");
  ignore (Pstructs.Mgraph.remove_vertex g ~tid:0 0);
  E.advance_epoch esys ~tid:0;
  E.advance_epoch esys ~tid:0;
  (* invariant at every crash state: every recovered edge's endpoints
     are recovered vertices with the attrs they were written with *)
  let report =
    P.explore ~max_states:explore_states c (fun image ->
        match recovered_from image with
        | exception _ -> false
        | esys2, payloads ->
            let g2 = Pstructs.Mgraph.recover ~capacity:8 esys2 payloads in
            let vertex_ok v =
              match Pstructs.Mgraph.vertex_attrs g2 ~tid:0 v with
              | None -> not (Pstructs.Mgraph.has_vertex g2 v)
              | Some a -> a = Printf.sprintf "v%d" v
            in
            let edge_ok (a, b, attrs) =
              (not (Pstructs.Mgraph.has_edge g2 a b))
              || (Pstructs.Mgraph.has_vertex g2 a
                 && Pstructs.Mgraph.has_vertex g2 b
                 && Pstructs.Mgraph.edge_attrs g2 ~tid:0 a b = Some attrs)
            in
            List.for_all vertex_ok [ 0; 1; 2; 3 ]
            && List.for_all edge_ok [ (0, 1, "e01"); (1, 2, "e12"); (2, 3, "e23") ])
  in
  Alcotest.(check bool) "states explored" true (report.P.states > 0);
  Alcotest.(check int) "edges never dangle" 0 report.P.failures

(* ---- parallel-recovery determinism ---- *)

(* One crash image, recovered at parallelism 1, 2, and 8: §5.1's
   parallel scan/sweep must be a pure performance knob — the recovered
   abstract state has to be bit-identical across k. *)

let test_parallel_recovery_deterministic_mhashmap () =
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:10 ~capacity:(1 lsl 18) () in
  let esys = E.create ~config:base_cfg region in
  let m = Pstructs.Mhashmap.create ~buckets:8 esys in
  for i = 0 to 39 do
    ignore (Pstructs.Mhashmap.put m ~tid:0 (Printf.sprintf "k%02d" (i mod 20)) (string_of_int i))
  done;
  E.sync esys ~tid:0;
  ignore (Pstructs.Mhashmap.put m ~tid:0 "late" "lost");
  R.crash region;
  let image = R.media_image region in
  let recovered k =
    let r = R.of_image ~latency:Nvm.Latency.zero ~max_threads:10 image in
    let esys2, payloads = E.recover ~config:recover_cfg ~threads:k r in
    let m2 = Pstructs.Mhashmap.recover ~buckets:8 esys2 payloads in
    List.sort compare (Pstructs.Mhashmap.to_alist m2 ~tid:0)
  in
  let at1 = recovered 1 in
  Alcotest.(check bool) "something recovered" true (at1 <> []);
  Alcotest.(check (list (pair string string))) "k=2 identical" at1 (recovered 2);
  Alcotest.(check (list (pair string string))) "k=8 identical" at1 (recovered 8)

let test_parallel_recovery_deterministic_mgraph () =
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:10 ~capacity:(1 lsl 18) () in
  let esys = E.create ~config:base_cfg region in
  let g = Pstructs.Mgraph.create ~capacity:16 esys in
  for v = 0 to 9 do
    ignore (Pstructs.Mgraph.add_vertex g ~tid:0 v (Printf.sprintf "attr%d" v))
  done;
  for v = 0 to 8 do
    ignore (Pstructs.Mgraph.add_edge g ~tid:0 v (v + 1) (Printf.sprintf "e%d" v))
  done;
  E.sync esys ~tid:0;
  ignore (Pstructs.Mgraph.remove_vertex g ~tid:0 4);
  R.crash region;
  let image = R.media_image region in
  let summary k =
    let r = R.of_image ~latency:Nvm.Latency.zero ~max_threads:10 image in
    let esys2, payloads = E.recover ~config:recover_cfg ~threads:k r in
    (* graph rebuild itself also fans out over [threads] domains *)
    let g2 = Pstructs.Mgraph.recover ~capacity:16 ~threads:k esys2 payloads in
    let verts =
      List.filter_map
        (fun v -> Option.map (fun a -> (v, a)) (Pstructs.Mgraph.vertex_attrs g2 ~tid:0 v))
        (List.init 16 Fun.id)
    in
    let edges =
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              if a < b then Option.map (fun e -> (a, b, e)) (Pstructs.Mgraph.edge_attrs g2 ~tid:0 a b)
              else None)
            (List.init 16 Fun.id))
        (List.init 16 Fun.id)
    in
    (verts, edges)
  in
  let v1, e1 = summary 1 in
  Alcotest.(check bool) "vertices recovered" true (v1 <> []);
  let v2, e2 = summary 2 in
  let v8, e8 = summary 8 in
  Alcotest.(check bool) "k=2 identical" true (v1 = v2 && e1 = e2);
  Alcotest.(check bool) "k=8 identical" true (v1 = v8 && e1 = e8)

let () =
  Alcotest.run "coalesce"
    [
      ( "coalescer",
        [
          Alcotest.test_case "merges overlap" `Quick test_coalescer_merges_overlap;
          Alcotest.test_case "merges adjacent, keeps gaps" `Quick
            test_coalescer_merges_adjacent_keeps_gaps;
          Alcotest.test_case "resets after flush" `Quick test_coalescer_resets_after_flush;
          Alcotest.test_case "grows" `Quick test_coalescer_grows;
          QCheck_alcotest.to_alcotest prop_coalescer_matches_line_set;
        ] );
      ( "region",
        [
          Alcotest.test_case "batched lines persist" `Quick test_writeback_lines_persists;
          Alcotest.test_case "coalescing stats" `Quick test_note_coalesced_stats;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "fewer write-backs and fences (nb advance)" `Quick
            test_coalescing_reduces_writebacks_and_fences;
          Alcotest.test_case "duplicate flushes eliminated" `Quick
            test_coalescing_removes_duplicate_flushes;
        ] );
      ( "advancer-drain",
        [
          Alcotest.test_case "advancer drain of two loaded workers is crash-correct" `Quick
            test_advancer_drain_correct;
        ] );
      ( "crash-matrix",
        [
          Alcotest.test_case "mqueue (nb advance)" `Quick test_crash_matrix_mqueue;
          Alcotest.test_case "mhashmap (nb advance)" `Quick test_crash_matrix_mhashmap;
          Alcotest.test_case "mskiplist (nb advance)" `Quick test_crash_matrix_mskiplist;
          Alcotest.test_case "mgraph" `Quick test_crash_matrix_mgraph;
        ] );
      ( "parallel-recovery",
        [
          Alcotest.test_case "mhashmap identical at k=1/2/8" `Quick
            test_parallel_recovery_deterministic_mhashmap;
          Alcotest.test_case "mgraph identical at k=1/2/8" `Quick
            test_parallel_recovery_deterministic_mgraph;
        ] );
    ]
