(* Tests for Pcheck, the persistency-ordering checker: each correctness
   rule triggered by a deliberately buggy access sequence, each lint
   counted, the crash-state enumerator catching a missing fence, and
   stock structures (Montage map, Friedman queue, NVTraverse map)
   running clean under [Enforce]. *)

module P = Nvm.Pcheck
module R = Nvm.Region
module E = Montage.Epoch_sys
module Cfg = Montage.Config

let make_region ?(capacity = 1 lsl 16) () =
  R.create ~latency:Nvm.Latency.zero ~max_threads:4 ~capacity ()

let checked ?(mode = P.Record) ?log_events ?capacity () =
  let r = make_region ?capacity () in
  let c = R.enable_pcheck ~mode ?log_events r in
  (r, c)

let count_violations c pred = List.length (List.filter pred (P.violations c))

let lint_count c kind =
  List.fold_left (fun acc (k, _, n) -> if k = kind then acc + n else acc) 0 (P.lint_counts c)

(* ---- rule: read-unfenced-after-crash (the seeded missing-flush bug) ---- *)

let test_missing_flush_detected () =
  let r, c = checked () in
  (* bug: the "durable" record is stored but never written back; the
     crash spontaneously evicts the dirty line, so recovery reads data
     that only persisted by luck *)
  R.write_string r ~off:0 "not actually durable";
  R.crash ~evict_dirty:1.0 r;
  let (_ : string) = R.read_string r ~off:0 ~len:20 in
  Alcotest.(check bool) "violation recorded" true
    (count_violations c (function P.Read_unfenced_after_crash _ -> true | _ -> false) > 0)

let test_fenced_data_reads_clean_after_crash () =
  let r, c = checked () in
  R.write_string r ~off:0 "properly persisted";
  R.persist r ~tid:0 ~off:0 ~len:18;
  R.crash ~evict_dirty:1.0 r;
  let (_ : string) = R.read_string r ~off:0 ~len:18 in
  Alcotest.(check int) "no violations" 0 (List.length (P.violations c))

let test_recovery_scan_suppresses_rule () =
  let r, c = checked () in
  R.write_string r ~off:0 "unfenced";
  R.crash ~evict_dirty:1.0 r;
  P.set_recovery_scan c true;
  let (_ : string) = R.read_string r ~off:0 ~len:8 in
  P.set_recovery_scan c false;
  Alcotest.(check int) "scan reads are sound by contract" 0 (List.length (P.violations c))

(* ---- rule: flush/store race ---- *)

let test_flush_store_race_detected () =
  let r, c = checked () in
  R.write_string r ~off:0 "v1";
  R.writeback r ~tid:0 ~off:0 ~len:2;
  (* bug: mutate the line while its CLWB is in flight, then fence
     without re-issuing the write-back — the fence may commit v1 *)
  R.write_string r ~off:0 "v2";
  Alcotest.(check int) "provisional until the fence" 0 (List.length (P.violations c));
  R.sfence r ~tid:0;
  Alcotest.(check bool) "race recorded at drain" true
    (count_violations c (function P.Store_flush_race _ -> true | _ -> false) > 0)

let test_rewriteback_before_fence_is_clean () =
  let r, c = checked () in
  (* Mnemosyne-style: store, CLWB, store the same line again, CLWB
     again, one fence — the second CLWB restores coverage *)
  R.write_string r ~off:0 "v1";
  R.writeback r ~tid:0 ~off:0 ~len:2;
  R.write_string r ~off:0 "v2";
  R.writeback r ~tid:0 ~off:0 ~len:2;
  R.sfence r ~tid:0;
  Alcotest.(check int) "re-covered line is clean" 0 (List.length (P.violations c));
  Alcotest.(check int) "but the duplicate flush is linted" 1 (lint_count c P.Duplicate_flush)

(* Montage's buffered answer to the race: a store over a queued line
   that is re-registered with a persist buffer before the fence is
   clean — the new content's flush contract is open again. *)
let test_buffer_push_restores_coverage () =
  let r, c = checked () in
  R.write_string r ~off:0 "v1";
  R.writeback r ~tid:0 ~off:0 ~len:2;
  (* a same-epoch in-place rewrite racing the drain's fence *)
  R.write_string r ~off:0 "v2";
  P.on_buffer_push c ~tid:1 ~epoch:5 ~off:0 ~len:2;
  R.sfence r ~tid:0;
  Alcotest.(check int) "push-covered store is clean" 0 (List.length (P.violations c))

(* ...and the responsibility really transfers: the push-clear does not
   weaken the retirement rule — a re-registered range that then never
   reaches media misses its two-epoch deadline.  The race is forgiven,
   not forgotten. *)
let test_buffer_push_transfers_to_retirement_rule () =
  let r, c = checked () in
  R.write_string r ~off:0 "v1";
  R.writeback r ~tid:0 ~off:0 ~len:2;
  R.write_string r ~off:0 "v2";
  P.on_buffer_push c ~tid:1 ~epoch:5 ~off:0 ~len:2;
  P.on_epoch_advance c ~epoch:6;
  P.on_epoch_advance c ~epoch:7;
  Alcotest.(check bool) "unflushed re-registration caught at retirement" true
    (count_violations c (function P.Epoch_retired_unflushed _ -> true | _ -> false) > 0)

(* The push forgives only stores that precede it, so a drain landing
   between a worker's store and its push would flag.  The worker's
   rewrite declaration, opened before the store, covers that window;
   the push closes it and the next racing store counts again. *)
let test_rewrite_declaration_covers_store_to_push () =
  let r, c = checked () in
  R.write_string r ~off:0 "v1";
  R.writeback r ~tid:0 ~off:0 ~len:2;
  P.on_rewrite c ~tid:1 ~off:0 ~len:2;
  R.write_string r ~off:0 "v2";
  R.sfence r ~tid:0;
  Alcotest.(check int) "declared store is clean" 0 (List.length (P.violations c));
  P.on_buffer_push c ~tid:1 ~epoch:5 ~off:0 ~len:2;
  R.writeback r ~tid:0 ~off:0 ~len:2;
  R.write_string r ~off:0 "v3";
  R.sfence r ~tid:0;
  Alcotest.(check bool) "the push closed the declaration" true
    (count_violations c (function P.Store_flush_race _ -> true | _ -> false) > 0)

let test_store_after_fence_is_clean () =
  let r, c = checked () in
  R.write_string r ~off:0 "v1";
  R.persist r ~tid:0 ~off:0 ~len:2;
  R.write_string r ~off:0 "v2";
  Alcotest.(check int) "no violations" 0 (List.length (P.violations c))

let test_enforce_mode_raises () =
  let r, _c = checked ~mode:P.Enforce () in
  R.write_string r ~off:0 "v1";
  R.writeback r ~tid:0 ~off:0 ~len:2;
  R.write_string r ~off:0 "v2";
  let raised =
    try
      R.sfence r ~tid:0;
      false
    with P.Violation (P.Store_flush_race _) -> true
  in
  Alcotest.(check bool) "Enforce raises at the detection point" true raised

(* ---- rule: epoch-retired-unflushed (driven through the hooks) ---- *)

let test_epoch_retired_unflushed () =
  let c = P.create ~capacity:4096 ~max_threads:2 () in
  (* a payload range registered in epoch 5 that never reaches media *)
  P.on_buffer_push c ~tid:0 ~epoch:5 ~off:0 ~len:64;
  P.on_epoch_advance c ~epoch:6;
  Alcotest.(check int) "deadline not yet passed" 0 (List.length (P.violations c));
  P.on_epoch_advance c ~epoch:7;
  Alcotest.(check bool) "missed two-epoch deadline" true
    (count_violations c (function P.Epoch_retired_unflushed _ -> true | _ -> false) > 0)

let test_epoch_obligation_satisfied_by_drain () =
  let c = P.create ~capacity:4096 ~max_threads:2 () in
  P.on_buffer_push c ~tid:0 ~epoch:5 ~off:0 ~len:64;
  P.on_writeback c ~tid:1 ~off:0 ~len:64;
  P.on_drain c ~tid:1;
  P.on_epoch_advance c ~epoch:6;
  P.on_epoch_advance c ~epoch:7;
  Alcotest.(check int) "flushed range retires clean" 0 (List.length (P.violations c))

(* ---- rule: epoch-clock regression ---- *)

let test_epoch_clock_regression () =
  let c = P.create ~capacity:4096 ~max_threads:2 () in
  P.on_epoch_advance c ~epoch:6;
  P.on_epoch_advance c ~epoch:7;
  Alcotest.(check int) "monotone advances pass" 0 (List.length (P.violations c));
  (* a losing nonblocking helper must never report its stale tick *)
  P.on_epoch_advance c ~epoch:6;
  Alcotest.(check bool) "stale advance flagged" true
    (count_violations c (function P.Epoch_clock_regression _ -> true | _ -> false) > 0);
  P.clear_violations c;
  (* recovery legally resumes at a lower clock: crash resets the mark *)
  P.on_crash c ~injected:[];
  P.on_epoch_advance c ~epoch:3;
  Alcotest.(check int) "post-crash restart is clean" 0 (List.length (P.violations c))

(* ---- rule: linearize-epoch-mismatch ---- *)

let test_linearize_epoch_mismatch () =
  let c = P.create ~capacity:4096 ~max_threads:2 () in
  P.on_linearize c ~epoch:3 ~clock:3 ~success:true;
  P.on_linearize c ~epoch:3 ~clock:4 ~success:false;
  Alcotest.(check int) "matching or failed decisions pass" 0 (List.length (P.violations c));
  P.on_linearize c ~epoch:3 ~clock:4 ~success:true;
  Alcotest.(check bool) "success against wrong clock flagged" true
    (count_violations c (function P.Linearize_epoch_mismatch _ -> true | _ -> false) > 0)

(* ---- rule: declared contracts (expect_fenced) ---- *)

let test_expect_fenced_contract () =
  let r, c = checked () in
  R.write_string r ~off:0 "payload";
  R.persist r ~tid:0 ~off:0 ~len:7;
  R.expect_fenced r ~what:"test: persisted range" ~off:0 ~len:7;
  Alcotest.(check int) "fenced range passes" 0 (List.length (P.violations c));
  R.write_string r ~off:128 "dirty";
  R.expect_fenced r ~what:"test: dirty range" ~off:128 ~len:5;
  Alcotest.(check bool) "dirty range breaks the contract" true
    (count_violations c (function P.Contract _ -> true | _ -> false) > 0)

let test_expect_fenced_without_checker_is_noop () =
  let r = make_region () in
  R.write_string r ~off:0 "dirty";
  R.expect_fenced r ~what:"no checker attached" ~off:0 ~len:5;
  Alcotest.(check bool) "no checker" true (R.checker r = None)

(* ---- performance lints ---- *)

let test_lints_counted () =
  let r, c = checked () in
  (* clean-writeback: CLWB of a line never stored to *)
  R.writeback r ~tid:0 ~off:128 ~len:8;
  (* duplicate-flush: same line queued twice in one fence interval *)
  R.write_string r ~off:0 "x";
  R.writeback r ~tid:0 ~off:0 ~len:1;
  R.writeback r ~tid:0 ~off:0 ~len:1;
  R.sfence r ~tid:0;
  (* empty-fence: nothing queued *)
  R.sfence r ~tid:0;
  Alcotest.(check int) "clean writeback" 1 (lint_count c P.Clean_writeback);
  Alcotest.(check int) "duplicate flush" 1 (lint_count c P.Duplicate_flush);
  Alcotest.(check int) "empty fence" 1 (lint_count c P.Empty_fence);
  Alcotest.(check int) "total" 3 (P.lint_total c);
  Alcotest.(check int) "lints are never violations" 0 (List.length (P.violations c));
  Alcotest.(check bool) "summary renders" true (String.length (P.summary c) > 0)

(* ---- bounded crash-state enumeration ---- *)

(* valid-flag protocol on two lines: flag at 64 must imply data at 0 *)
let flag_predicate m = m.[64] = '\000' || m.[0] = 'D'

let test_explore_finds_missing_fence () =
  let r, c = checked ~log_events:true () in
  (* bug: data and flag written back under a single fence — a crash
     where only the flag's CLWB completed exposes the torn state *)
  R.write_string r ~off:0 "DATA";
  R.set_u8 r ~off:64 1;
  R.writeback r ~tid:0 ~off:0 ~len:4;
  R.writeback r ~tid:0 ~off:64 ~len:1;
  R.sfence r ~tid:0;
  let report = P.explore c flag_predicate in
  Alcotest.(check bool) "states explored" true (report.P.states > 0);
  Alcotest.(check bool) "torn state found" true (report.P.failures > 0);
  Alcotest.(check bool) "failure described" true (report.P.first_failure <> None)

let test_explore_passes_ordered_protocol () =
  let r, c = checked ~log_events:true () in
  (* correct: persist data, then persist flag — no reachable crash
     state has the flag without the data *)
  R.write_string r ~off:0 "DATA";
  R.persist r ~tid:0 ~off:0 ~len:4;
  R.set_u8 r ~off:64 1;
  R.persist r ~tid:0 ~off:64 ~len:1;
  let report = P.explore c flag_predicate in
  Alcotest.(check bool) "states explored" true (report.P.states > 0);
  Alcotest.(check int) "no failing state" 0 report.P.failures

let test_explore_requires_event_log () =
  let _, c = checked () in
  let raised = try ignore (P.explore c (fun _ -> true)); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "explore without log rejected" true raised

(* ---- stock structures run clean under Enforce ---- *)

let testing_cfg = { Cfg.testing with max_threads = 4 }

let test_montage_map_clean_under_enforce () =
  Alcotest.(check bool) "testing config enforces" true (testing_cfg.Cfg.pcheck = Cfg.Pcheck_enforce);
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 24) () in
  let esys = E.create ~config:testing_cfg region in
  let m = Pstructs.Mhashmap.create ~buckets:64 esys in
  for i = 0 to 49 do
    ignore (Pstructs.Mhashmap.put m ~tid:0 (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i))
  done;
  E.sync esys ~tid:0;
  ignore (Pstructs.Mhashmap.put m ~tid:0 "late" "update");
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let m2 = Pstructs.Mhashmap.recover ~buckets:64 esys2 payloads in
  Alcotest.(check int) "synced contents recovered" 50 (Pstructs.Mhashmap.size m2);
  match R.checker region with
  | None -> Alcotest.fail "testing config should have attached a checker"
  | Some c -> Alcotest.(check int) "no violations" 0 (List.length (P.violations c))

(* Helping advance: a helper thread publishes the owner's ring.
   The two-epoch durability obligation ([Epoch_retired_unflushed])
   tracks the line, not the thread — write-backs performed by the
   helping advancer on the owner's behalf must satisfy it, with no
   false violation and the owner's data durable after the tick. *)
let test_helper_persists_for_owner_clean () =
  let cfg = { testing_cfg with Cfg.drain_on_end_op = false } in
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 22) () in
  let esys = E.create ~config:cfg region in
  let m = Pstructs.Mhashmap.create ~buckets:16 esys in
  for i = 0 to 9 do
    ignore (Pstructs.Mhashmap.put m ~tid:0 (Printf.sprintf "k%d" i) (string_of_int i))
  done;
  (* tid 0 leaves its records buffered in the ring; tid 1 alone drives
     the clock two ticks, claiming and fencing tid 0's publication *)
  E.advance_epoch esys ~tid:1;
  E.advance_epoch esys ~tid:1;
  R.crash region;
  let esys2, payloads = E.recover ~config:cfg region in
  let m2 = Pstructs.Mhashmap.recover ~buckets:16 esys2 payloads in
  Alcotest.(check int) "owner's writes durable via the helper" 10 (Pstructs.Mhashmap.size m2);
  match R.checker region with
  | None -> Alcotest.fail "checker missing"
  | Some c ->
      Alcotest.(check int) "no retired-unflushed (or other) violations" 0
        (List.length (P.violations c))

let test_friedman_queue_clean_under_enforce () =
  let r = make_region ~capacity:(1 lsl 22) () in
  let (_ : P.t) = R.enable_pcheck ~mode:P.Enforce r in
  let pm = Baselines.Pmem.create r in
  let q = Baselines.Friedman_queue.create pm in
  for i = 0 to 19 do
    Baselines.Friedman_queue.enqueue q ~tid:0 (Printf.sprintf "v%d" i)
  done;
  ignore (Baselines.Friedman_queue.dequeue q ~tid:0);
  ignore (Baselines.Friedman_queue.dequeue q ~tid:0);
  R.crash r;
  let pm2 = Baselines.Pmem.create r in
  let q2 = Baselines.Friedman_queue.recover pm2 in
  Alcotest.(check (option string)) "survivors intact" (Some "v2")
    (Baselines.Friedman_queue.dequeue q2 ~tid:0);
  match R.checker r with
  | None -> Alcotest.fail "checker missing"
  | Some c -> Alcotest.(check int) "no violations" 0 (List.length (P.violations c))

let test_nvtraverse_map_clean_under_enforce () =
  let r = make_region ~capacity:(1 lsl 22) () in
  let (_ : P.t) = R.enable_pcheck ~mode:P.Enforce r in
  let pm = Baselines.Pmem.create r in
  let m = Baselines.Nvtraverse_map.create ~buckets:64 pm in
  for i = 0 to 49 do
    ignore (Baselines.Nvtraverse_map.put m ~tid:0 (Printf.sprintf "k%d" i) (string_of_int i))
  done;
  Alcotest.(check (option string)) "get" (Some "7") (Baselines.Nvtraverse_map.get m ~tid:0 "k7");
  ignore (Baselines.Nvtraverse_map.remove m ~tid:0 "k7");
  match R.checker r with
  | None -> Alcotest.fail "checker missing"
  | Some c -> Alcotest.(check int) "no violations" 0 (List.length (P.violations c))

let () =
  Alcotest.run "pcheck"
    [
      ( "read-after-crash",
        [
          Alcotest.test_case "missing flush detected" `Quick test_missing_flush_detected;
          Alcotest.test_case "fenced data clean" `Quick test_fenced_data_reads_clean_after_crash;
          Alcotest.test_case "recovery scan suppression" `Quick test_recovery_scan_suppresses_rule;
        ] );
      ( "flush-store-race",
        [
          Alcotest.test_case "race detected" `Quick test_flush_store_race_detected;
          Alcotest.test_case "re-writeback is clean" `Quick test_rewriteback_before_fence_is_clean;
          Alcotest.test_case "buffer push restores coverage" `Quick
            test_buffer_push_restores_coverage;
          Alcotest.test_case "push transfers to retirement rule" `Quick
            test_buffer_push_transfers_to_retirement_rule;
          Alcotest.test_case "fenced store clean" `Quick test_store_after_fence_is_clean;
          Alcotest.test_case "enforce raises" `Quick test_enforce_mode_raises;
          Alcotest.test_case "rewrite declaration covers store-to-push" `Quick
            test_rewrite_declaration_covers_store_to_push;
        ] );
      ( "epoch-obligations",
        [
          Alcotest.test_case "retired unflushed" `Quick test_epoch_retired_unflushed;
          Alcotest.test_case "satisfied by drain" `Quick test_epoch_obligation_satisfied_by_drain;
          Alcotest.test_case "linearize mismatch" `Quick test_linearize_epoch_mismatch;
          Alcotest.test_case "clock regression" `Quick test_epoch_clock_regression;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "expect_fenced" `Quick test_expect_fenced_contract;
          Alcotest.test_case "no checker no-op" `Quick test_expect_fenced_without_checker_is_noop;
        ] );
      ("lints", [ Alcotest.test_case "counted per site" `Quick test_lints_counted ]);
      ( "explore",
        [
          Alcotest.test_case "finds missing fence" `Quick test_explore_finds_missing_fence;
          Alcotest.test_case "ordered protocol passes" `Quick test_explore_passes_ordered_protocol;
          Alcotest.test_case "requires event log" `Quick test_explore_requires_event_log;
        ] );
      ( "stock-structures",
        [
          Alcotest.test_case "montage map" `Quick test_montage_map_clean_under_enforce;
          Alcotest.test_case "helper persists for owner" `Quick
            test_helper_persists_for_owner_clean;
          Alcotest.test_case "friedman queue" `Quick test_friedman_queue_clean_under_enforce;
          Alcotest.test_case "nvtraverse map" `Quick test_nvtraverse_map_clean_under_enforce;
        ] );
    ]
