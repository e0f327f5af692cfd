(* Bechamel micro-latency suite: one Test.make per figure/table, each
   measuring the core operation that dominates that experiment.  The
   throughput tables in Figures.* regenerate the paper's series; these
   OLS-fitted per-operation latencies cross-check them (1/latency ≈
   single-thread throughput) with a statistically careful estimator. *)

open Bechamel
open Toolkit

module Cfg = Montage.Config

let key_of i = Printf.sprintf "%032d" i
let value = String.init 1024 (fun i -> Char.chr (65 + (i mod 26)))

let capacity = Systems.map_capacity ~preload:4096 ~value_size:1024
let manual c = { c with Cfg.auto_advance = false }
let montage_map () = Systems.montage_map ~cfg_mod:manual ~capacity ~threads:1 ~buckets:4096 ()

(* Each test owns its system; a counter cycles the key space. *)
let map_op_test ~name (sys : Systems.map_inst) =
  for i = 0 to 4095 do
    sys.Systems.mput ~tid:0 (key_of i) value
  done;
  let counter = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         incr counter;
         let k = key_of (!counter land 8191) in
         if !counter land 1 = 0 then sys.Systems.mput ~tid:0 k value
         else sys.Systems.mrem ~tid:0 k))

let queue_op_test ~name (sys : Systems.queue_inst) =
  for i = 0 to 255 do
    sys.Systems.qenq ~tid:0 (key_of i)
  done;
  let flip = ref false in
  Test.make ~name
    (Staged.stage (fun () ->
         flip := not !flip;
         if !flip then sys.Systems.qenq ~tid:0 value else ignore (sys.Systems.qdeq ~tid:0)))

let tests () =
  [
    (* Fig. 4/7a: Montage hashmap update path *)
    map_op_test ~name:"fig4/7a montage map update" (montage_map ());
    (* Fig. 5/6: Montage queue *)
    queue_op_test ~name:"fig5/6 montage queue"
      (Systems.montage_queue ~cfg_mod:manual ~capacity ~threads:1 ());
    (* Fig. 6: strict persistent queue for contrast *)
    queue_op_test ~name:"fig6 friedman queue"
      (Systems.friedman_queue ~capacity ~threads:1 ());
    (* Fig. 7b: Montage read path *)
    (let sys = montage_map () in
     for i = 0 to 4095 do
       sys.Systems.mput ~tid:0 (key_of i) value
     done;
     let counter = ref 0 in
     Test.make ~name:"fig7b montage map get"
       (Staged.stage (fun () ->
            incr counter;
            ignore (sys.Systems.mget ~tid:0 (key_of (!counter land 4095))))));
    (* Fig. 8: payload-size extremes on the map *)
    map_op_test ~name:"fig8 dali map update" (Systems.dali_map ~capacity ~threads:1 ());
    (* Fig. 9: the sync operation itself *)
    (let sys = montage_map () in
     Test.make ~name:"fig9 montage sync" (Staged.stage (fun () -> sys.Systems.msync ~tid:0)));
    (* Fig. 10: memcached-style set through the store layer *)
    (let store = Systems.store_of (montage_map ()) in
     let counter = ref 0 in
     Test.make ~name:"fig10 memcached set"
       (Staged.stage (fun () ->
            incr counter;
            Kvstore.Store.set store ~tid:0 (key_of (!counter land 4095)) value)));
    (* Fig. 11: Montage graph edge op *)
    (let esys, _ = Systems.montage ~cfg_mod:manual ~capacity ~threads:1 () in
     let g = Pstructs.Mgraph.create ~capacity:4096 esys in
     for i = 0 to 1023 do
       ignore (Pstructs.Mgraph.add_vertex g ~tid:0 i "v")
     done;
     let counter = ref 0 in
     Test.make ~name:"fig11 graph add/remove edge"
       (Staged.stage (fun () ->
            incr counter;
            let u = !counter land 1023 and v = (!counter * 7) land 1023 in
            if u <> v then
              if !counter land 1 = 0 then ignore (Pstructs.Mgraph.add_edge g ~tid:0 u v "e")
              else ignore (Pstructs.Mgraph.remove_edge g ~tid:0 u v))));
  ]

let run () =
  Benchlib.Report.heading "Bechamel micro-latency cross-check (ns/op, OLS fit)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let estimates =
    List.concat_map
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let results = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name ols_result acc ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] ->
                Printf.printf "  %-32s %10.0f ns/op\n%!" name est;
                (name, [ est ]) :: acc
            | _ ->
                Printf.printf "  %-32s (no estimate)\n%!" name;
                (name, [ nan ]) :: acc)
          results [])
      (tests ())
  in
  Benchlib.Report.record ~columns:[ "ns/op" ] ~rows:estimates ~unit_label:"OLS fit" ()
