(* Regeneration of every figure and table in the paper's evaluation
   (§5.2 and §6).  Each function prints the paper's series for this
   machine's scale and records shape verdicts for the ordering claims
   the paper makes.  See EXPERIMENTS.md for the paper-vs-measured
   discussion. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config

let key_of i = Printf.sprintf "%032d" i

(* One benchmark point; a crashing system yields NaN instead of killing
   the suite, with the culprit named on stderr. *)
let guarded name f =
  try f ()
  with e ->
    Printf.eprintf "[bench] %s failed: %s\n%s%!" name (Printexc.to_string e)
      (Printexc.get_backtrace ());
    nan

let make_value n =
  (* distinct-ish contents, the size is what matters *)
  String.init n (fun i -> Char.chr (65 + ((i * 7) mod 26)))

(* ---- generic map workload (get:insert:remove mix) ---- *)

let preload_map (m : Systems.map_inst) ~preload ~value =
  for i = 0 to preload - 1 do
    m.mput ~tid:0 (key_of i) value
  done

let run_map_point ~(sys : Systems.map_inst) ~threads ~get_frac ~ins_frac ~keyspace ~value =
  let r =
    Benchlib.Runner.throughput ~threads ~duration_s:Env.duration_s (fun ~tid ~rng ->
        let x = Util.Xoshiro.float rng in
        let key = key_of (Util.Xoshiro.int rng keyspace) in
        if x < get_frac then ignore (sys.mget ~tid key)
        else if x < get_frac +. ins_frac then sys.mput ~tid key value
        else sys.mrem ~tid key)
  in
  r.Benchlib.Runner.ops_per_sec

(* measure one map system across the thread sweep *)
let sweep_map_system ~make ~get_frac ~ins_frac ~value =
  let keyspace = 2 * Env.preload in
  List.map
    (fun threads ->
      guarded "map system" (fun () ->
          let sys = make () in
          preload_map sys ~preload:Env.preload ~value;
          let v = run_map_point ~sys ~threads ~get_frac ~ins_frac ~keyspace ~value in
          sys.Systems.mstop ();
          v))
    Env.threads

(* ---- Figures 4 & 5: design-space exploration ---- *)

let epoch_lengths_ns = [ 100_000; 1_000_000; 10_000_000; 100_000_000 ]

let epoch_label ns =
  if ns >= 1_000_000_000 then Printf.sprintf "%ds" (ns / 1_000_000_000)
  else if ns >= 1_000_000 then Printf.sprintf "%dms" (ns / 1_000_000)
  else Printf.sprintf "%dus" (ns / 1_000)

let design_combos : (string * (Cfg.t -> Cfg.t)) list =
  [
    ("Buf=2", fun c -> { c with buffer_size = 2 });
    ("Buf=16", fun c -> { c with buffer_size = 16 });
    ("Buf=64", fun c -> { c with buffer_size = 64 });
    ("Buf=256", fun c -> { c with buffer_size = 256 });
    ("Buf=64+LocalFree", fun c -> { c with buffer_size = 64; reclaim = Cfg.Workers });
  ]

let design_references : (string * (Cfg.t -> Cfg.t)) list =
  [
    ("DirWB", fun c -> { c with writeback = Cfg.Direct });
    ("Montage(T)", fun c -> { c with persist = false; auto_advance = false });
    ("Buf=64+DirFree", fun c -> { c with buffer_size = 64; direct_free = true });
  ]

let fig4 () =
  Benchlib.Report.heading "Figure 4: design exploration — hashmap, 0:1:1 g:i:r (1 thread)";
  (* single worker: multi-domain points on a one-core host measure the
     scheduler, and long epochs need headroom for delayed reclamation *)
  let threads = 1 in
  let value = make_value Env.value_size in
  let keyspace = 2 * Env.preload in
  let capacity = 8 * Systems.map_capacity ~preload:Env.preload ~value_size:Env.value_size in
  let point cfg_mod =
    guarded "fig4 point" (fun () ->
        let sys = Systems.montage_map ~cfg_mod ~capacity ~threads ~buckets:(1 lsl 15) () in
        preload_map sys ~preload:Env.preload ~value;
        let v = run_map_point ~sys ~threads ~get_frac:0.0 ~ins_frac:0.5 ~keyspace ~value in
        sys.Systems.mstop ();
        v)
  in
  let rows =
    List.map
      (fun (label, base_mod) ->
        ( label,
          List.map
            (fun ns -> point (fun c -> { (base_mod c) with Cfg.epoch_length_ns = ns }))
            epoch_lengths_ns ))
      design_combos
    @ List.map
        (fun (label, base_mod) -> (label, [ point base_mod; nan; nan; nan ]))
        design_references
  in
  Benchlib.Report.table ~columns:(List.map epoch_label epoch_lengths_ns) ~rows ~unit_label:"ops/s" ();
  (let find name = List.assoc name rows in
   let buf64_10ms = List.nth (find "Buf=64") 2 in
   let dirwb = List.nth (find "DirWB") 0 in
   Benchlib.Report.check ~figure:"fig4"
     ~claim:"buffered write-back (Buf=64, 10ms) beats immediate write-back (DirWB)"
     (buf64_10ms > dirwb))

let fig5 () =
  Benchlib.Report.heading "Figure 5: design exploration — 1-thread queue, 1:1 enq:deq";
  let value = make_value Env.value_size in
  let capacity = Systems.queue_capacity ~value_size:Env.value_size in
  let point cfg_mod =
    guarded "fig5 point" (fun () ->
        let sys = Systems.montage_queue ~cfg_mod ~capacity ~threads:1 () in
        for i = 0 to 999 do
          sys.Systems.qenq ~tid:0 (key_of i)
        done;
        let r =
          Benchlib.Runner.throughput ~threads:1 ~duration_s:Env.duration_s (fun ~tid ~rng ->
              if Util.Xoshiro.bool rng then sys.Systems.qenq ~tid value
              else ignore (sys.Systems.qdeq ~tid))
        in
        sys.Systems.qstop ();
        r.Benchlib.Runner.ops_per_sec)
  in
  let rows =
    List.map
      (fun (label, base_mod) ->
        ( label,
          List.map
            (fun ns -> point (fun c -> { (base_mod c) with Cfg.epoch_length_ns = ns }))
            epoch_lengths_ns ))
      design_combos
    @ List.map
        (fun (label, base_mod) -> (label, [ point base_mod; nan; nan; nan ]))
        design_references
  in
  Benchlib.Report.table ~columns:(List.map epoch_label epoch_lengths_ns) ~rows ~unit_label:"ops/s" ();
  (let find name = List.assoc name rows in
   let buffered = List.nth (find "Buf=64") 2 and direct = List.nth (find "DirWB") 0 in
   Benchlib.Report.check ~figure:"fig5" ~claim:"buffering helps the single-threaded queue too"
     (buffered > direct))

(* ---- Figure 6: queue throughput vs threads ---- *)

let fig6 () =
  Benchlib.Report.heading "Figure 6: concurrent queues, 1:1 enqueue:dequeue";
  let value = make_value Env.value_size in
  let rows =
    List.map
      (fun (name, make) ->
        ( name,
          List.map
            (fun threads ->
              guarded name (fun () ->
                  let sys : Systems.queue_inst = make () in
                  for i = 0 to 999 do
                    sys.Systems.qenq ~tid:0 (key_of i)
                  done;
                  let r =
                    Benchlib.Runner.throughput ~threads ~duration_s:Env.duration_s
                      (fun ~tid ~rng ->
                        if Util.Xoshiro.bool rng then sys.Systems.qenq ~tid value
                        else ignore (sys.Systems.qdeq ~tid))
                  in
                  sys.Systems.qstop ();
                  r.Benchlib.Runner.ops_per_sec))
            Env.threads ))
      (Systems.all_queue_systems ~threads:Env.max_threads ~value_size:Env.value_size)
  in
  Benchlib.Report.table ~columns:(List.map string_of_int Env.threads) ~rows ~unit_label:"ops/s" ();
  (* claims are evaluated at 1 thread: with a single physical core,
     multi-domain points measure the OS scheduler, not the systems *)
  let at_one name = List.nth (List.assoc name rows) 0 in
  Benchlib.Report.check ~figure:"fig6"
    ~claim:"Montage at least matches Friedman's special-purpose queue (paper's 6x opens at scale)"
    (at_one "Montage" > 0.85 *. at_one "Friedman");
  Benchlib.Report.check ~figure:"fig6" ~claim:"Montage >> Pronto-Sync and Mnemosyne queues"
    (at_one "Montage" > 1.2 *. at_one "Pronto-Sync" && at_one "Montage" > 2.0 *. at_one "Mnemosyne");
  Benchlib.Report.check ~figure:"fig6" ~claim:"Montage within ~4x of DRAM (T)"
    (at_one "Montage" > at_one "DRAM (T)" /. 4.0)

(* ---- Figure 7: hashmap throughput vs threads ---- *)

let fig7 ~sub ~get_frac ~ins_frac ~claim_factors () =
  let mix_label =
    Printf.sprintf "%d:%d:%d get:insert:remove"
      (int_of_float (get_frac /. ((1.0 -. get_frac) /. 2.0) +. 0.5))
      1 1
  in
  ignore mix_label;
  Benchlib.Report.heading
    (Printf.sprintf "Figure 7%s: concurrent hashmaps (get=%.2f insert=%.2f remove=%.2f)" sub get_frac
       ins_frac
       (1.0 -. get_frac -. ins_frac));
  let value = make_value Env.value_size in
  let rows =
    List.map
      (fun (name, make) -> (name, sweep_map_system ~make ~get_frac ~ins_frac ~value))
      (Systems.all_map_systems ~threads:Env.max_threads ~preload:Env.preload ~value_size:Env.value_size)
  in
  Benchlib.Report.table ~columns:(List.map string_of_int Env.threads) ~rows ~unit_label:"ops/s" ();
  let at_one name = List.nth (List.assoc name rows) 0 in
  List.iter
    (fun (a, b, factor) ->
      Benchlib.Report.check ~figure:("fig7" ^ sub)
        ~claim:(Printf.sprintf "%s > %.1fx %s" a factor b)
        (at_one a > factor *. at_one b))
    claim_factors

let fig7a () =
  fig7 ~sub:"a" ~get_frac:0.0 ~ins_frac:0.5
    ~claim_factors:
      [
        ("Montage", "Dali", 1.0);
        ("Montage", "MOD", 1.0);
        ("Montage", "Pronto-Sync", 1.5);
        ("Montage", "Mnemosyne", 1.5);
      ]
    ()

let fig7b () =
  fig7 ~sub:"b" ~get_frac:0.9 ~ins_frac:0.05
    ~claim_factors:
      [ ("Montage", "MOD", 1.0); ("Montage", "Dali", 1.0); ("Montage", "Mnemosyne", 1.0) ]
    ()

(* ---- Figure 8: payload-size sweep, single-threaded ---- *)

let payload_sizes = [ 16; 64; 256; 1024; 4096 ]

let fig8a () =
  Benchlib.Report.heading "Figure 8a: single-threaded queues vs payload size";
  let rows_names = Systems.all_queue_systems ~threads:1 ~value_size:Env.value_size |> List.map fst in
  let rows =
    List.map
      (fun name ->
        ( name,
          List.map
            (fun size ->
              let make = List.assoc name (Systems.all_queue_systems ~threads:1 ~value_size:size) in
              let sys = make () in
              let value = make_value size in
              for i = 0 to 999 do
                sys.Systems.qenq ~tid:0 (key_of i)
              done;
              let r =
                Benchlib.Runner.throughput ~threads:1 ~duration_s:Env.duration_s (fun ~tid ~rng ->
                    if Util.Xoshiro.bool rng then sys.Systems.qenq ~tid value
                    else ignore (sys.Systems.qdeq ~tid))
              in
              sys.Systems.qstop ();
              r.Benchlib.Runner.ops_per_sec)
            payload_sizes ))
      rows_names
  in
  Benchlib.Report.table ~columns:(List.map string_of_int payload_sizes) ~rows ~unit_label:"ops/s" ();
  let at name i = List.nth (List.assoc name rows) i in
  Benchlib.Report.check ~figure:"fig8a" ~claim:"Montage beats strict persistent queues at every size"
    (List.for_all (fun i -> at "Montage" i > at "Pronto-Sync" i) [ 0; 2; 4 ])

let fig8b () =
  Benchlib.Report.heading "Figure 8b: single-threaded hashmap, 2:1:1 g:i:r, vs payload size";
  let keyspace = 2 * Env.preload in
  let rows_names =
    Systems.all_map_systems ~threads:1 ~preload:Env.preload ~value_size:Env.value_size |> List.map fst
  in
  let rows =
    List.map
      (fun name ->
        ( name,
          List.map
            (fun size ->
              let make =
                List.assoc name
                  (Systems.all_map_systems ~threads:1 ~preload:Env.preload ~value_size:size)
              in
              let sys = make () in
              let value = make_value size in
              preload_map sys ~preload:Env.preload ~value;
              let v = run_map_point ~sys ~threads:1 ~get_frac:0.5 ~ins_frac:0.25 ~keyspace ~value in
              sys.Systems.mstop ();
              v)
            payload_sizes ))
      rows_names
  in
  Benchlib.Report.table ~columns:(List.map string_of_int payload_sizes) ~rows ~unit_label:"ops/s" ();
  let at name i = List.nth (List.assoc name rows) i in
  Benchlib.Report.check ~figure:"fig8b" ~claim:"Montage leads general-purpose systems across sizes"
    (List.for_all (fun i -> at "Montage" i > at "Pronto-Sync" i && at "Montage" i > at "Mnemosyne" i)
       [ 0; 2; 4 ])

(* ---- Figure 9: sync frequency ---- *)

let fig9 () =
  Benchlib.Report.heading "Figure 9: hashmap with a sync every k operations (0:1:1)";
  let sync_intervals = [ 1; 10; 100; 1000; 10000 ] in
  let value = make_value Env.value_size in
  let keyspace = 2 * Env.preload in
  let threads = Env.max_threads in
  let capacity = Systems.map_capacity ~preload:Env.preload ~value_size:Env.value_size in
  let variants =
    [
      ("Montage (cb)", fun c -> c);
      ("Montage (dw)", fun c -> { c with Cfg.drain_on_end_op = true });
    ]
  in
  let rows =
    List.map
      (fun (name, cfg_mod) ->
        ( name,
          List.map
            (fun k ->
              let sys = Systems.montage_map ~cfg_mod ~capacity ~threads ~buckets:(1 lsl 15) () in
              preload_map sys ~preload:Env.preload ~value;
              let counters = Array.make (threads + 1) 0 in
              let r =
                Benchlib.Runner.throughput ~threads ~duration_s:Env.duration_s (fun ~tid ~rng ->
                    let x = Util.Xoshiro.float rng in
                    let key = key_of (Util.Xoshiro.int rng keyspace) in
                    if x < 0.5 then sys.Systems.mput ~tid key value else sys.Systems.mrem ~tid key;
                    counters.(tid) <- counters.(tid) + 1;
                    if counters.(tid) mod k = 0 then sys.Systems.msync ~tid)
              in
              sys.Systems.mstop ();
              r.Benchlib.Runner.ops_per_sec)
            sync_intervals ))
      variants
  in
  (* flat references *)
  let ref_row name make =
    let sys : Systems.map_inst = make () in
    preload_map sys ~preload:Env.preload ~value;
    let v = run_map_point ~sys ~threads ~get_frac:0.0 ~ins_frac:0.5 ~keyspace ~value in
    sys.Systems.mstop ();
    (name, List.map (fun _ -> v) sync_intervals)
  in
  let rows =
    rows
    @ [
        ref_row "NVM (T)" (fun () ->
            Systems.nvm_t_map ~capacity ~threads ~buckets:(1 lsl 15) ());
        ref_row "Montage (T)" (fun () ->
            Systems.montage_t_map ~capacity ~threads ~buckets:(1 lsl 15) ());
      ]
  in
  Benchlib.Report.table
    ~columns:(List.map (fun k -> "1/" ^ string_of_int k) sync_intervals)
    ~rows ~unit_label:"ops/s" ();
  let cb = List.assoc "Montage (cb)" rows in
  Benchlib.Report.check ~figure:"fig9" ~claim:"throughput recovers as syncs become rarer"
    (List.nth cb 4 > List.nth cb 0)

(* ---- Figure 10: memcached-style store under YCSB-A ---- *)

let fig10 () =
  Benchlib.Report.heading "Figure 10: memcached-like store, YCSB-A (50r/50u zipfian)";
  let records = Env.preload in
  let spec = Kvstore.Ycsb.workload_a ~records ~value_size:Env.value_size () in
  let capacity = Systems.map_capacity ~preload:records ~value_size:Env.value_size in
  let backends =
    [
      ("DRAM (T)", fun () -> Systems.dram_map ~buckets:(1 lsl 15) ());
      ("Montage (T)", fun () -> Systems.montage_t_map ~capacity ~threads:Env.max_threads ~buckets:(1 lsl 15) ());
      ("Montage", fun () -> Systems.montage_map ~capacity ~threads:Env.max_threads ~buckets:(1 lsl 15) ());
      ("MHAMT", fun () -> Systems.mhamt_map ~capacity:(4 * capacity) ~threads:Env.max_threads ());
    ]
  in
  let rows =
    List.map
      (fun (name, make) ->
        ( name,
          List.map
            (fun threads ->
              let sys : Systems.map_inst = make () in
              let backend =
                (* reference systems expose no atomic RMW; YCSB-A is
                   read/update only, so the get-then-put fallback is safe *)
                Kvstore.Store.backend
                  ~get:(fun ~tid k -> sys.Systems.mget ~tid k)
                  ~put:(fun ~tid k v ->
                    sys.Systems.mput ~tid k v;
                    None)
                  ~remove:(fun ~tid k ->
                    let old = sys.Systems.mget ~tid k in
                    sys.Systems.mrem ~tid k;
                    old)
                  ()
              in
              let store = Kvstore.Store.create backend in
              let wl = Kvstore.Ycsb.create spec in
              let load_rng = Util.Xoshiro.create 7 in
              Kvstore.Ycsb.load wl ~set:(fun k v -> Kvstore.Store.set store ~tid:0 k v) load_rng;
              let r =
                Benchlib.Runner.throughput ~threads ~duration_s:Env.duration_s (fun ~tid ~rng ->
                    Kvstore.Ycsb.execute wl ~tid store (Kvstore.Ycsb.next wl rng))
              in
              sys.Systems.mstop ();
              r.Benchlib.Runner.ops_per_sec)
            Env.threads ))
      backends
  in
  Benchlib.Report.table ~columns:(List.map string_of_int Env.threads) ~rows ~unit_label:"ops/s" ();
  let at_one name = List.nth (List.assoc name rows) 0 in
  Benchlib.Report.check ~figure:"fig10" ~claim:"persistent memcached within a small factor of DRAM (T)"
    (at_one "Montage" > at_one "DRAM (T)" /. 5.0)

(* ---- snapshot-while-writing: continuous scans vs concurrent writes ---- *)

(* One window per (system, writer count): [writers] domains overwrite
   preloaded keys flat-out while one extra domain takes a snapshot,
   folds it to completion, releases it, and repeats.  Reported rates
   come from shared counters over the runner's measured window, so the
   scan and write columns describe the same seconds.  Writers only
   overwrite (never insert or remove), so every consistent scan must
   see exactly [keyspace] bindings — the check that makes this a
   snapshot-isolation figure and not just a throughput race. *)
let snapshot_scan () =
  Benchlib.Report.heading
    "Snapshot-while-writing: continuous full scans vs concurrent overwrite load";
  let value = make_value Env.value_size in
  let keyspace = Env.preload in
  let capacity = 8 * Systems.map_capacity ~preload:keyspace ~value_size:Env.value_size in
  let systems =
    [
      ( "MHAMT",
        fun writers -> Systems.mhamt_scan ~capacity ~threads:(writers + 2) () );
      ( "Mhashmap",
        fun writers -> Systems.mhashmap_scan ~capacity ~threads:(writers + 2) ~buckets:(1 lsl 15) () );
    ]
  in
  let points =
    List.map
      (fun (name, make) ->
        ( name,
          List.map
            (fun writers ->
              (* tuple-typed point, so [guarded]'s nan doesn't fit: a
                 crash yields nan rates plus one poisoned scan so the
                 consistency check below fails loudly *)
              try
                  let sys : Systems.scan_inst = make writers in
                  for i = 0 to keyspace - 1 do
                    sys.Systems.zput ~tid:0 (key_of i) value
                  done;
                  let scans = Atomic.make 0 and writes = Atomic.make 0 in
                  let bad_scans = Atomic.make 0 in
                  let r =
                    Benchlib.Runner.throughput ~threads:(writers + 1) ~duration_s:Env.duration_s
                      (fun ~tid ~rng ->
                        if tid = writers then begin
                          (* scanner domain: one full consistent scan per op *)
                          let n = sys.Systems.zscan ~tid in
                          if n <> keyspace then Atomic.incr bad_scans;
                          Atomic.incr scans
                        end
                        else begin
                          let i = Util.Xoshiro.int rng keyspace in
                          sys.Systems.zput ~tid (key_of i) value;
                          Atomic.incr writes
                        end)
                  in
                  sys.Systems.zstop ();
                  let per_s c = float_of_int (Atomic.get c) /. r.Benchlib.Runner.seconds in
                  (per_s scans, per_s writes, Atomic.get bad_scans, Atomic.get scans)
              with e ->
                Printf.eprintf "[bench] snapshot %s w=%d failed: %s\n%s%!" name writers
                  (Printexc.to_string e)
                  (Printexc.get_backtrace ());
                (nan, nan, 1, 0))
            Env.threads ))
      systems
  in
  let col3 f = List.map (fun (n, ps) -> (n, List.map f ps)) points in
  Benchlib.Report.table
    ~columns:(List.map string_of_int Env.threads)
    ~rows:(col3 (fun (s, _, _, _) -> s))
    ~unit_label:"scans/s" ();
  Benchlib.Report.table
    ~columns:(List.map string_of_int Env.threads)
    ~rows:(col3 (fun (_, w, _, _) -> w))
    ~unit_label:"writes/s" ();
  let mhamt = List.assoc "MHAMT" points in
  let total f = List.fold_left (fun acc p -> acc + f p) 0 mhamt in
  Benchlib.Report.check ~figure:"snapshot"
    ~claim:"every MHAMT scan under write load saw the full consistent keyspace"
    (total (fun (_, _, bad, _) -> bad) = 0 && total (fun (_, _, _, n) -> n) > 0);
  let at_max f =
    let ps = List.nth mhamt (List.length mhamt - 1) in
    f ps
  in
  Benchlib.Report.check ~figure:"snapshot"
    ~claim:"scans and writes both make progress at the highest writer count"
    (at_max (fun (s, _, _, _) -> s) > 0.0 && at_max (fun (_, w, _, _) -> w) > 0.0)

(* ---- Figure 11: graph microbenchmark ---- *)

type graph_inst = {
  gname : string;
  g_add_edge : tid:int -> int -> int -> bool;
  g_remove_edge : tid:int -> int -> int -> bool;
  g_add_vertex : tid:int -> int -> bool;
  g_remove_vertex : tid:int -> int -> bool;
  g_stop : unit -> unit;
}

let graph_value = lazy (make_value 64) (* vertex/edge attributes *)

let montage_graph_inst ?(name = "Montage") ?(cfg_mod = fun c -> c) ~threads () =
  let attrs = Lazy.force graph_value in
  let capacity = max (1 lsl 27) (Env.graph_capacity * Env.graph_degree * 256) in
  let r = Systems.region ~capacity ~threads in
  let cfg = cfg_mod { Cfg.default with max_threads = threads + 1 } in
  let esys = E.create ~config:cfg r in
  let g = Pstructs.Mgraph.create ~capacity:Env.graph_capacity esys in
  ( {
      gname = name;
      g_add_edge = (fun ~tid u v -> Pstructs.Mgraph.add_edge g ~tid u v attrs);
      g_remove_edge = (fun ~tid u v -> Pstructs.Mgraph.remove_edge g ~tid u v);
      g_add_vertex = (fun ~tid i -> Pstructs.Mgraph.add_vertex g ~tid i attrs);
      g_remove_vertex = (fun ~tid i -> Pstructs.Mgraph.remove_vertex g ~tid i);
      g_stop = (fun () -> E.stop_background esys);
    },
    `Montage (esys, g, r) )

let dram_graph_inst () =
  let attrs = Lazy.force graph_value in
  let g = Baselines.Transient_graph.create ~capacity:Env.graph_capacity Baselines.Transient_graph.Dram in
  {
    gname = "DRAM (T)";
    g_add_edge = (fun ~tid u v -> Baselines.Transient_graph.add_edge g ~tid u v attrs);
    g_remove_edge = (fun ~tid u v -> Baselines.Transient_graph.remove_edge g ~tid u v);
    g_add_vertex = (fun ~tid i -> Baselines.Transient_graph.add_vertex g ~tid i attrs);
    g_remove_vertex = (fun ~tid i -> Baselines.Transient_graph.remove_vertex g ~tid i);
    g_stop = (fun () -> ());
  }

let preload_graph inst ~rng =
  let cap = Env.graph_capacity in
  for i = 0 to (cap / 2) - 1 do
    ignore (inst.g_add_vertex ~tid:0 i)
  done;
  for i = 0 to (cap / 2) - 1 do
    for _ = 1 to Env.graph_degree do
      let peer = Util.Xoshiro.int rng (cap / 2) in
      if peer <> i then ignore (inst.g_add_edge ~tid:0 i peer)
    done
  done

let fig11 () =
  Benchlib.Report.heading "Figure 11: graph microbenchmark (edge ops : vertex ops)";
  let ratios = [ ("4:1", 0.8); ("499:1", 0.998) ] in
  let systems =
    [
      ("DRAM (T)", fun _threads -> (dram_graph_inst (), `None));
      ( "Montage (T)",
        fun threads ->
          montage_graph_inst ~name:"Montage (T)"
            ~cfg_mod:(fun c -> { c with Cfg.persist = false; auto_advance = false })
            ~threads () );
      ("Montage", fun threads -> montage_graph_inst ~threads ());
    ]
  in
  List.iter
    (fun (rlabel, edge_frac) ->
      Printf.printf "-- edge:vertex = %s --\n" rlabel;
      let rows =
        List.map
          (fun (name, make) ->
            ( name,
              List.map
                (fun threads ->
                  let inst, _ = make threads in
                  preload_graph inst ~rng:(Util.Xoshiro.create 11);
                  let cap = Env.graph_capacity in
                  let r =
                    Benchlib.Runner.throughput ~threads ~duration_s:Env.duration_s
                      (fun ~tid ~rng ->
                        let x = Util.Xoshiro.float rng in
                        if x < edge_frac then begin
                          let u = Util.Xoshiro.int rng cap and v = Util.Xoshiro.int rng cap in
                          if Util.Xoshiro.bool rng then ignore (inst.g_add_edge ~tid u v)
                          else ignore (inst.g_remove_edge ~tid u v)
                        end
                        else begin
                          let i = Util.Xoshiro.int rng cap in
                          if Util.Xoshiro.bool rng then begin
                            if inst.g_add_vertex ~tid i then
                              for _ = 1 to Env.graph_degree do
                                ignore (inst.g_add_edge ~tid i (Util.Xoshiro.int rng cap))
                              done
                          end
                          else ignore (inst.g_remove_vertex ~tid i)
                        end)
                  in
                  inst.g_stop ();
                  r.Benchlib.Runner.ops_per_sec)
                Env.threads ))
          systems
      in
      Benchlib.Report.table ~columns:(List.map string_of_int Env.threads) ~rows ~unit_label:"ops/s" ();
      let at_one name = List.nth (List.assoc name rows) 0 in
      Benchlib.Report.check ~figure:"fig11"
        ~claim:(Printf.sprintf "persistent graph within a small factor of transient (%s mix)" rlabel)
        (at_one "Montage" > at_one "DRAM (T)" /. 4.0))
    ratios

(* ---- Figure 12: graph recovery vs parallel construction ---- *)

let fig12 () =
  Benchlib.Report.heading "Figure 12: power-law graph — parallel construction vs Montage recovery";
  let nv = Env.graph_capacity / 2 in
  let rng = Util.Xoshiro.create 2024 in
  (* power-law-ish edge list: endpoint = min of two uniforms, squared
     preference for low ids (RMAT-flavoured skew) *)
  let ne = nv * Env.graph_degree / 2 in
  let pick () =
    let a = Util.Xoshiro.int rng nv and b = Util.Xoshiro.int rng nv in
    min a b
  in
  let edges = Array.init ne (fun _ -> (pick (), Util.Xoshiro.int rng nv)) in
  let attrs = Lazy.force graph_value in
  (* construction time on a transient graph, k threads *)
  let construct_transient threads =
    let g = Baselines.Transient_graph.create ~capacity:Env.graph_capacity Baselines.Transient_graph.Dram in
    let _, seconds =
      Benchlib.Runner.time (fun () ->
          let dom k =
            Domain.spawn (fun () ->
                let lo = k * nv / threads and hi = (k + 1) * nv / threads in
                for i = lo to hi - 1 do
                  ignore (Baselines.Transient_graph.add_vertex g ~tid:k i attrs)
                done)
          in
          Array.init threads dom |> Array.iter Domain.join;
          let dome k =
            Domain.spawn (fun () ->
                let lo = k * ne / threads and hi = (k + 1) * ne / threads in
                for i = lo to hi - 1 do
                  let u, v = edges.(i) in
                  if u <> v then ignore (Baselines.Transient_graph.add_edge g ~tid:k u v attrs)
                done)
          in
          Array.init threads dome |> Array.iter Domain.join)
    in
    seconds
  in
  (* construction on a Montage graph with persistence elided = NVM (T) *)
  let construct_montage ~persist threads =
    let capacity = max (1 lsl 27) (Env.graph_capacity * Env.graph_degree * 256) in
    let r = Systems.region ~capacity ~threads in
    let cfg =
      if persist then { Cfg.default with max_threads = threads + 1 }
      else { Cfg.default with max_threads = threads + 1; persist = false; auto_advance = false }
    in
    let esys = E.create ~config:cfg r in
    let g = Pstructs.Mgraph.create ~capacity:Env.graph_capacity esys in
    let _, seconds =
      Benchlib.Runner.time (fun () ->
          let dom k =
            Domain.spawn (fun () ->
                let lo = k * nv / threads and hi = (k + 1) * nv / threads in
                for i = lo to hi - 1 do
                  ignore (Pstructs.Mgraph.add_vertex g ~tid:k i attrs)
                done)
          in
          Array.init threads dom |> Array.iter Domain.join;
          let dome k =
            Domain.spawn (fun () ->
                let lo = k * ne / threads and hi = (k + 1) * ne / threads in
                for i = lo to hi - 1 do
                  let u, v = edges.(i) in
                  if u <> v then ignore (Pstructs.Mgraph.add_edge g ~tid:k u v attrs)
                done)
          in
          Array.init threads dome |> Array.iter Domain.join)
    in
    (seconds, esys, r)
  in
  (* recovery time: build once with persistence, sync, crash, recover *)
  let recover_time threads =
    let _, esys, r = construct_montage ~persist:true 1 in
    E.sync esys ~tid:0;
    E.stop_background esys;
    Nvm.Region.crash r;
    let _, seconds =
      Benchlib.Runner.time (fun () ->
          (* small worker count: recovery itself parallelizes via
             Mgraph.recover's domains, not esys worker slots *)
          let esys2, payloads =
            E.recover ~config:{ Cfg.testing with max_threads = 3 } ~threads:(min threads 4) r
          in
          let g = Pstructs.Mgraph.recover ~capacity:Env.graph_capacity ~threads esys2 payloads in
          ignore g)
    in
    seconds
  in
  let rows =
    [
      ("DRAM (T) construct", List.map construct_transient Env.threads);
      ( "NVM (T) construct",
        List.map
          (fun threads ->
            let s, esys, _ = construct_montage ~persist:false threads in
            E.stop_background esys;
            s)
          Env.threads );
      ("Montage recover", List.map recover_time Env.threads);
    ]
  in
  Benchlib.Report.table
    ~fmt:(Printf.sprintf "%.3f")
    ~columns:(List.map string_of_int Env.threads)
    ~rows:(List.map (fun (n, vs) -> (n, vs)) rows)
    ~unit_label:"seconds" ();
  let recover1 = List.nth (List.assoc "Montage recover" rows) 0 in
  let construct1 = List.nth (List.assoc "NVM (T) construct" rows) 0 in
  Benchlib.Report.check ~figure:"fig12"
    ~claim:"recovery is competitive with parallel reconstruction"
    (recover1 < 3.0 *. construct1)

(* ---- ablations: design choices DESIGN.md calls out ---- *)

(* Montage supports both lock-based and nonblocking structures (§3.3):
   measure what the epoch-verified DCSS machinery costs relative to a
   plain lock at the same buffered-durability guarantee, and what the
   ordered (skip list) index costs relative to hashing. *)
let ablations () =
  Benchlib.Report.heading "Ablation: lock-based vs nonblocking Montage structures";
  let value = make_value 256 in
  let capacity = 1 lsl 27 in
  let point make_ops threads =
    guarded "ablation" (fun () ->
        let push, pop, stop = make_ops threads in
        for i = 0 to 999 do
          push ~tid:0 (key_of i)
        done;
        let r =
          Benchlib.Runner.throughput ~threads ~duration_s:Env.duration_s (fun ~tid ~rng ->
              if Util.Xoshiro.bool rng then push ~tid value else ignore (pop ~tid))
        in
        stop ();
        r.Benchlib.Runner.ops_per_sec)
  in
  let montage_esys threads =
    let r = Systems.region ~capacity ~threads in
    E.create ~config:{ Cfg.default with max_threads = threads + 1 } r
  in
  let mk_lock_stack threads =
    let esys = montage_esys threads in
    let s = Pstructs.Mstack.create esys in
    ( (fun ~tid v -> Pstructs.Mstack.push s ~tid v),
      (fun ~tid -> Pstructs.Mstack.pop s ~tid),
      fun () -> E.stop_background esys )
  in
  let mk_nb_stack threads =
    let esys = montage_esys threads in
    let s = Pstructs.Nb_stack.create esys in
    ( (fun ~tid v -> Pstructs.Nb_stack.push s ~tid v),
      (fun ~tid -> Pstructs.Nb_stack.pop s ~tid),
      fun () -> E.stop_background esys )
  in
  let mk_lock_queue threads =
    let esys = montage_esys threads in
    let q = Pstructs.Mqueue.create esys in
    ( (fun ~tid v -> Pstructs.Mqueue.enqueue q ~tid v),
      (fun ~tid -> Pstructs.Mqueue.dequeue q ~tid),
      fun () -> E.stop_background esys )
  in
  let mk_nb_queue threads =
    let esys = montage_esys threads in
    let q = Pstructs.Nb_queue.create esys in
    ( (fun ~tid v -> Pstructs.Nb_queue.enqueue q ~tid v),
      (fun ~tid -> Pstructs.Nb_queue.dequeue q ~tid),
      fun () -> E.stop_background esys )
  in
  let rows =
    [
      ("stack: single lock", List.map (point mk_lock_stack) Env.threads);
      ("stack: nonblocking DCSS", List.map (point mk_nb_stack) Env.threads);
      ("queue: single lock", List.map (point mk_lock_queue) Env.threads);
      ("queue: nonblocking DCSS", List.map (point mk_nb_queue) Env.threads);
    ]
  in
  Benchlib.Report.table ~columns:(List.map string_of_int Env.threads) ~rows ~unit_label:"ops/s" ();
  Benchlib.Report.heading "Ablation: hash index vs ordered (skip list) index";
  let map_point make_ops threads =
    guarded "ablation map" (fun () ->
        let put, get, remove, stop = make_ops threads in
        for i = 0 to 4999 do
          put ~tid:0 (key_of i) value
        done;
        let r =
          Benchlib.Runner.throughput ~threads ~duration_s:Env.duration_s (fun ~tid ~rng ->
              let key = key_of (Util.Xoshiro.int rng 10_000) in
              match Util.Xoshiro.int rng 4 with
              | 0 -> put ~tid key value
              | 1 -> remove ~tid key
              | _ -> get ~tid key)
        in
        stop ();
        r.Benchlib.Runner.ops_per_sec)
  in
  let mk_hash threads =
    let esys = montage_esys threads in
    let m = Pstructs.Mhashmap.create ~buckets:(1 lsl 14) esys in
    ( (fun ~tid k v -> ignore (Pstructs.Mhashmap.put m ~tid k v)),
      (fun ~tid k -> ignore (Pstructs.Mhashmap.get m ~tid k)),
      (fun ~tid k -> ignore (Pstructs.Mhashmap.remove m ~tid k)),
      fun () -> E.stop_background esys )
  in
  let mk_skip threads =
    let esys = montage_esys threads in
    let m = Pstructs.Mskiplist.create esys in
    ( (fun ~tid k v -> ignore (Pstructs.Mskiplist.put m ~tid k v)),
      (fun ~tid k -> ignore (Pstructs.Mskiplist.get m ~tid k)),
      (fun ~tid k -> ignore (Pstructs.Mskiplist.remove m ~tid k)),
      fun () -> E.stop_background esys )
  in
  let rows =
    [
      ("hashmap", List.map (map_point mk_hash) Env.threads);
      ("skiplist (ordered)", List.map (map_point mk_skip) Env.threads);
    ]
  in
  Benchlib.Report.table ~columns:(List.map string_of_int Env.threads) ~rows ~unit_label:"ops/s" ()

(* ---- §6.4 recovery-time table ---- *)

let recovery_table () =
  Benchlib.Report.heading "§6.4: hashmap recovery time vs data-set size";
  let value_size = 1024 in
  let value = make_value value_size in
  let thread_options = [ 1; min 4 Env.max_threads ] in
  let rows =
    List.map
      (fun mb ->
        let elements = mb * 1024 * 1024 / value_size in
        let capacity = Systems.map_capacity ~preload:elements ~value_size in
        let r = Systems.region ~capacity ~threads:4 in
        let esys = E.create ~config:{ Cfg.testing with max_threads = 6 } r in
        let m = Pstructs.Mhashmap.create ~buckets:(1 lsl 15) esys in
        for i = 0 to elements - 1 do
          ignore (Pstructs.Mhashmap.put m ~tid:0 (key_of i) value)
        done;
        E.sync esys ~tid:0;
        Nvm.Region.crash r;
        let times =
          List.map
            (fun threads ->
              (* recover the epoch system fresh each time from the same
                 image: recovery is idempotent on an unmodified image *)
              let _, seconds =
                Benchlib.Runner.time (fun () ->
                    let esys2, payloads =
                      E.recover ~config:{ Cfg.testing with max_threads = 6 } ~threads r
                    in
                    ignore (Pstructs.Mhashmap.recover ~buckets:(1 lsl 15) ~threads esys2 payloads))
              in
              seconds)
            thread_options
        in
        (Printf.sprintf "%d MB (%d items)" mb elements, times))
      Env.recovery_sizes_mb
  in
  Benchlib.Report.table
    ~fmt:(Printf.sprintf "%.3f")
    ~columns:(List.map (fun t -> Printf.sprintf "%dthr" t) thread_options)
    ~rows ~unit_label:"seconds" ();
  match rows with
  | (_, [ t1; tk ]) :: _ ->
      Benchlib.Report.check ~figure:"recovery"
        ~claim:"parallel recovery within 2.5x of sequential (1 core: no speedup possible)"
        (tk <= t1 *. 2.5)
  | _ -> ()

(* ---- write-back coalescing accounting ---- *)

(* Fixed-op-count, single-worker, manually ticked runs, measured by
   exact write-back, fence and coalescer line counts rather than a
   timed race.  The hashmap side leans on bursts of same-key rewrites
   (same-epoch in-place pset updates keep dirtying the same payload
   lines); the queue side on the enqueue-persist / dequeue-scrub
   overlap of a 1:1 mix.  Both must dedup at least 2x at the
   coalescer. *)
let coalesce () =
  Benchlib.Report.heading "Write-back coalescing: lines and fences per op (fixed workload)";
  let ops = 20_000 in
  let fops = float_of_int ops in
  let value = make_value 64 in
  let cfg = { Cfg.default with max_threads = 1; auto_advance = false } in
  let finish r esys =
    E.sync esys ~tid:0;
    E.stop_background esys;
    Nvm.Region.stats r
  in
  let map_run () =
    let r = Systems.region ~capacity:(1 lsl 26) ~threads:1 in
    let esys = E.create ~config:cfg r in
    let m = Pstructs.Mhashmap.create ~buckets:(1 lsl 10) esys in
    for i = 0 to ops - 1 do
      ignore (Pstructs.Mhashmap.put m ~tid:0 (key_of (i / 16 mod 512)) value);
      if i mod 1024 = 1023 then E.advance_epoch esys ~tid:0
    done;
    finish r esys
  in
  let queue_run () =
    let r = Systems.region ~capacity:(1 lsl 26) ~threads:1 in
    let esys = E.create ~config:cfg r in
    let q = Pstructs.Mqueue.create esys in
    for i = 0 to ops - 1 do
      if i land 1 = 0 then Pstructs.Mqueue.enqueue q ~tid:0 value
      else ignore (Pstructs.Mqueue.dequeue q ~tid:0);
      if i mod 1024 = 1023 then E.advance_epoch esys ~tid:0
    done;
    finish r esys
  in
  let safe name f =
    try Some (f ())
    with e ->
      Printf.eprintf "[bench] coalesce %s failed: %s\n%!" name (Printexc.to_string e);
      None
  in
  let map = safe "hashmap" map_run in
  let queue = safe "queue" queue_run in
  let row name = function
    | None -> (name, [ nan; nan; nan ])
    | Some { Nvm.Region.writebacks; fences; coalesce_lines_in; coalesce_lines_out; _ } ->
        let dedup =
          if coalesce_lines_out = 0 then nan
          else float_of_int coalesce_lines_in /. float_of_int coalesce_lines_out
        in
        (name, [ float_of_int writebacks /. fops; float_of_int fences /. fops; dedup ])
  in
  Benchlib.Report.table
    ~fmt:(Printf.sprintf "%.3f")
    ~columns:[ "wb-lines/op"; "fences/op"; "dedup" ]
    ~rows:[ row "hashmap" map; row "queue" queue ]
    ~unit_label:"per op" ();
  let dedups_2x what = function
    | Some { Nvm.Region.coalesce_lines_in = li; coalesce_lines_out = lo; _ } ->
        Benchlib.Report.check ~figure:"coalesce"
          ~claim:(what ^ " dedup at least 2x at the coalescer")
          (lo > 0 && li >= 2 * lo)
    | None -> Benchlib.Report.check ~figure:"coalesce" ~claim:(what ^ " run completed") false
  in
  dedups_2x "hashmap rewrite bursts" map;
  dedups_2x "queue enqueue/dequeue mix" queue

(* ---- Netserve: the TCP front end under closed-loop load ---- *)

(* The §6.2 validation taken all the way to sockets: the memcached
   store behind the sharded netserve front end, driven by the
   closed-loop load generator over loopback.  Throughput vs worker
   count for the Montage backend against the same server on a
   transient (DRAM) map — the gap is the full buffered-persistence
   cost as a network client sees it — plus the latency percentiles at
   the widest sharding.  Each point builds a fresh server on an
   ephemeral port, preloads the keyspace, and shuts down gracefully
   (drain + epoch sync), feeding [Systems.report_netserve]. *)
(* A server over a fresh [backend] store (Montage's epoch sync is the
   shutdown drain's durability barrier) for the length of [f]; then
   the graceful shutdown, whose stats feed [Systems.report_netserve]. *)
let with_netserve ~backend (config : Netserve.config) f =
  let workers = config.workers in
  let store, esys, r =
    match backend with
    | `Montage ->
        let capacity = 1 lsl 26 in
        let r = Systems.region ~capacity ~threads:workers in
        let esys = E.create ~config:{ Cfg.default with max_threads = workers + 1 } r in
        let map = Pstructs.Mhashmap.create ~buckets:(1 lsl 12) esys in
        (Kvstore.Store.create (Kvstore.Store.of_mhashmap map), Some esys, Some r)
    | `Transient ->
        let m = Baselines.Transient_map.create ~buckets:(1 lsl 12) Baselines.Transient_map.Dram in
        (Kvstore.Store.create (Kvstore.Store.of_transient_map m), None, None)
  in
  let t =
    match esys with
    | Some esys ->
        Netserve.start ~config
          ~sync:(fun ~tid -> E.sync esys ~tid)
          ~persisted_epoch:(fun () -> E.persisted_epoch esys)
          store
    | None -> Netserve.start ~config store
  in
  let result = f t in
  let d = Netserve.shutdown t in
  Systems.note_netserve t d;
  (match (esys, r) with
  | Some esys, Some r ->
      E.stop_background esys;
      Systems.note_region_stats r;
      Systems.note_mirror_stats esys r
  | _ -> ());
  result

let netserve_point ~backend ~workers =
  let value_size = 64 and keyspace = 2000 in
  with_netserve ~backend { Netserve.default_config with port = 0; workers; tick_s = 0.01 }
    (fun t ->
      let lg =
        {
          Netserve.Loadgen.default_config with
          port = Netserve.port t;
          conns = max 4 (2 * workers);
          domains = 2;
          duration_s = Env.duration_s;
          pipeline = 8;
          value_size;
          keyspace;
          get_frac = 0.9;
          key_prefix = "ns";
        }
      in
      Netserve.Loadgen.preload ~config:lg ();
      Netserve.Loadgen.run ~config:lg ())

let netserve () =
  Benchlib.Report.heading
    "Netserve: memcached TCP front end, closed-loop loadgen (90% get, 64 B values)";
  let worker_counts = Env.threads in
  let safe backend workers =
    try Some (netserve_point ~backend ~workers)
    with e ->
      Printf.eprintf "[bench] netserve %d workers failed: %s\n%!" workers (Printexc.to_string e);
      None
  in
  let points =
    List.map
      (fun (name, backend) ->
        (name, backend, List.map (fun w -> (w, safe backend w)) worker_counts))
      [ ("Montage", `Montage); ("Transient (DRAM)", `Transient) ]
  in
  let tput = function None -> nan | Some r -> r.Netserve.Loadgen.ops_per_sec in
  Benchlib.Report.table
    ~columns:(List.map (fun w -> Printf.sprintf "%dw" w) worker_counts)
    ~rows:(List.map (fun (name, _, pts) -> (name, List.map (fun (_, p) -> tput p) pts)) points)
    ~unit_label:"ops/s" ();
  (* latency at the widest sharding *)
  Benchlib.Report.table
    ~columns:[ "mean_us"; "p50_us"; "p95_us"; "p99_us" ]
    ~rows:
      (List.map
         (fun (name, _, pts) ->
           match List.rev pts with
           | (_, Some r) :: _ ->
               ( name,
                 [
                   r.Netserve.Loadgen.mean_us;
                   r.Netserve.Loadgen.p50_us;
                   r.Netserve.Loadgen.p95_us;
                   r.Netserve.Loadgen.p99_us;
                 ] )
           | _ -> (name, [ nan; nan; nan; nan ]))
         points)
    ~unit_label:(Printf.sprintf "latency at %d workers" (List.fold_left max 1 worker_counts))
    ();
  let montage_pts = match points with (_, _, pts) :: _ -> pts | [] -> [] in
  Benchlib.Report.check ~figure:"netserve"
    ~claim:"the Montage-backed server sustains non-zero throughput at every worker count"
    (montage_pts <> []
    && List.for_all
         (fun (_, p) -> match p with Some r -> r.Netserve.Loadgen.ops > 0 && r.Netserve.Loadgen.errors = 0 | None -> false)
         montage_pts);
  Benchlib.Report.check ~figure:"netserve"
    ~claim:"latency percentiles are ordered (p50 <= p95 <= p99) on the Montage backend"
    (match List.rev montage_pts with
    | (_, Some r) :: _ ->
        r.Netserve.Loadgen.p50_us <= r.Netserve.Loadgen.p95_us
        && r.Netserve.Loadgen.p95_us <= r.Netserve.Loadgen.p99_us
    | _ -> false)

(* ---- C10K: connection scaling and open-loop offered load ---- *)

(* Connection-census scaling for the readiness backends.  Each point
   starts a fresh 2-worker server, parks [census] idle connections in
   the pollers, runs a closed-loop burst over a small busy subset, and
   then round-trips a [version] command on every idle connection to
   prove the census is still being served.  Epoll should hold its 1K
   throughput at 10K+ idle connections (the kernel holds the interest
   set; waits cost O(ready)); select degrades and cannot track fd
   numbers past FD_SETSIZE at all.  Both ends of every connection live
   in this process, so the sweep is clamped to RLIMIT_NOFILE/2. *)

(* [ck_report] is [None] when the busy burst itself could not run —
   the select backend refuses fds past FD_SETSIZE, so at large censuses
   the burst connections land beyond the limit and get reset.  The
   point still carries the census/answered counts, which are the
   figure's real signal on that arm. *)
type c10k_point = {
  ck_requested : int;
  ck_established : int;
  ck_answered : int;
  ck_report : Netserve.Loadgen.report option;
}

let c10k_census_point ~backend ~poller ~census =
  let config =
    {
      Netserve.default_config with
      port = 0;
      workers = 2;
      poller = Some poller;
      max_conns = census + 128;
      backlog = 1024;
      idle_timeout_s = 0.0;
      tick_s = 0.01;
    }
  in
  with_netserve ~backend config (fun t ->
      let port = Netserve.port t in
      let idle =
        List.filter_map
          (fun _ -> try Some (Netserve.Client.connect port) with Unix.Unix_error _ -> None)
          (List.init census Fun.id)
      in
      let established = List.length idle in
      let lg =
        {
          Netserve.Loadgen.default_config with
          port;
          conns = 16;
          domains = 2;
          duration_s = Env.duration_s;
          value_size = 64;
          keyspace = 2000;
          key_prefix = "ck";
        }
      in
      let report =
        try
          Netserve.Loadgen.preload ~config:lg ();
          Some (Netserve.Loadgen.run ~config:lg ())
        with Netserve.Loadgen.Connection_lost _ | Unix.Unix_error _ -> None
      in
      (* every idle connection must still answer after the burst *)
      let answered = Netserve.Client.version_sweep idle in
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) idle;
      {
        ck_requested = census;
        ck_established = established;
        ck_answered = answered;
        ck_report = report;
      })

let c10k () =
  Benchlib.Report.heading
    "C10K: mostly-idle connection census vs readiness backend (2 workers, 16 busy conns)";
  let soft = Netserve.Poller.raise_fd_limit 45_000 in
  let budget = max 64 ((soft - 512) / 2) in
  (* 400 sits under FD_SETSIZE even with client and server fds sharing
     one process, so the select arm gets one census it can fully hold *)
  let requested = [ 400; 1_000; 5_000; 10_000; 20_000 ] in
  let censuses = List.sort_uniq compare (List.map (fun c -> min c budget) requested) in
  if List.exists (fun c -> c > budget) requested then
    Printf.printf
      "note: RLIMIT_NOFILE soft limit %d caps the in-process census at %d connections\n%!" soft
      budget;
  let series =
    [
      ("Montage/epoll", `Montage, Netserve.Poller.Epoll);
      ("Transient/epoll", `Transient, Netserve.Poller.Epoll);
      ("Montage/select", `Montage, Netserve.Poller.Select);
    ]
  in
  let series =
    if Netserve.Poller.epoll_available then series
    else [ ("Montage/select", `Montage, Netserve.Poller.Select) ]
  in
  let points =
    List.map
      (fun (name, backend, poller) ->
        ( name,
          List.map
            (fun census ->
              try Some (c10k_census_point ~backend ~poller ~census)
              with e ->
                Printf.eprintf "[bench] c10k %s census=%d failed: %s\n%!" name census
                  (Printexc.to_string e);
                None)
            censuses ))
      series
  in
  let columns = List.map (fun c -> Printf.sprintf "%dc" c) censuses in
  let cell f = function None -> nan | Some p -> f p in
  let rcell f =
    cell (fun p -> match p.ck_report with Some r -> f r | None -> nan)
  in
  Benchlib.Report.table ~columns
    ~rows:
      (List.map
         (fun (name, pts) ->
           (name, List.map (rcell (fun r -> r.Netserve.Loadgen.ops_per_sec)) pts))
         points)
    ~unit_label:"busy-subset ops/s" ();
  Benchlib.Report.table ~columns
    ~rows:
      (List.map
         (fun (name, pts) ->
           (name, List.map (rcell (fun r -> r.Netserve.Loadgen.p99_us)) pts))
         points)
    ~unit_label:"busy-subset p99_us" ();
  Benchlib.Report.table ~columns
    ~rows:
      (List.map
         (fun (name, pts) -> (name, List.map (cell (fun p -> float_of_int p.ck_answered)) pts))
         points)
    ~unit_label:"idle conns still answering (of census)" ();
  (if Netserve.Poller.epoll_available then begin
     let epoll_pts = match points with (_, pts) :: _ -> List.filter_map Fun.id pts | [] -> [] in
     Benchlib.Report.check ~figure:"c10k"
       ~claim:"epoll serves the full idle census at every size (all connections answer)"
       (epoll_pts <> []
       && List.for_all
            (fun p -> p.ck_established = p.ck_requested && p.ck_answered = p.ck_requested)
            epoll_pts);
     (* anchored at the 1K census, the paper-style C10K comparison
        point (the 400-conn point exists for the select arm) *)
     let anchor = List.find_opt (fun p -> p.ck_requested >= 1_000) epoll_pts in
     (match (anchor, List.rev epoll_pts) with
     | Some first, last :: _ when first.ck_requested < last.ck_requested ->
         Benchlib.Report.check ~figure:"c10k"
           ~claim:
             (Printf.sprintf
                "epoll throughput at %d idle conns stays within 10%% of the %d-conn figure"
                last.ck_requested first.ck_requested)
           (match (first.ck_report, last.ck_report) with
           | Some fr, Some lr ->
               lr.Netserve.Loadgen.ops_per_sec >= 0.9 *. fr.Netserve.Loadgen.ops_per_sec
           | _ -> false)
     | _ -> Benchlib.Report.check ~figure:"c10k" ~claim:"epoll census sweep completed" false);
     let select_pts =
       List.concat_map
         (fun (name, pts) -> if name = "Montage/select" then List.filter_map Fun.id pts else [])
         points
     in
     Benchlib.Report.check ~figure:"c10k"
       ~claim:
         "select holds a sub-FD_SETSIZE census but drops idle conns past it; epoll holds both"
       (List.exists
          (fun p ->
            p.ck_requested < Netserve.Poller.select_fd_limit
            && p.ck_answered = p.ck_requested)
          select_pts
       && List.exists
            (fun p ->
              p.ck_requested >= Netserve.Poller.select_fd_limit
              && p.ck_answered < p.ck_requested)
            select_pts)
   end);
  (* ---- open loop: latency vs offered load ---- *)
  Benchlib.Report.heading "C10K: open-loop latency vs offered load (Montage, epoll when available)";
  let workers = 2 in
  let capacity = 1 lsl 26 in
  let r = Systems.region ~capacity ~threads:workers in
  let esys = E.create ~config:{ Cfg.default with max_threads = workers + 1 } r in
  let map = Pstructs.Mhashmap.create ~buckets:(1 lsl 12) esys in
  let store = Kvstore.Store.create (Kvstore.Store.of_mhashmap map) in
  let config = { Netserve.default_config with port = 0; workers; tick_s = 0.01 } in
  let t =
    Netserve.start ~config
      ~sync:(fun ~tid -> E.sync esys ~tid)
      ~persisted_epoch:(fun () -> E.persisted_epoch esys)
      store
  in
  let lg =
    {
      Netserve.Loadgen.default_config with
      port = Netserve.port t;
      conns = 16;
      domains = 2;
      duration_s = Env.duration_s;
      value_size = 64;
      keyspace = 2000;
      key_prefix = "ol";
    }
  in
  Netserve.Loadgen.preload ~config:lg ();
  (* closed-loop capacity and its (coordinated-omission-blind) p99 *)
  let closed = Netserve.Loadgen.run ~config:lg () in
  let capacity_rate = closed.Netserve.Loadgen.ops_per_sec in
  let fractions = [ 0.5; 0.9; 1.5 ] in
  let open_pts =
    List.map
      (fun frac ->
        let rate = Float.max 1000.0 (frac *. capacity_rate) in
        try (frac, Some (Netserve.Loadgen.run_open ~config:lg ~grace_s:1.0 ~rate ()))
        with e ->
          Printf.eprintf "[bench] c10k open-loop %.1fx failed: %s\n%!" frac
            (Printexc.to_string e);
          (frac, None))
      fractions
  in
  let d = Netserve.shutdown t in
  Systems.note_netserve t d;
  E.stop_background esys;
  Systems.note_region_stats r;
  Benchlib.Report.table
    ~columns:[ "offered/s"; "achieved/s"; "p50_us"; "p99_us"; "abandoned" ]
    ~rows:
      (( Printf.sprintf "closed loop (capacity)",
         [ capacity_rate; capacity_rate; closed.Netserve.Loadgen.p50_us; closed.Netserve.Loadgen.p99_us; 0.0 ] )
      :: List.map
           (fun (frac, p) ->
             let label = Printf.sprintf "open %.1fx capacity" frac in
             match p with
             | Some (o : Netserve.Loadgen.open_report) ->
                 ( label,
                   [
                     o.Netserve.Loadgen.offered_rate;
                     o.Netserve.Loadgen.achieved_rate;
                     o.Netserve.Loadgen.o_p50_us;
                     o.Netserve.Loadgen.o_p99_us;
                     float_of_int o.Netserve.Loadgen.abandoned;
                   ] )
             | None -> (label, [ nan; nan; nan; nan; nan ]))
           open_pts)
    ~unit_label:"open vs closed loop" ();
  match List.assoc_opt 1.5 open_pts with
  | Some (Some o) ->
      Benchlib.Report.check ~figure:"c10k"
        ~claim:
          "open-loop p99 at 1.5x capacity exceeds the closed-loop p99 (queueing delay is charged \
           to latency)"
        (o.Netserve.Loadgen.o_p99_us > closed.Netserve.Loadgen.p99_us)
  | _ -> Benchlib.Report.check ~figure:"c10k" ~claim:"open-loop overload point completed" false

(* ---- Read path: volatile payload mirrors ---- *)

(* Fixed-op read-mostly mix (95% GET / 5% PUT over a uniform key
   cycle) with exact media-read counters, across Montage with mirrors,
   the same build with mirrors off ([mirror_max_bytes = 0]), SOFT, and
   DRAM (T).  The headline claims: warm payload reads hit DRAM at least
   90% of the time, and the charged NVM read lines per op drop at least
   10x against the mirror-off build. *)
let readpath () =
  Benchlib.Report.heading "Read path: payload mirrors on a read-mostly mix (fixed workload)";
  let ops = 50_000 and keys = 1 lsl 10 in
  let fops = float_of_int ops in
  let value = make_value 64 in
  let montage_run mirror_max_bytes () =
    let cfg = { Cfg.default with max_threads = 1; auto_advance = false; mirror_max_bytes } in
    let r = Systems.region ~capacity:(1 lsl 26) ~threads:1 in
    let esys = E.create ~config:cfg r in
    let m = Pstructs.Mhashmap.create ~buckets:(1 lsl 10) esys in
    for i = 0 to keys - 1 do
      ignore (Pstructs.Mhashmap.put m ~tid:0 (key_of i) value)
    done;
    E.advance_epoch esys ~tid:0;
    let base_reads = (Nvm.Region.stats r).Nvm.Region.lines_read in
    let base_m = E.mirror_stats esys in
    let t0 = Unix.gettimeofday () in
    for i = 0 to ops - 1 do
      let k = key_of (i * 7 mod keys) in
      if i mod 20 = 19 then ignore (Pstructs.Mhashmap.put m ~tid:0 k value)
      else ignore (Pstructs.Mhashmap.get m ~tid:0 k);
      if i mod 2048 = 2047 then E.advance_epoch esys ~tid:0
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let reads = (Nvm.Region.stats r).Nvm.Region.lines_read - base_reads in
    let ms = E.mirror_stats esys in
    let hits = ms.E.hits - base_m.E.hits and misses = ms.E.misses - base_m.E.misses in
    E.sync esys ~tid:0;
    E.stop_background esys;
    Systems.note_mirror_stats esys r;
    (fops /. dt, reads, hits, misses)
  in
  let soft_run () =
    let r = Systems.region ~capacity:(1 lsl 26) ~threads:1 in
    let pm = Baselines.Pmem.create r in
    let m = Baselines.Soft_map.create ~buckets:(1 lsl 10) pm in
    for i = 0 to keys - 1 do
      ignore (Baselines.Soft_map.put m ~tid:0 (key_of i) value)
    done;
    let base_reads = (Nvm.Region.stats r).Nvm.Region.lines_read in
    let t0 = Unix.gettimeofday () in
    for i = 0 to ops - 1 do
      let k = key_of (i * 7 mod keys) in
      if i mod 20 = 19 then ignore (Baselines.Soft_map.put m ~tid:0 k value)
      else ignore (Baselines.Soft_map.get m ~tid:0 k)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let reads = (Nvm.Region.stats r).Nvm.Region.lines_read - base_reads in
    (fops /. dt, reads, 0, 0)
  in
  let dram_run () =
    let m = Baselines.Transient_map.create ~buckets:(1 lsl 10) Baselines.Transient_map.Dram in
    for i = 0 to keys - 1 do
      ignore (Baselines.Transient_map.put m ~tid:0 (key_of i) value)
    done;
    let t0 = Unix.gettimeofday () in
    for i = 0 to ops - 1 do
      let k = key_of (i * 7 mod keys) in
      if i mod 20 = 19 then ignore (Baselines.Transient_map.put m ~tid:0 k value)
      else ignore (Baselines.Transient_map.get m ~tid:0 k)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (fops /. dt, -1, 0, 0)
  in
  let safe name f =
    try Some (f ())
    with e ->
      Printf.eprintf "[bench] readpath %s failed: %s\n%!" name (Printexc.to_string e);
      None
  in
  let on = safe "montage mirror=on" (montage_run Cfg.default.mirror_max_bytes) in
  let off = safe "montage mirror=off" (montage_run 0) in
  let soft = safe "soft" soft_run in
  let dram = safe "dram" dram_run in
  let row name = function
    | None -> (name, [ nan; nan; nan ])
    | Some (opsps, reads, hits, misses) ->
        let media = if reads < 0 then nan else float_of_int reads /. fops in
        let rate =
          if hits + misses = 0 then nan
          else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
        in
        (name, [ opsps; media; rate ])
  in
  Benchlib.Report.table
    ~columns:[ "ops/s"; "media-lines/op"; "hit %" ]
    ~rows:
      [
        row "Montage (mirror)" on;
        row "Montage (no mirror)" off;
        row "SOFT" soft;
        row "DRAM (T)" dram;
      ]
    ~unit_label:"read-mostly" ();
  (match on with
  | Some (_, _, hits, misses) ->
      Benchlib.Report.check ~figure:"readpath" ~claim:"mirrors serve >=90% of payload reads from DRAM"
        (hits + misses > 0 && float_of_int hits >= 0.9 *. float_of_int (hits + misses))
  | None -> Benchlib.Report.check ~figure:"readpath" ~claim:"mirror run completed" false);
  match (on, off) with
  | Some (_, reads_on, _, _), Some (_, reads_off, _, _) ->
      Benchlib.Report.check ~figure:"readpath"
        ~claim:"charged media read lines drop >=10x with mirrors on"
        (reads_off >= 10 * max 1 reads_on)
  | _ -> Benchlib.Report.check ~figure:"readpath" ~claim:"both Montage runs completed" false

(* ---- Cluster: consistent-hashing router over shard processes ---- *)

(* The cluster subsystem end to end, over real processes: N shard
   children (fresh execs of the montage CLI, each an unmodified
   netserve over its own region and epoch clock) behind the in-process
   consistent-hashing router.  Two panels: closed-loop throughput at
   the router vs shard count — cross-process scaling of the whole
   stack — and an availability timeline around a shard kill: one probe
   per shard per tick through the router, the victim SIGTERMed mid-run
   and supervised back.  Survivors must answer every tick, and the
   victim's keyspace must serve its preloaded value again — i.e. the
   restarted process recovered the heap image — after the rejoin.
   Skipped when the CLI binary is not next to this bench executable
   (e.g. a partial build). *)

let cluster_exe () =
  let root = Filename.dirname (Filename.dirname Sys.executable_name) in
  let exe = Filename.concat (Filename.concat root "bin") "montage_cli.exe" in
  if Sys.file_exists exe then Some exe else None

(* 2-worker montage shards behind a fast-probing router *)
let cluster_shard = { Cluster.Shard.default_config with workers = 2; drain_timeout_s = 0.5 }

let cluster_router =
  { Cluster.Router.default_config with port = 0; tick_s = 0.01; probe_interval_s = 0.05 }

let cluster_throughput_point ~exe ~shards =
  Cluster.Local.with_ ~exe ~router:cluster_router ~shards cluster_shard (fun c ->
      if not (Cluster.Local.wait_up c) then None
      else begin
        let lg =
          {
            Netserve.Loadgen.default_config with
            port = Cluster.Router.port (Cluster.Local.router c);
            conns = max 8 (4 * shards);
            domains = 2;
            duration_s = Env.duration_s;
            pipeline = 8;
            value_size = 64;
            keyspace = 2000;
            get_frac = 0.9;
            key_prefix = "cl";
          }
        in
        Netserve.Loadgen.preload ~config:lg ();
        Some (Netserve.Loadgen.run ~config:lg ())
      end)

type cluster_avail = {
  ca_timeline : bool array array;  (* [shard].(tick): probe served the value *)
  ca_stats : Cluster.Router.stats;
  ca_restarted : bool;
  ca_victim : int;
}

let cluster_availability ~exe =
  let shards = 3 and victim = 1 in
  Cluster.Local.with_ ~exe ~heap:Temp_dir ~router:cluster_router ~shards cluster_shard (fun c ->
      if not (Cluster.Local.wait_up c) then None
      else begin
        (* one probe key per shard *)
        let keys =
          Array.init shards (fun sid ->
              List.hd (Cluster.Ring.keys_on (Cluster.Local.ring c) sid ~prefix:"avail-" 1))
        in
        let value_reply k =
          let v = "durable-" ^ k in
          Printf.sprintf "VALUE %s 0 %d\r\n%s\r\nEND\r\n" k (String.length v) v
        in
        let fd = Netserve.Client.connect (Cluster.Router.port (Cluster.Local.router c)) in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Array.iter
              (fun k ->
                let v = "durable-" ^ k in
                Netserve.Client.send fd
                  (Printf.sprintf "set %s 0 0 %d\r\n%s\r\n" k (String.length v) v);
                ignore (Netserve.Client.recv_unit fd))
              keys;
            (* a get reply ends with END; a down shard's keyspace
               answers a single SERVER_ERROR line *)
            let probe sid =
              Netserve.Client.send fd (Printf.sprintf "get %s\r\n" keys.(sid));
              Netserve.Client.recv_unit fd = value_reply keys.(sid)
            in
            let ticks = Array.init shards (fun _ -> ref []) in
            (* probe every shard, reap and restart children, pace *)
            let step () =
              for sid = 0 to shards - 1 do
                ticks.(sid) := probe sid :: !(ticks.(sid))
              done;
              Cluster.Local.tick c;
              try
                Unix.sleepf 0.03
                [@montage.allow
                  "R5: bench driver pacing availability probes over the \
                   kill window; client tooling, not server code"]
              with Unix.Unix_error (Unix.EINTR, _, _) -> ()
            in
            for _ = 1 to 10 do
              step ()
            done;
            Cluster.Local.signal c victim;
            (* the victim keeps serving through its shutdown drain,
               so first probe until it actually goes dark, then
               until the restarted process serves its recovered
               value again; both waits bounded *)
            let last_victim () =
              match !(ticks.(victim)) with ok :: _ -> ok | [] -> true
            in
            let deadline = Netserve.Poller.mono_s () +. 30.0 in
            while last_victim () && Netserve.Poller.mono_s () < deadline do
              step ()
            done;
            while (not (last_victim ())) && Netserve.Poller.mono_s () < deadline do
              step ()
            done;
            for _ = 1 to 5 do
              step ()
            done;
            Some
              {
                ca_timeline = Array.map (fun l -> Array.of_list (List.rev !l)) ticks;
                ca_stats = Cluster.Router.stats (Cluster.Local.router c);
                ca_restarted = Cluster.Local.restarts c victim >= 1;
                ca_victim = victim;
              })
      end)

(* Resample a tick row to at most 60 columns: '#' = every probe in the
   bucket served, '.' = at least one answered shard-down. *)
let cluster_render_row row =
  let n = Array.length row in
  if n = 0 then ""
  else begin
    let cols = min n 60 in
    String.init cols (fun c ->
        let lo = c * n / cols in
        let hi = max (lo + 1) ((c + 1) * n / cols) in
        let all_up = ref true in
        for i = lo to hi - 1 do
          if not row.(i) then all_up := false
        done;
        if !all_up then '#' else '.')
  end

let cluster () =
  Benchlib.Report.heading
    "Cluster: consistent-hashing router over independent shard processes";
  match cluster_exe () with
  | None ->
      Printf.printf "  (montage_cli.exe not found next to the bench binary; skipping)\n%!"
  | Some exe -> (
      let counts = [ 1; 2; 4 ] in
      let safe n =
        try cluster_throughput_point ~exe ~shards:n
        with e ->
          Printf.eprintf "[bench] cluster %d shard(s) failed: %s\n%!" n (Printexc.to_string e);
          None
      in
      let pts = List.map (fun n -> (n, safe n)) counts in
      let tput = function None -> nan | Some r -> r.Netserve.Loadgen.ops_per_sec in
      Benchlib.Report.table
        ~columns:(List.map (fun n -> Printf.sprintf "%dsh" n) counts)
        ~rows:[ ("Montage cluster", List.map (fun (_, p) -> tput p) pts) ]
        ~unit_label:"ops/s at the router, closed loop (90% get, 64 B)" ();
      Benchlib.Report.check ~figure:"cluster"
        ~claim:"the router sustains error-free closed-loop throughput at every shard count"
        (List.for_all
           (fun (_, p) ->
             match p with
             | Some r -> r.Netserve.Loadgen.ops > 0 && r.Netserve.Loadgen.errors = 0
             | None -> false)
           pts);
      match
        (try cluster_availability ~exe
         with e ->
           Printf.eprintf "[bench] cluster availability failed: %s\n%!" (Printexc.to_string e);
           None)
      with
      | None ->
          Benchlib.Report.check ~figure:"cluster" ~claim:"availability scenario completed" false
      | Some a ->
          Printf.printf "  availability around a SIGTERM of shard %d ('#' up, '.' down):\n" a.ca_victim;
          Array.iteri
            (fun sid row ->
              Printf.printf "    shard %d %s %s\n" sid
                (if sid = a.ca_victim then "[victim]" else "        ")
                (cluster_render_row row))
            a.ca_timeline;
          Printf.printf "    router: %d request(s), %d shard-down error(s), %d down(s), %d rejoin(s)\n%!"
            a.ca_stats.Cluster.Router.requests a.ca_stats.Cluster.Router.shard_down_errors
            a.ca_stats.Cluster.Router.downs a.ca_stats.Cluster.Router.rejoins;
          let survivors_clean = ref true in
          Array.iteri
            (fun sid row ->
              if sid <> a.ca_victim then
                Array.iter (fun ok -> if not ok then survivors_clean := false) row)
            a.ca_timeline;
          Benchlib.Report.check ~figure:"cluster"
            ~claim:"survivor shards answer every probe through the kill window" !survivors_clean;
          let vrow = a.ca_timeline.(a.ca_victim) in
          let went_down = Array.exists not vrow in
          let back_up = Array.length vrow > 0 && vrow.(Array.length vrow - 1) in
          Benchlib.Report.check ~figure:"cluster"
            ~claim:"the victim goes down, is restarted, and serves its recovered value"
            (went_down && back_up && a.ca_restarted);
          Benchlib.Report.check ~figure:"cluster"
            ~claim:"the router observed the down and the rejoin"
            (a.ca_stats.Cluster.Router.downs >= 1
            && a.ca_stats.Cluster.Router.rejoins >= 4))
