(* Regeneration of every figure and table in the paper's evaluation
   (§5.2 and §6).  Each function prints the paper's series for this
   machine's scale and records shape verdicts for the ordering claims
   the paper makes.  Every rows × columns grid runs through
   [Report.sweep], so a crashing point is a missing cell and a MISS,
   not the end of the suite.  See EXPERIMENTS.md for the
   paper-vs-measured discussion. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config
module R = Benchlib.Report

let key_of i = Printf.sprintf "%032d" i

let make_value n =
  (* distinct-ish contents, the size is what matters *)
  String.init n (fun i -> Char.chr (65 + ((i * 7) mod 26)))

let ops_per_sec ~threads body =
  (Benchlib.Runner.throughput ~threads ~duration_s:Env.duration_s body).Benchlib.Runner.ops_per_sec

let thread_columns = List.map (fun t -> (string_of_int t, t)) Env.threads

(* The usual figure table: one ops/s cell per point. *)
let ops_table columns pts =
  R.table ~columns:(List.map fst columns) ~rows:(R.cells Fun.id pts) ~unit_label:"ops/s" ()

(* Rows of [n] metrics [f] read off each row's last point (its only
   one, in a one-column sweep); [nan]s where that point failed. *)
let last_point_rows n f pts =
  List.map
    (fun (name, ps) ->
      (name, match List.rev ps with Some p :: _ -> f p | _ -> List.init n (fun _ -> nan)))
    pts

(* ---- the shared workload points ---- *)

let preload_map (m : Systems.map_inst) ~preload ~value =
  for i = 0 to preload - 1 do
    m.mput ~tid:0 (key_of i) value
  done

(* The map mix: [preload] keys in, then a timed get:insert:remove mix
   over twice as many keys; ops/s. *)
let map_mix ?(preload = Env.preload) ~threads ~get_frac ~ins_frac ~value (sys : Systems.map_inst) =
  preload_map sys ~preload ~value;
  let keyspace = 2 * preload in
  let v =
    ops_per_sec ~threads (fun ~tid ~rng ->
        let x = Util.Xoshiro.float rng in
        let key = key_of (Util.Xoshiro.int rng keyspace) in
        if x < get_frac then ignore (sys.mget ~tid key)
        else if x < get_frac +. ins_frac then sys.mput ~tid key value
        else sys.mrem ~tid key)
  in
  sys.mstop ();
  v

(* The queue mix: 1000 items in, then a timed 1:1 insert:remove mix;
   ops/s. *)
let queue_mix ~threads ~value (sys : Systems.queue_inst) =
  for i = 0 to 999 do
    sys.qenq ~tid:0 (key_of i)
  done;
  let v =
    ops_per_sec ~threads (fun ~tid ~rng ->
        if Util.Xoshiro.bool rng then sys.qenq ~tid value else ignore (sys.qdeq ~tid))
  in
  sys.qstop ();
  v

(* ---- Figures 4 & 5: design-space exploration ---- *)

let epoch_lengths_ns = [ 100_000; 1_000_000; 10_000_000; 100_000_000 ]

let epoch_label ns =
  if ns >= 1_000_000_000 then Printf.sprintf "%ds" (ns / 1_000_000_000)
  else if ns >= 1_000_000 then Printf.sprintf "%dms" (ns / 1_000_000)
  else Printf.sprintf "%dus" (ns / 1_000)

(* The buffer/free combinations run at every epoch length; the
   references only at the default one. *)
let design_rows : (string * (int -> (Cfg.t -> Cfg.t) option)) list =
  List.map
    (fun (label, m) -> (label, fun ns -> Some (fun c -> { (m c) with Cfg.epoch_length_ns = ns })))
    [
      ("Buf=2", fun c -> { c with Cfg.buffer_size = 2 });
      ("Buf=16", fun c -> { c with Cfg.buffer_size = 16 });
      ("Buf=64", fun c -> { c with Cfg.buffer_size = 64 });
      ("Buf=256", fun c -> { c with Cfg.buffer_size = 256 });
      ("Buf=64+LocalFree", fun c -> { c with Cfg.buffer_size = 64; reclaim = Cfg.Workers });
    ]
  @ List.map
      (fun (label, m) -> (label, fun ns -> if ns = List.hd epoch_lengths_ns then Some m else None))
      [
        ("DirWB", fun c -> { c with Cfg.writeback = Cfg.Direct });
        ("Montage(T)", Systems.transient);
        ("Buf=64+DirFree", fun c -> { c with Cfg.buffer_size = 64; direct_free = true });
      ]

(* One design-space table; [point cfg_mod] measures one configuration. *)
let design_sweep point =
  let columns = List.map (fun ns -> (epoch_label ns, ns)) epoch_lengths_ns in
  let pts =
    R.sweep ~rows:design_rows ~columns (fun cfg_at ns ->
        match cfg_at ns with Some cfg_mod -> point cfg_mod | None -> nan)
  in
  ops_table columns pts;
  pts

let fig4 () =
  R.heading "Figure 4: design exploration — hashmap, 0:1:1 g:i:r (1 thread)";
  (* single worker: multi-domain points on a one-core host measure the
     scheduler, and long epochs need headroom for delayed reclamation *)
  let value = make_value Env.value_size in
  let capacity = 8 * Systems.map_capacity ~preload:Env.preload ~value_size:Env.value_size in
  let pts =
    design_sweep (fun cfg_mod ->
        map_mix ~threads:1 ~get_frac:0.0 ~ins_frac:0.5 ~value
          (Systems.montage_map ~cfg_mod ~capacity ~threads:1 ~buckets:(1 lsl 15) ()))
  in
  R.check ~claim:"buffered write-back (Buf=64, 10ms) beats immediate write-back (DirWB)" (fun () ->
      R.at pts "Buf=64" 2 > R.at pts "DirWB" 0)

let fig5 () =
  R.heading "Figure 5: design exploration — 1-thread queue, 1:1 enq:deq";
  let value = make_value Env.value_size in
  let capacity = Systems.queue_capacity ~value_size:Env.value_size in
  let pts =
    design_sweep (fun cfg_mod ->
        queue_mix ~threads:1 ~value (Systems.montage_queue ~cfg_mod ~capacity ~threads:1 ()))
  in
  R.check ~claim:"buffering helps the single-threaded queue too" (fun () ->
      R.at pts "Buf=64" 2 > R.at pts "DirWB" 0)

(* ---- Figure 6: queue throughput vs threads ---- *)

let fig6 () =
  R.heading "Figure 6: concurrent queues, 1:1 enqueue:dequeue";
  let value = make_value Env.value_size in
  let pts =
    R.sweep
      ~rows:(Systems.all_queue_systems ~threads:Env.max_threads ~value_size:Env.value_size)
      ~columns:thread_columns
      (fun make threads -> queue_mix ~threads ~value (make ()))
  in
  ops_table thread_columns pts;
  (* claims are evaluated at 1 thread: with a single physical core,
     multi-domain points measure the OS scheduler, not the systems *)
  let at_one name = R.at pts name 0 in
  R.check ~claim:"Montage at least matches Friedman's special-purpose queue (paper's 6x opens at scale)"
    (fun () -> at_one "Montage" > 0.85 *. at_one "Friedman");
  R.check ~claim:"Montage >> Pronto-Sync and Mnemosyne queues" (fun () ->
      at_one "Montage" > 1.2 *. at_one "Pronto-Sync" && at_one "Montage" > 2.0 *. at_one "Mnemosyne");
  R.check ~claim:"Montage within ~4x of DRAM (T)" (fun () ->
      at_one "Montage" > at_one "DRAM (T)" /. 4.0)

(* ---- Figure 7: hashmap throughput vs threads ---- *)

let fig7 ~sub ~get_frac ~ins_frac ~claim_factors () =
  R.heading
    (Printf.sprintf "Figure 7%s: concurrent hashmaps (get=%.2f insert=%.2f remove=%.2f)" sub get_frac
       ins_frac
       (1.0 -. get_frac -. ins_frac));
  let value = make_value Env.value_size in
  let pts =
    R.sweep
      ~rows:(Systems.all_map_systems ~threads:Env.max_threads ~preload:Env.preload ~value_size:Env.value_size)
      ~columns:thread_columns
      (fun make threads -> map_mix ~threads ~get_frac ~ins_frac ~value (make ()))
  in
  ops_table thread_columns pts;
  List.iter
    (fun (a, b, factor) ->
      R.check ~claim:(Printf.sprintf "%s > %.1fx %s" a factor b) (fun () ->
          R.at pts a 0 > factor *. R.at pts b 0))
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

let payload_columns = List.map (fun s -> (string_of_int s, s)) [ 16; 64; 256; 1024; 4096 ]

(* Rows named after [systems]; each point rebuilds its system sized for
   that column's payload. *)
let payload_sweep systems point =
  let names = List.map (fun (name, _) -> (name, name)) (systems Env.value_size) in
  let pts =
    R.sweep ~rows:names ~columns:payload_columns (fun name size ->
        point (List.assoc name (systems size) ()) (make_value size))
  in
  ops_table payload_columns pts;
  pts

let fig8a () =
  R.heading "Figure 8a: single-threaded queues vs payload size";
  let pts =
    payload_sweep
      (fun value_size -> Systems.all_queue_systems ~threads:1 ~value_size)
      (fun sys value -> queue_mix ~threads:1 ~value sys)
  in
  R.check ~claim:"Montage beats strict persistent queues at every size" (fun () ->
      List.for_all (fun i -> R.at pts "Montage" i > R.at pts "Pronto-Sync" i) [ 0; 2; 4 ])

let fig8b () =
  R.heading "Figure 8b: single-threaded hashmap, 2:1:1 g:i:r, vs payload size";
  let pts =
    payload_sweep
      (fun value_size -> Systems.all_map_systems ~threads:1 ~preload:Env.preload ~value_size)
      (fun sys value -> map_mix ~threads:1 ~get_frac:0.5 ~ins_frac:0.25 ~value sys)
  in
  let at = R.at pts in
  R.check ~claim:"Montage leads general-purpose systems across sizes" (fun () ->
      List.for_all
        (fun i -> at "Montage" i > at "Pronto-Sync" i && at "Montage" i > at "Mnemosyne" i)
        [ 0; 2; 4 ])

(* ---- Figure 9: sync frequency ---- *)

let fig9 () =
  R.heading "Figure 9: hashmap with a sync every k operations (0:1:1)";
  let value = make_value Env.value_size in
  let keyspace = 2 * Env.preload in
  let threads = Env.max_threads in
  let capacity = Systems.map_capacity ~preload:Env.preload ~value_size:Env.value_size in
  let synced cfg_mod k =
    let sys = Systems.montage_map ~cfg_mod ~capacity ~threads ~buckets:(1 lsl 15) () in
    preload_map sys ~preload:Env.preload ~value;
    let counters = Array.make (threads + 1) 0 in
    let v =
      ops_per_sec ~threads (fun ~tid ~rng ->
          let x = Util.Xoshiro.float rng in
          let key = key_of (Util.Xoshiro.int rng keyspace) in
          if x < 0.5 then sys.mput ~tid key value else sys.mrem ~tid key;
          counters.(tid) <- counters.(tid) + 1;
          if counters.(tid) mod k = 0 then sys.msync ~tid)
    in
    sys.mstop ();
    v
  in
  (* flat references: measured once, repeated across the sync columns *)
  let reference make =
    let v = lazy (map_mix ~threads ~get_frac:0.0 ~ins_frac:0.5 ~value (make ())) in
    fun _ -> Lazy.force v
  in
  let rows =
    [
      ("Montage (cb)", synced Fun.id);
      ("Montage (dw)", synced (fun c -> { c with Cfg.drain_on_end_op = true }));
      ("NVM (T)", reference (fun () -> Systems.nvm_t_map ~capacity ~threads ~buckets:(1 lsl 15) ()));
      ("Montage (T)", reference (fun () -> Systems.montage_t_map ~capacity ~threads ~buckets:(1 lsl 15) ()));
    ]
  in
  let columns = List.map (fun k -> ("1/" ^ string_of_int k, k)) [ 1; 10; 100; 1000; 10000 ] in
  let pts = R.sweep ~rows ~columns (fun point k -> point k) in
  ops_table columns pts;
  R.check ~claim:"throughput recovers as syncs become rarer" (fun () ->
      R.at pts "Montage (cb)" 4 > R.at pts "Montage (cb)" 0)

(* ---- Figure 10: memcached-style store under YCSB-A ---- *)

let fig10 () =
  R.heading "Figure 10: memcached-like store, YCSB-A (50r/50u zipfian)";
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
  let pts =
    R.sweep ~rows:backends ~columns:thread_columns (fun make threads ->
        let sys : Systems.map_inst = make () in
        let store = Systems.store_of sys in
        let wl = Kvstore.Ycsb.create spec in
        let load_rng = Util.Xoshiro.create 7 in
        Kvstore.Ycsb.load wl ~set:(fun k v -> Kvstore.Store.set store ~tid:0 k v) load_rng;
        let v =
          ops_per_sec ~threads (fun ~tid ~rng ->
              Kvstore.Ycsb.execute wl ~tid store (Kvstore.Ycsb.next wl rng))
        in
        sys.mstop ();
        v)
  in
  ops_table thread_columns pts;
  R.check ~claim:"persistent memcached within a small factor of DRAM (T)" (fun () ->
      R.at pts "Montage" 0 > R.at pts "DRAM (T)" 0 /. 5.0)

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
  R.heading "Snapshot-while-writing: continuous full scans vs concurrent overwrite load";
  let value = make_value Env.value_size in
  let keyspace = Env.preload in
  let capacity = 8 * Systems.map_capacity ~preload:keyspace ~value_size:Env.value_size in
  let systems =
    [
      ("MHAMT", fun writers -> Systems.mhamt_scan ~capacity ~threads:(writers + 2) ());
      ( "Mhashmap",
        fun writers -> Systems.mhashmap_scan ~capacity ~threads:(writers + 2) ~buckets:(1 lsl 15) () );
    ]
  in
  let pts =
    R.sweep ~rows:systems ~columns:thread_columns (fun make writers ->
        let sys : Systems.scan_inst = make writers in
        for i = 0 to keyspace - 1 do
          sys.zput ~tid:0 (key_of i) value
        done;
        let scans = Atomic.make 0 and writes = Atomic.make 0 in
        let bad_scans = Atomic.make 0 in
        let r =
          Benchlib.Runner.throughput ~threads:(writers + 1) ~duration_s:Env.duration_s
            (fun ~tid ~rng ->
              if tid = writers then begin
                (* scanner domain: one full consistent scan per op *)
                let n = sys.zscan ~tid in
                if n <> keyspace then Atomic.incr bad_scans;
                Atomic.incr scans
              end
              else begin
                let i = Util.Xoshiro.int rng keyspace in
                sys.zput ~tid (key_of i) value;
                Atomic.incr writes
              end)
        in
        sys.zstop ();
        let per_s c = float_of_int (Atomic.get c) /. r.Benchlib.Runner.seconds in
        (per_s scans, per_s writes, Atomic.get bad_scans, Atomic.get scans))
  in
  let columns = List.map fst thread_columns in
  R.table ~columns ~rows:(R.cells (fun (s, _, _, _) -> s) pts) ~unit_label:"scans/s" ();
  R.table ~columns ~rows:(R.cells (fun (_, w, _, _) -> w) pts) ~unit_label:"writes/s" ();
  let mhamt () = List.mapi (fun i _ -> R.at pts "MHAMT" i) columns in
  R.check ~claim:"every MHAMT scan under write load saw the full consistent keyspace" (fun () ->
      let total f = List.fold_left (fun acc p -> acc + f p) 0 (mhamt ()) in
      total (fun (_, _, bad, _) -> bad) = 0 && total (fun (_, _, _, n) -> n) > 0);
  R.check ~claim:"scans and writes both make progress at the highest writer count" (fun () ->
      let s, w, _, _ = R.at pts "MHAMT" (List.length columns - 1) in
      s > 0.0 && w > 0.0)

(* ---- Figure 11: graph microbenchmark ---- *)

let graph_attrs = make_value 64 (* vertex/edge attributes *)
let graph_region = max (1 lsl 27) (Env.graph_capacity * Env.graph_degree * 256)

let montage_graph ?cfg_mod ~threads () =
  Systems.montage_graph ~vertices:Env.graph_capacity ~attrs:graph_attrs
    (Systems.montage ?cfg_mod ~capacity:graph_region ~threads ())

let dram_graph () = Systems.dram_graph ~vertices:Env.graph_capacity ~attrs:graph_attrs

let preload_graph (g : Systems.graph_inst) ~rng =
  let cap = Env.graph_capacity in
  for i = 0 to (cap / 2) - 1 do
    ignore (g.g_add_vertex ~tid:0 i)
  done;
  for i = 0 to (cap / 2) - 1 do
    for _ = 1 to Env.graph_degree do
      let peer = Util.Xoshiro.int rng (cap / 2) in
      if peer <> i then ignore (g.g_add_edge ~tid:0 i peer)
    done
  done

let fig11 () =
  R.heading "Figure 11: graph microbenchmark (edge ops : vertex ops)";
  let systems =
    [
      ("DRAM (T)", fun _threads -> dram_graph ());
      ("Montage (T)", fun threads -> montage_graph ~cfg_mod:Systems.transient ~threads ());
      ("Montage", fun threads -> montage_graph ~threads ());
    ]
  in
  let cap = Env.graph_capacity in
  List.iter
    (fun (rlabel, edge_frac) ->
      R.subheading ("edge:vertex = " ^ rlabel);
      let pts =
        R.sweep ~rows:systems ~columns:thread_columns (fun make threads ->
            let g : Systems.graph_inst = make threads in
            preload_graph g ~rng:(Util.Xoshiro.create 11);
            let v =
              ops_per_sec ~threads (fun ~tid ~rng ->
                  let x = Util.Xoshiro.float rng in
                  if x < edge_frac then begin
                    let u = Util.Xoshiro.int rng cap and v = Util.Xoshiro.int rng cap in
                    if Util.Xoshiro.bool rng then ignore (g.g_add_edge ~tid u v)
                    else ignore (g.g_remove_edge ~tid u v)
                  end
                  else begin
                    let i = Util.Xoshiro.int rng cap in
                    if Util.Xoshiro.bool rng then begin
                      if g.g_add_vertex ~tid i then
                        for _ = 1 to Env.graph_degree do
                          ignore (g.g_add_edge ~tid i (Util.Xoshiro.int rng cap))
                        done
                    end
                    else ignore (g.g_remove_vertex ~tid i)
                  end)
            in
            g.g_stop ();
            v)
      in
      ops_table thread_columns pts;
      R.check
        ~claim:(Printf.sprintf "persistent graph within a small factor of transient (%s mix)" rlabel)
        (fun () -> R.at pts "Montage" 0 > R.at pts "DRAM (T)" 0 /. 4.0))
    [ ("4:1", 0.8); ("499:1", 0.998) ]

(* ---- Figure 12: graph recovery vs parallel construction ---- *)

let fig12 () =
  R.heading "Figure 12: power-law graph — parallel construction vs Montage recovery";
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
  (* seconds to build [g] on [threads] domains: each adds one slice of
     the vertices, then one slice of the edge list *)
  let construct (g : Systems.graph_inst) threads =
    let slices n add =
      Array.init threads (fun k ->
          Domain.spawn (fun () ->
              for i = k * n / threads to ((k + 1) * n / threads) - 1 do
                add ~tid:k i
              done))
      |> Array.iter Domain.join
    in
    snd
      (Benchlib.Runner.time (fun () ->
           slices nv (fun ~tid i -> ignore (g.g_add_vertex ~tid i));
           slices ne (fun ~tid i ->
               let u, v = edges.(i) in
               if u <> v then ignore (g.g_add_edge ~tid u v))))
  in
  (* construction on a Montage graph with persistence elided = NVM (T) *)
  let nvm_t threads =
    let g = montage_graph ~cfg_mod:Systems.transient ~threads () in
    let seconds = construct g threads in
    g.g_stop ();
    seconds
  in
  (* recovery time: build once with persistence, sync, crash, recover *)
  let recover threads =
    let ((esys, r) as m) = Systems.montage ~capacity:graph_region ~threads:1 () in
    let g = Systems.montage_graph ~vertices:Env.graph_capacity ~attrs:graph_attrs m in
    ignore (construct g 1);
    E.sync esys ~tid:0;
    g.g_stop ();
    Nvm.Region.crash r;
    snd
      (Benchlib.Runner.time (fun () ->
           (* small worker count: recovery itself parallelizes via
              Mgraph.recover's domains, not esys worker slots *)
           let esys2, payloads =
             E.recover ~config:{ Cfg.testing with max_threads = 3 } ~threads:(min threads 4) r
           in
           ignore (Pstructs.Mgraph.recover ~capacity:Env.graph_capacity ~threads esys2 payloads)))
  in
  let rows =
    [
      ("DRAM (T) construct", fun threads -> construct (dram_graph ()) threads);
      ("NVM (T) construct", nvm_t);
      ("Montage recover", recover);
    ]
  in
  let pts = R.sweep ~rows ~columns:thread_columns (fun point threads -> point threads) in
  R.table ~fmt:(Printf.sprintf "%.3f") ~columns:(List.map fst thread_columns) ~rows:(R.cells Fun.id pts)
    ~unit_label:"seconds" ();
  R.check ~claim:"recovery is competitive with parallel reconstruction" (fun () ->
      R.at pts "Montage recover" 0 < 3.0 *. R.at pts "NVM (T) construct" 0)

(* ---- ablations: design choices DESIGN.md calls out ---- *)

(* Montage supports both lock-based and nonblocking structures (§3.3):
   measure what the epoch-verified DCSS machinery costs relative to a
   plain lock at the same buffered-durability guarantee, and what the
   ordered (skip list) index costs relative to hashing. *)
let ablations () =
  R.heading "Ablation: lock-based vs nonblocking Montage structures";
  let value = make_value 256 in
  let capacity = 1 lsl 27 in
  let queue ops threads = Systems.montage_queue_of ~capacity ~threads ops in
  let rows =
    [
      ( "stack: single lock",
        queue (fun esys ->
            let s = Pstructs.Mstack.create esys in
            Pstructs.Mstack.(push s, pop s)) );
      ( "stack: nonblocking DCSS",
        queue (fun esys ->
            let s = Pstructs.Nb_stack.create esys in
            Pstructs.Nb_stack.(push s, pop s)) );
      ("queue: single lock", fun threads -> Systems.montage_queue ~capacity ~threads ());
      ( "queue: nonblocking DCSS",
        queue (fun esys ->
            let q = Pstructs.Nb_queue.create esys in
            Pstructs.Nb_queue.(enqueue q, dequeue q)) );
    ]
  in
  ops_table thread_columns
    (R.sweep ~rows ~columns:thread_columns (fun make threads -> queue_mix ~threads ~value (make threads)));
  R.heading "Ablation: hash index vs ordered (skip list) index";
  let rows =
    [
      ("hashmap", fun threads -> Systems.montage_map ~capacity ~threads ~buckets:(1 lsl 14) ());
      ( "skiplist (ordered)",
        fun threads ->
          Systems.montage_map_of ~capacity ~threads (fun esys ->
              let m = Pstructs.Mskiplist.create esys in
              Pstructs.Mskiplist.(get m, set m, remove m)) );
    ]
  in
  ops_table thread_columns
    (R.sweep ~rows ~columns:thread_columns (fun make threads ->
         map_mix ~preload:5000 ~threads ~get_frac:0.5 ~ins_frac:0.25 ~value (make threads)))

(* ---- §6.4 recovery-time table ---- *)

(* One recovery: the reload of the crash image into a region, the
   recovery's time (epoch scan + index rebuild, which pays the first
   touch of every line it reads), then the first Store-level get after
   it, and the charged NVM lines the index rebuild read per record.
   [checked] is set on the 1-thread point only: whether an untimed
   recovery of the same image under the enforcing checker gave the
   same map. *)
type recovery_point = {
  reload_s : float;
  seconds : float;
  first_get_us : float;
  lines_per_record : float;
  checked : bool option;
}

let recovery_table () =
  R.heading "§6.4: hashmap recovery time vs data-set size";
  let value_size = 1024 in
  let value = make_value value_size in
  (* the image is built, and checked once per size, under the enforcing
     checker; the timed points run as recover_cold does, with none *)
  let checked_config = { Cfg.testing with max_threads = 6 } in
  let config = { checked_config with pcheck = Cfg.Pcheck_off } in
  let buckets = 1 lsl 15 in
  let items mb = mb * 1024 * 1024 / value_size in
  (* YCSB's 23-byte keys: each key fits its payload's first NVM line *)
  let key = Kvstore.Ycsb.key_of_record in
  (* one crash image per size, kept only while that size's thread
     counts recover it; each (size, threads) point recovers a fresh
     region built from it, so every point scans and sweeps the same
     unswept heap *)
  let image = ref None in
  let crash_image mb =
    match !image with
    | Some (m, fresh) when m = mb -> fresh
    | _ ->
        image := None;
        let esys, r =
          Systems.montage ~cfg_mod:(fun _ -> checked_config)
            ~capacity:(Systems.map_capacity ~preload:(items mb) ~value_size)
            ~threads:4 ()
        in
        let store =
          Kvstore.Store.create (Kvstore.Store.of_mhashmap (Pstructs.Mhashmap.create ~buckets esys))
        in
        for i = 0 to items mb - 1 do
          Kvstore.Store.set store ~tid:0 (key i) value
        done;
        E.sync esys ~tid:0;
        Nvm.Region.crash r;
        let img = Nvm.Region.media_image r
        and latency = Nvm.Region.latency r
        and max_threads = Nvm.Region.max_threads r in
        let fresh () = Nvm.Region.of_image ~latency ~max_threads img in
        image := Some (mb, fresh);
        fresh
  in
  (* untimed: [E.recover] attaches the enforcing checker, so a
     persistency violation in the scan raises; the rebuilt map must
     hold what the timed one holds on 64 evenly spaced keys *)
  let checked_agrees mb timed =
    let esys, payloads = E.recover ~config:checked_config (crash_image mb ()) in
    let map = Pstructs.Mhashmap.recover ~buckets esys payloads in
    Pstructs.Mhashmap.size map = Pstructs.Mhashmap.size timed
    && List.for_all
         (fun j ->
           let k = key (j * items mb / 64) in
           let v = Pstructs.Mhashmap.get timed ~tid:0 k in
           v <> None && Pstructs.Mhashmap.get map ~tid:0 k = v)
         (List.init 64 Fun.id)
  in
  let rows = List.map (fun mb -> (Printf.sprintf "%d MB (%d items)" mb (items mb), mb)) Env.recovery_sizes_mb in
  let columns = List.map (fun t -> (Printf.sprintf "%dthr" t, t)) [ 1; min 4 Env.max_threads ] in
  let pts =
    R.sweep ~rows ~columns (fun mb threads ->
        let r, reload_s = Benchlib.Runner.time (crash_image mb) in
        let lines_read () = (Nvm.Region.stats r).Nvm.Region.lines_read in
        let (map, lines), seconds =
          Benchlib.Runner.time (fun () ->
              let esys2, payloads = E.recover ~config ~threads r in
              let before = lines_read () in
              let map = Pstructs.Mhashmap.recover ~buckets ~threads esys2 payloads in
              (map, lines_read () - before))
        in
        let store = Kvstore.Store.create (Kvstore.Store.of_mhashmap map) in
        let got, first_get =
          Benchlib.Runner.time (fun () -> Kvstore.Store.get store ~tid:0 (key (items mb / 2)))
        in
        if got <> Some value then failwith "first get after recovery lost its value";
        {
          reload_s;
          seconds;
          first_get_us = first_get *. 1e6;
          lines_per_record = float_of_int lines /. float_of_int (items mb);
          checked = (if threads = 1 then Some (checked_agrees mb map) else None);
        })
  in
  (* a row: the recovery time per thread count, then the reload, the
     first get and the rebuild's lines per record of the sequential
     (1thr) recovery *)
  let cell f = Option.fold ~none:nan ~some:f in
  let row_cells ps =
    let seq = List.hd ps in
    List.map (cell (fun p -> p.seconds)) ps
    @ [ cell (fun p -> p.reload_s) seq; cell (fun p -> p.first_get_us) seq; cell (fun p -> p.lines_per_record) seq ]
  in
  R.table ~fmt:(Printf.sprintf "%.3f")
    ~columns:(List.map fst columns @ [ "reload"; "1st get us"; "lines/rec" ])
    ~rows:(List.map (fun (name, ps) -> (name, row_cells ps)) pts)
    ~unit_label:"seconds" ();
  (* decided at the largest size: at the smallest, domain spawn and
     join outweigh the recovery itself *)
  R.check ~claim:"parallel recovery within 2.5x of sequential (1 core: no speedup possible)" (fun () ->
      let largest = fst (List.hd (List.rev rows)) in
      (R.at pts largest 1).seconds <= (R.at pts largest 0).seconds *. 2.5);
  R.check ~claim:"index rebuild charges one line per record" (fun () ->
      List.for_all
        (fun (row, _) ->
          List.for_all (fun i -> (R.at pts row i).lines_per_record = 1.0) [ 0; 1 ])
        rows);
  R.check ~claim:"recovery under the enforcing checker agrees with the timed recovery" (fun () ->
      List.for_all (fun (row, _) -> (R.at pts row 0).checked = Some true) rows)

(* ---- write-back coalescing accounting ---- *)

(* Fixed-op-count, single-worker, manually ticked runs, measured by
   exact write-back, fence and coalescer line counts rather than a
   timed race.  The hashmap side leans on bursts of same-key rewrites
   (same-epoch in-place pset updates keep dirtying the same payload
   lines); the queue side on the enqueue-persist / dequeue-scrub
   overlap of a 1:1 mix.  Both must dedup at least 2x at the
   coalescer. *)
let coalesce () =
  R.heading "Write-back coalescing: lines and fences per op (fixed workload)";
  let ops = 20_000 in
  let fops = float_of_int ops in
  let value = make_value 64 in
  (* [make_op esys] builds the structure and returns its i-th op *)
  let run make_op () =
    let esys, r =
      Systems.montage
        ~cfg_mod:(fun c -> { c with max_threads = 1; auto_advance = false })
        ~capacity:(1 lsl 26) ~threads:1 ()
    in
    let op = make_op esys in
    for i = 0 to ops - 1 do
      op i;
      if i mod 1024 = 1023 then E.advance_epoch esys ~tid:0
    done;
    E.sync esys ~tid:0;
    Systems.montage_stop esys r ();
    Nvm.Region.stats r
  in
  let rows =
    [
      ( "hashmap",
        run (fun esys ->
            let m = Pstructs.Mhashmap.create ~buckets:(1 lsl 10) esys in
            fun i -> ignore (Pstructs.Mhashmap.put m ~tid:0 (key_of (i / 16 mod 512)) value)) );
      ( "queue",
        run (fun esys ->
            let q = Pstructs.Mqueue.create esys in
            fun i ->
              if i land 1 = 0 then Pstructs.Mqueue.enqueue q ~tid:0 value
              else ignore (Pstructs.Mqueue.dequeue q ~tid:0)) );
    ]
  in
  let pts = R.sweep ~rows ~columns:[ ("run", ()) ] (fun run () -> run ()) in
  R.table
    ~fmt:(Printf.sprintf "%.3f")
    ~columns:[ "wb-lines/op"; "fences/op"; "dedup" ]
    ~rows:
      (last_point_rows 3
         (fun { Nvm.Region.writebacks; fences; coalesce_lines_in; coalesce_lines_out; _ } ->
           let dedup =
             if coalesce_lines_out = 0 then nan
             else float_of_int coalesce_lines_in /. float_of_int coalesce_lines_out
           in
           [ float_of_int writebacks /. fops; float_of_int fences /. fops; dedup ])
         pts)
    ~unit_label:"per op" ();
  List.iter
    (fun (row, what) ->
      R.check ~claim:(what ^ " dedup at least 2x at the coalescer") (fun () ->
          let { Nvm.Region.coalesce_lines_in = li; coalesce_lines_out = lo; _ } = R.at pts row 0 in
          lo > 0 && li >= 2 * lo))
    [ ("hashmap", "hashmap rewrite bursts"); ("queue", "queue enqueue/dequeue mix") ]

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
(* A shard over a fresh [backend] store for the length of [f]; then
   its stop (drain, epoch sync, advancer stop), whose drain stats and
   write-back and warm-set counters feed the end-of-run reports. *)
let with_netserve ~backend server f =
  let t =
    Cluster.Shard.start ~server
      { Cluster.Shard.default_config with backend; workers = server.Netserve.workers }
  in
  let result = f t in
  let d = Cluster.Shard.stop t in
  Systems.note_netserve (Cluster.Shard.totals t) d;
  Option.iter
    (fun esys ->
      let r = E.region esys in
      Systems.note_checked r;
      Systems.note_mirror_stats esys r;
      Systems.note_region_stats r)
    (Cluster.Shard.esys t);
  result

(* The front-end figures' load: 2 loadgen domains over 2000 keys of
   64 B values for one measurement window. *)
let loadgen ~port ~conns key_prefix =
  {
    Netserve.Loadgen.default_config with
    port;
    conns;
    domains = 2;
    duration_s = Env.duration_s;
    value_size = 64;
    keyspace = 2000;
    key_prefix;
  }

(* Preload, then the pipelined 90%-get closed loop. *)
let closed_loop lg =
  let lg = { lg with Netserve.Loadgen.pipeline = 8; get_frac = 0.9 } in
  Netserve.Loadgen.preload ~config:lg ();
  Netserve.Loadgen.run ~config:lg ()

let netserve_point ~backend ~workers =
  with_netserve ~backend { Netserve.default_config with workers; tick_s = 0.01 } (fun t ->
      closed_loop (loadgen ~port:(Cluster.Shard.port t) ~conns:(max 4 (2 * workers)) "ns"))

let netserve () =
  R.heading "Netserve: memcached TCP front end, closed-loop loadgen (90% get, 64 B values)";
  let columns = List.map (fun w -> (Printf.sprintf "%dw" w, w)) Env.threads in
  let pts =
    R.sweep
      ~rows:[ ("Montage", Cluster.Shard.Bk_montage); ("Transient (DRAM)", Bk_transient) ]
      ~columns
      (fun backend workers -> netserve_point ~backend ~workers)
  in
  R.table ~columns:(List.map fst columns)
    ~rows:(R.cells (fun r -> r.Netserve.Loadgen.ops_per_sec) pts)
    ~unit_label:"ops/s" ();
  (* latency at the widest sharding *)
  R.table
    ~columns:[ "mean_us"; "p50_us"; "p95_us"; "p99_us" ]
    ~rows:
      (last_point_rows 4
         (fun r -> Netserve.Loadgen.[ r.mean_us; r.p50_us; r.p95_us; r.p99_us ])
         pts)
    ~unit_label:(Printf.sprintf "latency at %d workers" (List.fold_left max 1 Env.threads))
    ();
  R.check ~claim:"the Montage-backed server sustains non-zero throughput at every worker count"
    (fun () ->
      List.assoc "Montage" pts <> []
      && List.for_all
           (function
             | Some r -> r.Netserve.Loadgen.ops > 0 && r.Netserve.Loadgen.errors = 0 | None -> false)
           (List.assoc "Montage" pts));
  R.check ~claim:"latency percentiles are ordered (p50 <= p95 <= p99) on the Montage backend"
    (fun () ->
      let r = R.at pts "Montage" (List.length columns - 1) in
      r.Netserve.Loadgen.p50_us <= r.Netserve.Loadgen.p95_us
      && r.Netserve.Loadgen.p95_us <= r.Netserve.Loadgen.p99_us)

(* ---- C10K: connection scaling and open-loop offered load ---- *)

(* Connection-census scaling on the epoll loop.  Each point starts a
   fresh 2-worker server, parks [census] idle connections in its epoll
   sets, runs a closed-loop burst over a small busy subset, and then
   round-trips a [version] command on every idle connection to prove
   the census is still being served.  Epoll should hold its 1K
   throughput at 10K+ idle connections (the kernel holds the interest
   set; waits cost O(ready)).  Both ends of every connection live in
   this process, so the sweep is clamped to RLIMIT_NOFILE/2. *)

(* [ck_report] is [None] when the busy burst itself could not run; the
   point still carries the census/answered counts. *)
type c10k_point = {
  ck_requested : int;
  ck_established : int;
  ck_answered : int;
  ck_report : Netserve.Loadgen.report option;
}

let c10k_census_point ~backend ~census =
  let config =
    {
      Netserve.default_config with
      workers = 2;
      max_conns = census + 128;
      backlog = 1024;
      idle_timeout_s = 0.0;
      tick_s = 0.01;
    }
  in
  with_netserve ~backend config (fun t ->
      let port = Cluster.Shard.port t in
      let idle =
        List.filter_map
          (fun _ -> try Some (Netserve.Client.connect port) with Unix.Unix_error _ -> None)
          (List.init census Fun.id)
      in
      let established = List.length idle in
      let lg = loadgen ~port ~conns:16 "ck" in
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
  R.heading "C10K: mostly-idle connection census on epoll (2 workers, 16 busy conns)";
  let soft = Netserve.Poller.raise_fd_limit 45_000 in
  let budget = max 64 ((soft - 512) / 2) in
  let requested = [ 400; 1_000; 5_000; 10_000; 20_000 ] in
  let censuses = List.sort_uniq compare (List.map (fun c -> min c budget) requested) in
  if List.exists (fun c -> c > budget) requested then
    Printf.printf
      "note: RLIMIT_NOFILE soft limit %d caps the in-process census at %d connections\n%!" soft
      budget;
  let series = [ ("Montage/epoll", Cluster.Shard.Bk_montage); ("Transient/epoll", Bk_transient) ] in
  let columns = List.map (fun c -> (Printf.sprintf "%dc" c, c)) censuses in
  let pts = R.sweep ~rows:series ~columns (fun backend census -> c10k_census_point ~backend ~census) in
  let table unit_label f = R.table ~columns:(List.map fst columns) ~rows:(R.cells f pts) ~unit_label () in
  let report f p = match p.ck_report with Some r -> f r | None -> nan in
  table "busy-subset ops/s" (report (fun r -> r.Netserve.Loadgen.ops_per_sec));
  table "busy-subset p99_us" (report (fun r -> r.Netserve.Loadgen.p99_us));
  table "idle conns still answering (of census)" (fun p -> float_of_int p.ck_answered);
  let epoll_pts = List.filter_map Fun.id (List.assoc "Montage/epoll" pts) in
  R.check ~claim:"epoll serves the full idle census at every size (all connections answer)"
    (fun () ->
      epoll_pts <> []
      && List.for_all
           (fun p -> p.ck_established = p.ck_requested && p.ck_answered = p.ck_requested)
           epoll_pts);
  (* anchored at the 1K census, the paper-style C10K comparison point *)
  let anchor = List.find_opt (fun p -> p.ck_requested >= 1_000) epoll_pts in
  (match (anchor, List.rev epoll_pts) with
  | Some first, last :: _ when first.ck_requested < last.ck_requested ->
      R.check
        ~claim:
          (Printf.sprintf "epoll throughput at %d idle conns stays within 10%% of the %d-conn figure"
             last.ck_requested first.ck_requested)
        (fun () ->
          match (first.ck_report, last.ck_report) with
          | Some fr, Some lr -> lr.Netserve.Loadgen.ops_per_sec >= 0.9 *. fr.Netserve.Loadgen.ops_per_sec
          | _ -> false)
  | _ -> R.check ~claim:"epoll census sweep completed" (fun () -> false));
  (* ---- open loop: latency vs offered load ---- *)
  R.heading "C10K: open-loop latency vs offered load (Montage)";
  with_netserve ~backend:Bk_montage { Netserve.default_config with workers = 2; tick_s = 0.01 }
    (fun t ->
      let lg = loadgen ~port:(Cluster.Shard.port t) ~conns:16 "ol" in
      (* the closed-loop row runs first: its capacity, with its
         (coordinated-omission-blind) p99, sets the open-loop rates *)
      let closed = ref None in
      let point fraction () =
        match fraction with
        | None ->
            Netserve.Loadgen.preload ~config:lg ();
            let c = Netserve.Loadgen.run ~config:lg () in
            closed := Some c;
            Netserve.Loadgen.[ c.ops_per_sec; c.ops_per_sec; c.p50_us; c.p99_us; 0.0 ]
        | Some frac ->
            let capacity = (Option.get !closed).Netserve.Loadgen.ops_per_sec in
            let rate = Float.max 1000.0 (frac *. capacity) in
            let o = Netserve.Loadgen.run_open ~config:lg ~grace_s:1.0 ~rate () in
            Netserve.Loadgen.
              [ o.offered_rate; o.achieved_rate; o.o_p50_us; o.o_p99_us; float_of_int o.abandoned ]
      in
      let rows =
        ("closed loop (capacity)", None)
        :: List.map (fun f -> (Printf.sprintf "open %.1fx capacity" f, Some f)) [ 0.5; 0.9; 1.5 ]
      in
      let pts = R.sweep ~rows ~columns:[ ("run", ()) ] point in
      R.table
        ~columns:[ "offered/s"; "achieved/s"; "p50_us"; "p99_us"; "abandoned" ]
        ~rows:(last_point_rows 5 Fun.id pts) ~unit_label:"open vs closed loop" ();
      R.check
        ~claim:
          "open-loop p99 at 1.5x capacity exceeds the closed-loop p99 (queueing delay is charged \
           to latency)"
        (fun () ->
          List.nth (R.at pts "open 1.5x capacity" 0) 3 > List.nth (R.at pts "closed loop (capacity)" 0) 3))

(* ---- Read path: warm handles ---- *)

(* Fixed-op read-mostly mix (95% GET / 5% PUT over a uniform key
   cycle) with exact media-read counters, across Montage with its warm
   set (rows "Montage (mirror)"), the same build with a zero budget
   ([mirror_max_bytes = 0]: every read charged cold, "Montage (no
   mirror)"), SOFT, and DRAM (T).  The headline claims: payload reads
   hit warm handles at least 90% of the time, and the charged NVM read
   lines per op drop at least 10x against the zero-budget build. *)
let readpath () =
  R.heading "Read path: warm payload handles on a read-mostly mix (fixed workload)";
  let ops = 50_000 and keys = 1 lsl 10 in
  let fops = float_of_int ops in
  let value = make_value 64 in
  let load put =
    for i = 0 to keys - 1 do
      put (key_of i)
    done
  in
  (* the timed mix over the loaded keys: ops/s *)
  let timed ?(tick = ignore) ~put ~get () =
    let t0 = Unix.gettimeofday () in
    for i = 0 to ops - 1 do
      let k = key_of (i * 7 mod keys) in
      if i mod 20 = 19 then put k else get k;
      tick i
    done;
    fops /. (Unix.gettimeofday () -. t0)
  in
  let lines_read r = (Nvm.Region.stats r).Nvm.Region.lines_read in
  (* each run: (ops/s, media lines read or -1, warm hits, misses) *)
  let montage mirror_max_bytes () =
    let esys, r =
      Systems.montage
        ~cfg_mod:(fun c -> { c with max_threads = 1; auto_advance = false; mirror_max_bytes })
        ~capacity:(1 lsl 26) ~threads:1 ()
    in
    let m = Pstructs.Mhashmap.create ~buckets:(1 lsl 10) esys in
    let put k = ignore (Pstructs.Mhashmap.put m ~tid:0 k value) in
    let get k = ignore (Pstructs.Mhashmap.get m ~tid:0 k) in
    load put;
    E.advance_epoch esys ~tid:0;
    let base_reads = lines_read r and base_m = E.mirror_stats esys in
    let opsps =
      timed ~tick:(fun i -> if i mod 2048 = 2047 then E.advance_epoch esys ~tid:0) ~put ~get ()
    in
    let reads = lines_read r - base_reads and ms = E.mirror_stats esys in
    E.sync esys ~tid:0;
    Systems.montage_stop esys r ();
    (opsps, reads, ms.E.hits - base_m.E.hits, ms.E.misses - base_m.E.misses)
  in
  let soft () =
    let r = Systems.region ~capacity:(1 lsl 26) ~threads:1 in
    let m = Baselines.Soft_map.create ~buckets:(1 lsl 10) (Baselines.Pmem.create r) in
    let put k = ignore (Baselines.Soft_map.put m ~tid:0 k value) in
    load put;
    let base_reads = lines_read r in
    let opsps = timed ~put ~get:(fun k -> ignore (Baselines.Soft_map.get m ~tid:0 k)) () in
    (opsps, lines_read r - base_reads, 0, 0)
  in
  let dram () =
    let m = Baselines.Transient_map.create ~buckets:(1 lsl 10) Baselines.Transient_map.Dram in
    let put k = ignore (Baselines.Transient_map.put m ~tid:0 k value) in
    load put;
    (timed ~put ~get:(fun k -> ignore (Baselines.Transient_map.get m ~tid:0 k)) (), -1, 0, 0)
  in
  let rows =
    [
      ("Montage (mirror)", montage Cfg.default.mirror_max_bytes);
      ("Montage (no mirror)", montage 0);
      ("SOFT", soft);
      ("DRAM (T)", dram);
    ]
  in
  let pts = R.sweep ~rows ~columns:[ ("run", ()) ] (fun run () -> run ()) in
  R.table
    ~columns:[ "ops/s"; "media-lines/op"; "hit %" ]
    ~rows:
      (last_point_rows 3
         (fun (opsps, reads, hits, misses) ->
           let media = if reads < 0 then nan else float_of_int reads /. fops in
           let rate =
             if hits + misses = 0 then nan
             else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
           in
           [ opsps; media; rate ])
         pts)
    ~unit_label:"read-mostly" ();
  R.check ~claim:"mirrors serve >=90% of payload reads from DRAM" (fun () ->
      let _, _, hits, misses = R.at pts "Montage (mirror)" 0 in
      hits + misses > 0 && float_of_int hits >= 0.9 *. float_of_int (hits + misses));
  R.check ~claim:"charged media read lines drop >=10x with mirrors on" (fun () ->
      let _, reads_on, _, _ = R.at pts "Montage (mirror)" 0 in
      let _, reads_off, _, _ = R.at pts "Montage (no mirror)" 0 in
      reads_off >= 10 * max 1 reads_on)

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

let wait_up c = if not (Cluster.Local.wait_up c) then failwith "cluster did not converge"

let cluster_throughput_point ~exe ~shards =
  Cluster.Local.with_ ~exe ~router:cluster_router ~shards cluster_shard (fun c ->
      wait_up c;
      closed_loop (loadgen ~port:(Cluster.Router.port (Cluster.Local.router c)) ~conns:(max 8 (4 * shards)) "cl"))

type cluster_avail = {
  ca_timeline : bool array array;  (* [shard].(tick): probe served the value *)
  ca_stats : Cluster.Router.stats;
  ca_restarted : bool;
  ca_victim : int;
}

let cluster_availability ~exe =
  let shards = 3 and victim = 1 in
  Cluster.Local.with_ ~exe ~heap:Temp_dir ~router:cluster_router ~shards cluster_shard (fun c ->
      wait_up c;
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
              Netserve.Client.send fd (Printf.sprintf "set %s 0 0 %d\r\n%s\r\n" k (String.length v) v);
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
          let last_victim () = match !(ticks.(victim)) with ok :: _ -> ok | [] -> true in
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
          {
            ca_timeline = Array.map (fun l -> Array.of_list (List.rev !l)) ticks;
            ca_stats = Cluster.Router.stats (Cluster.Local.router c);
            ca_restarted = Cluster.Local.restarts c victim >= 1;
            ca_victim = victim;
          }))

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

(* The availability panel keeps its own printer; its data goes to the
   record as two tables. *)
let print_availability a =
  Printf.printf "  availability around a SIGTERM of shard %d ('#' up, '.' down):\n" a.ca_victim;
  Array.iteri
    (fun sid row ->
      Printf.printf "    shard %d %s %s\n" sid
        (if sid = a.ca_victim then "[victim]" else "        ")
        (cluster_render_row row))
    a.ca_timeline;
  let s = a.ca_stats in
  Printf.printf "    router: %d request(s), %d shard-down error(s), %d down(s), %d rejoin(s)\n%!"
    s.Cluster.Router.requests s.shard_down_errors s.downs s.rejoins;
  let ticks = Array.fold_left (fun acc row -> max acc (Array.length row)) 0 a.ca_timeline in
  R.record
    ~columns:(List.init ticks string_of_int)
    ~rows:
      (Array.to_list
         (Array.mapi
            (fun sid row ->
              ( Printf.sprintf "shard %d" sid,
                List.init ticks (fun i ->
                    if i >= Array.length row then nan else if row.(i) then 1.0 else 0.0) ))
            a.ca_timeline))
    ~unit_label:"probe served (1) or shard down (0), per tick" ();
  R.record
    ~columns:[ "requests"; "shard-down errors"; "downs"; "rejoins" ]
    ~rows:
      [ ("router", List.map float_of_int [ s.requests; s.shard_down_errors; s.downs; s.rejoins ]) ]
    ~unit_label:"router counters" ()

let cluster () =
  R.heading "Cluster: consistent-hashing router over independent shard processes";
  match cluster_exe () with
  | None -> Printf.printf "  (montage_cli.exe not found next to the bench binary; skipping)\n%!"
  | Some exe ->
      let columns = List.map (fun n -> (Printf.sprintf "%dsh" n, n)) [ 1; 2; 4 ] in
      let pts =
        R.sweep ~rows:[ ("Montage cluster", ()) ] ~columns (fun () shards ->
            cluster_throughput_point ~exe ~shards)
      in
      R.table ~columns:(List.map fst columns)
        ~rows:(R.cells (fun r -> r.Netserve.Loadgen.ops_per_sec) pts)
        ~unit_label:"ops/s at the router, closed loop (90% get, 64 B)" ();
      R.check ~claim:"the router sustains error-free closed-loop throughput at every shard count"
        (fun () ->
          List.for_all
            (function
              | Some r -> r.Netserve.Loadgen.ops > 0 && r.Netserve.Loadgen.errors = 0 | None -> false)
            (List.assoc "Montage cluster" pts));
      let avail =
        R.sweep ~rows:[ ("availability", ()) ] ~columns:[ ("run", ()) ] (fun () () ->
            cluster_availability ~exe)
      in
      let a () = R.at avail "availability" 0 in
      (match avail with [ (_, [ Some a ]) ] -> print_availability a | _ -> ());
      R.check ~claim:"survivor shards answer every probe through the kill window" (fun () ->
          let a = a () in
          let survivors = List.filteri (fun sid _ -> sid <> a.ca_victim) (Array.to_list a.ca_timeline) in
          List.for_all (Array.for_all Fun.id) survivors);
      R.check ~claim:"the victim goes down, is restarted, and serves its recovered value" (fun () ->
          let a = a () in
          let vrow = a.ca_timeline.(a.ca_victim) in
          Array.exists not vrow && Array.length vrow > 0 && vrow.(Array.length vrow - 1) && a.ca_restarted);
      R.check ~claim:"the router observed the down and the rejoin" (fun () ->
          let s = (a ()).ca_stats in
          s.Cluster.Router.downs >= 1 && s.rejoins >= 4)
