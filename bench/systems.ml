(* Registry of benchmark systems behind uniform map/queue interfaces.

   Every builder creates the system over its own simulated NVM region
   (with the default latency model, so persistence instrumentation
   costs real time) and returns closures plus a [stop] that shuts down
   background machinery.  Thread id conventions: workers use
   0..threads-1; background helpers use higher slots. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config

type map_inst = {
  mget : tid:int -> string -> string option;
  mput : tid:int -> string -> string -> unit;
  mrem : tid:int -> string -> unit;
  msync : tid:int -> unit; (* durability barrier where supported *)
  mstop : unit -> unit;
}

type queue_inst = {
  qenq : tid:int -> string -> unit;
  qdeq : tid:int -> string option;
  qsync : tid:int -> unit;
  qstop : unit -> unit;
}

(* Regions carrying a persistency checker (MONTAGE_PCHECK=1/strict in
   the environment), collected so the end of the run can print one
   lint/violation report per benchmarked system. *)
let checked_regions : (string option * Nvm.Region.t) list ref = ref []

let region ~capacity ~threads =
  let r = Nvm.Region.create ~max_threads:(threads + 4) ~capacity () in
  (match Cfg.default.Cfg.pcheck with
  | Cfg.Pcheck_off -> ()
  | Cfg.Pcheck_record | Cfg.Pcheck_enforce ->
      let mode =
        if Cfg.default.Cfg.pcheck = Cfg.Pcheck_enforce then Nvm.Pcheck.Enforce else Nvm.Pcheck.Record
      in
      ignore (Nvm.Region.enable_pcheck ~mode r);
      checked_regions := (None, r) :: !checked_regions);
  r

(* Print the persistency report of every checked region that actually
   found something, plus an aggregate line.  Quiet when the checker is
   off (the default fast path). *)
let report_pcheck () =
  let checked = List.rev !checked_regions in
  if checked <> [] then begin
    let viols = ref 0 and lints = ref 0 in
    List.iter
      (fun (label, r) ->
        match Nvm.Region.checker r with
        | None -> ()
        | Some c ->
            viols := !viols + List.length (Nvm.Pcheck.violations c);
            lints := !lints + Nvm.Pcheck.lint_total c;
            if Nvm.Pcheck.violations c <> [] || Nvm.Pcheck.lint_total c > 0 then
              Benchlib.Report.pcheck_summary ?label r)
      checked;
    Printf.printf "\n=== pcheck: %d regions checked, %d violations, %d lints ===\n%!"
      (List.length checked) !viols !lints
  end

(* Write-back accounting, aggregated across every Montage system the
   run builds.  Stats are harvested into these totals when a system
   stops (after its final drain) rather than by retaining regions — a
   full sweep builds hundreds of multi-GB regions that must stay
   collectible. *)
type wb_totals = {
  mutable systems : int;
  mutable writebacks : int;
  mutable fences : int;
  mutable ranges : int;
  mutable lines_in : int;
  mutable lines_out : int;
}

let wb_totals = { systems = 0; writebacks = 0; fences = 0; ranges = 0; lines_in = 0; lines_out = 0 }

let note_region_stats r =
  let s = Nvm.Region.stats r in
  wb_totals.systems <- wb_totals.systems + 1;
  wb_totals.writebacks <- wb_totals.writebacks + s.Nvm.Region.writebacks;
  wb_totals.fences <- wb_totals.fences + s.Nvm.Region.fences;
  wb_totals.ranges <- wb_totals.ranges + s.Nvm.Region.coalesce_ranges;
  wb_totals.lines_in <- wb_totals.lines_in + s.Nvm.Region.coalesce_lines_in;
  wb_totals.lines_out <- wb_totals.lines_out + s.Nvm.Region.coalesce_lines_out

(* Warm-set accounting, same lifecycle as [wb_totals]: warm-hit /
   cold-miss counters and charged media read lines are harvested when a
   Montage system stops. *)
type mirror_totals = {
  mutable m_systems : int;
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_evictions : int;
  mutable m_lines_read : int;
}

let mirror_totals = { m_systems = 0; m_hits = 0; m_misses = 0; m_evictions = 0; m_lines_read = 0 }

let note_mirror_stats esys r =
  let s = E.mirror_stats esys in
  let rs = Nvm.Region.stats r in
  mirror_totals.m_systems <- mirror_totals.m_systems + 1;
  mirror_totals.m_hits <- mirror_totals.m_hits + s.E.hits;
  mirror_totals.m_misses <- mirror_totals.m_misses + s.E.misses;
  mirror_totals.m_evictions <- mirror_totals.m_evictions + s.E.evictions;
  mirror_totals.m_lines_read <- mirror_totals.m_lines_read + rs.Nvm.Region.lines_read

let report_mirror () =
  let t = mirror_totals in
  if t.m_systems > 0 then begin
    let reads = t.m_hits + t.m_misses in
    let rate = if reads = 0 then 0.0 else 100.0 *. float_of_int t.m_hits /. float_of_int reads in
    Printf.printf
      "\n\
       === warm payloads: %d Montage systems, %d DRAM hits / %d NVM misses (%.1f%% hit rate), \
       %d evictions, %d media lines read ===\n\
       %!"
      t.m_systems t.m_hits t.m_misses rate t.m_evictions t.m_lines_read
  end

let report_coalescing () =
  if wb_totals.systems > 0 then begin
    Benchlib.Report.heading
      (Printf.sprintf "write-back totals across %d Montage system instances" wb_totals.systems);
    Benchlib.Report.writeback_line ~label:"aggregate" ~writebacks:wb_totals.writebacks
      ~fences:wb_totals.fences ~ranges:wb_totals.ranges ~lines_in:wb_totals.lines_in
      ~lines_out:wb_totals.lines_out
  end

(* Netserve front-end accounting, same lifecycle as [wb_totals]: each
   benchmarked server contributes its lifetime connection/command/byte
   counters and drain timings when it shuts down. *)
type net_totals = {
  mutable n_servers : int;
  mutable n_conns : int;
  mutable n_cmds : int;
  mutable n_bytes_in : int;
  mutable n_bytes_out : int;
  mutable n_forced : int;
  mutable n_drain_s : float;
  mutable n_sync_s : float;
}

let net_totals =
  {
    n_servers = 0;
    n_conns = 0;
    n_cmds = 0;
    n_bytes_in = 0;
    n_bytes_out = 0;
    n_forced = 0;
    n_drain_s = 0.0;
    n_sync_s = 0.0;
  }

let note_netserve t (d : Netserve.drain_stats) =
  let conns, bytes_in, bytes_out, cmds = Netserve.totals t in
  net_totals.n_servers <- net_totals.n_servers + 1;
  net_totals.n_conns <- net_totals.n_conns + conns;
  net_totals.n_cmds <- net_totals.n_cmds + cmds;
  net_totals.n_bytes_in <- net_totals.n_bytes_in + bytes_in;
  net_totals.n_bytes_out <- net_totals.n_bytes_out + bytes_out;
  net_totals.n_forced <- net_totals.n_forced + d.Netserve.forced_closes;
  net_totals.n_drain_s <- net_totals.n_drain_s +. d.Netserve.drain_s;
  net_totals.n_sync_s <- net_totals.n_sync_s +. d.Netserve.sync_s

let report_netserve () =
  let t = net_totals in
  if t.n_servers > 0 then
    Printf.printf
      "\n\
       === netserve: %d servers, %d connections, %d commands, %.1f MB in / %.1f MB out, %d \
       forced closes, %.3fs drain + %.3fs sync total ===\n\
       %!"
      t.n_servers t.n_conns t.n_cmds
      (float_of_int t.n_bytes_in /. 1e6)
      (float_of_int t.n_bytes_out /. 1e6)
      t.n_forced t.n_drain_s t.n_sync_s

(* Spawn a 10 ms ticker domain calling [tick] until stopped — the
   pacing Dalí's periodic persistence needs. *)
let ticker ?(period = 0.01) tick =
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Unix.sleepf period;
          if not (Atomic.get stop) then tick ()
        done)
  in
  fun () ->
    Atomic.set stop true;
    Domain.join d

let no_sync ~tid:_ = ()
let no_stop () = ()

(* Leak registry: every system with a background domain registers its
   stop function; a figure that dies mid-point (e.g. allocator
   exhaustion caught by the harness) would otherwise leave an advancer
   domain ticking forever, polluting every later measurement. *)
let live_stops : (int, unit -> unit) Hashtbl.t = Hashtbl.create 16
let stop_ids = Atomic.make 0

let guarded_stop stop =
  let id = Atomic.fetch_and_add stop_ids 1 in
  Hashtbl.replace live_stops id stop;
  fun () ->
    if Hashtbl.mem live_stops id then begin
      Hashtbl.remove live_stops id;
      stop ()
    end

let stop_leaked () =
  let pending = Hashtbl.fold (fun id f acc -> (id, f) :: acc) live_stops [] in
  List.iter
    (fun (id, f) ->
      Hashtbl.remove live_stops id;
      f ())
    pending

(* ---- Montage systems ---- *)

(* An epoch system over a fresh region; [cfg_mod] edits the default
   config, which has one worker slot per thread plus the advancer's. *)
let montage ?(cfg_mod = Fun.id) ~capacity ~threads () =
  let r = region ~capacity ~threads in
  (E.create ~config:(cfg_mod { Cfg.default with max_threads = threads + 1 }) r, r)

(* Stop the background advancer and harvest the write-back and mirror
   totals; registered, so [stop_leaked] runs it if a point never did. *)
let montage_stop esys r =
  guarded_stop (fun () ->
      E.stop_background esys;
      note_mirror_stats esys r;
      note_region_stats r)

(* ---- map systems ---- *)

(* A map from a structure's get, put and remove; the baselines have no
   durability barrier and nothing to stop unless given. *)
let map_of ?(sync = no_sync) ?(stop = no_stop) (get, put, remove) =
  {
    mget = get;
    mput = (fun ~tid k v -> ignore (put ~tid k v));
    mrem = (fun ~tid k -> ignore (remove ~tid k));
    msync = sync;
    mstop = stop;
  }

(* A Montage-backed map: [ops esys] builds the structure and returns
   its get, put and remove. *)
let montage_map_of ?cfg_mod ~capacity ~threads ops =
  let esys, r = montage ?cfg_mod ~capacity ~threads () in
  map_of ~sync:(fun ~tid -> E.sync esys ~tid) ~stop:(montage_stop esys r) (ops esys)

let montage_map ?cfg_mod ~capacity ~threads ~buckets () =
  montage_map_of ?cfg_mod ~capacity ~threads (fun esys ->
      let m = Pstructs.Mhashmap.create ~buckets esys in
      Pstructs.Mhashmap.(get m, put m, remove m))

(* Persistence elided: the "(T)" rows' transient upper bound. *)
let transient c = { c with Cfg.persist = false; auto_advance = false }

let montage_t_map ~capacity ~threads ~buckets () =
  montage_map ~cfg_mod:transient ~capacity ~threads ~buckets ()

(* MHAMT: the snapshot-capable persistent HAMT behind the same closure
   interface, so the YCSB figure can row it next to the hashmap. *)
let mhamt_map ~capacity ~threads () =
  montage_map_of ~capacity ~threads (fun esys ->
      let m = Pstructs.Mhamt.create esys in
      Pstructs.Mhamt.(get m, set m, remove m))

(* Scan-while-writing instances: [zscan] performs one consistent full
   scan of the structure and returns the number of bindings it saw.
   MHAMT pins an O(1) snapshot and folds it; the hashmap's consistent
   listing is [to_alist], its closest equivalent. *)
type scan_inst = {
  zput : tid:int -> string -> string -> unit;
  zscan : tid:int -> int;
  zstop : unit -> unit;
}

let mhamt_scan ~capacity ~threads () =
  let esys, r = montage ~capacity ~threads () in
  let m = Pstructs.Mhamt.create esys in
  {
    zput = Pstructs.Mhamt.set m;
    zscan =
      (fun ~tid ->
        let v = Pstructs.Mhamt.snapshot m in
        let n = Pstructs.Mhamt.View.fold v ~tid (fun acc _ _ -> acc + 1) 0 in
        Pstructs.Mhamt.release m v ~tid;
        n);
    zstop = montage_stop esys r;
  }

let mhashmap_scan ~capacity ~threads ~buckets () =
  let esys, r = montage ~capacity ~threads () in
  let m = Pstructs.Mhashmap.create ~buckets esys in
  {
    zput = (fun ~tid k v -> ignore (Pstructs.Mhashmap.put m ~tid k v));
    zscan = (fun ~tid -> List.length (Pstructs.Mhashmap.to_alist m ~tid));
    zstop = montage_stop esys r;
  }

let pmem ~capacity ~threads = Baselines.Pmem.create (region ~capacity ~threads)

let dram_map ~buckets () =
  let m = Baselines.Transient_map.create ~buckets Baselines.Transient_map.Dram in
  map_of Baselines.Transient_map.(get m, put m, remove m)

let nvm_t_map ~capacity ~threads ~buckets () =
  let m = Baselines.Transient_map.create ~buckets (Baselines.Transient_map.Nvm (pmem ~capacity ~threads)) in
  map_of Baselines.Transient_map.(get m, put m, remove m)

(* SOFT has no atomic update: benchmark semantics are insert/remove *)
let soft_map ~capacity ~threads ~buckets () =
  let m = Baselines.Soft_map.create ~buckets (pmem ~capacity ~threads) in
  map_of Baselines.Soft_map.(get m, put m, remove m)

(* Dalí's bucket heads live in the root area: capped bucket count.
   No background persister: workers pay for the periodic flushes. *)
let dali_map ~capacity ~threads () =
  let m = Baselines.Dali_map.create ~buckets:4096 (pmem ~capacity ~threads) in
  map_of ~sync:(Baselines.Dali_map.persist_all m) Baselines.Dali_map.(get m, put m, remove m)

let nvtraverse_map ~capacity ~threads ~buckets () =
  let m = Baselines.Nvtraverse_map.create ~buckets (pmem ~capacity ~threads) in
  map_of Baselines.Nvtraverse_map.(get m, put m, remove m)

let mod_map ~capacity ~threads () =
  let m = Baselines.Mod_structs.Map.create ~buckets:4096 (pmem ~capacity ~threads) in
  map_of Baselines.Mod_structs.Map.(get m, put m, remove m)

let pronto_map ~mode ~capacity ~threads ~buckets () =
  let p = Baselines.Pronto.create ~buckets ~threads:(threads + 2) ~mode (pmem ~capacity ~threads) in
  map_of Baselines.Pronto.(get p, put p, remove p)

let mnemosyne_map ~capacity ~threads ~preload () =
  let words = max (1 lsl 18) (preload * 8) in
  let stm = Baselines.Mnemosyne.create ~words ~threads:(threads + 2) (region ~capacity ~threads) in
  let m = Baselines.Mnemosyne.Map.create ~buckets:4096 stm in
  map_of Baselines.Mnemosyne.Map.(get m, put m, remove m)

(* A memcached store over [sys].  The reference systems expose no
   atomic RMW; YCSB-A is read/update only, so the get-then-put fallback
   is safe. *)
let store_of (sys : map_inst) =
  Kvstore.Store.create
    (Kvstore.Store.backend ~get:sys.mget
       ~put:(fun ~tid k v ->
         sys.mput ~tid k v;
         None)
       ~remove:(fun ~tid k ->
         let old = sys.mget ~tid k in
         sys.mrem ~tid k;
         old)
       ())

(* Region sizing: enough blocks for the live set plus epoch-delayed
   reclamation churn. *)
let map_capacity ~preload ~value_size =
  let block = 64 * ((value_size / 64) + 2) in
  max (1 lsl 26) (preload * block * 6)

let all_map_systems ~threads ~preload ~value_size : (string * (unit -> map_inst)) list =
  let capacity = map_capacity ~preload ~value_size in
  let buckets = 1 lsl 15 in
  [
    ("DRAM (T)", fun () -> dram_map ~buckets ());
    ("NVM (T)", fun () -> nvm_t_map ~capacity ~threads ~buckets ());
    ("Montage (T)", fun () -> montage_t_map ~capacity ~threads ~buckets ());
    ("Montage", fun () -> montage_map ~capacity ~threads ~buckets ());
    ("SOFT", fun () -> soft_map ~capacity ~threads ~buckets ());
    ("NVTraverse", fun () -> nvtraverse_map ~capacity ~threads ~buckets ());
    ("Dali", fun () -> dali_map ~capacity ~threads ());
    ("MOD", fun () -> mod_map ~capacity ~threads ());
    ("Pronto-Full", fun () -> pronto_map ~mode:Baselines.Pronto.Full ~capacity ~threads ~buckets ());
    ("Pronto-Sync", fun () -> pronto_map ~mode:Baselines.Pronto.Sync ~capacity ~threads ~buckets ());
    ("Mnemosyne", fun () -> mnemosyne_map ~capacity ~threads ~preload ());
  ]

(* ---- queue systems ---- *)

(* A queue (or stack) from its insert and remove. *)
let queue_of ?(sync = no_sync) ?(stop = no_stop) (qenq, qdeq) = { qenq; qdeq; qsync = sync; qstop = stop }

(* A Montage-backed queue: [ops esys] builds the structure and returns
   its insert and remove. *)
let montage_queue_of ?cfg_mod ~capacity ~threads ops =
  let esys, r = montage ?cfg_mod ~capacity ~threads () in
  queue_of ~sync:(fun ~tid -> E.sync esys ~tid) ~stop:(montage_stop esys r) (ops esys)

let montage_queue ?cfg_mod ~capacity ~threads () =
  montage_queue_of ?cfg_mod ~capacity ~threads (fun esys ->
      let q = Pstructs.Mqueue.create esys in
      Pstructs.Mqueue.(enqueue q, dequeue q))

let montage_t_queue ~capacity ~threads () = montage_queue ~cfg_mod:transient ~capacity ~threads ()

let dram_queue () =
  let q = Baselines.Transient_queue.create Baselines.Transient_queue.Dram in
  queue_of Baselines.Transient_queue.(enqueue q, dequeue q)

let nvm_t_queue ~capacity ~threads () =
  let q = Baselines.Transient_queue.create (Baselines.Transient_queue.Nvm (pmem ~capacity ~threads)) in
  queue_of Baselines.Transient_queue.(enqueue q, dequeue q)

let friedman_queue ~capacity ~threads () =
  let q = Baselines.Friedman_queue.create (pmem ~capacity ~threads) in
  queue_of Baselines.Friedman_queue.(enqueue q, dequeue q)

let mod_queue ~capacity ~threads () =
  let q = Baselines.Mod_structs.Queue.create (pmem ~capacity ~threads) in
  queue_of Baselines.Mod_structs.Queue.(enqueue q, dequeue q)

(* Pronto queue: a transient queue persisted through the semantic op
   log — the map hosted by the logger stays empty; only the logging
   cost (Pronto's entire critical-path overhead) is charged. *)
let pronto_queue ~mode ~capacity ~threads () =
  let p = Baselines.Pronto.create ~buckets:64 ~threads:(threads + 2) ~mode (pmem ~capacity ~threads) in
  let q = Baselines.Transient_queue.create Baselines.Transient_queue.Dram in
  queue_of
    ( (fun ~tid v ->
        Baselines.Transient_queue.enqueue q ~tid v;
        Baselines.Pronto.log_op p ~tid ~opcode:Baselines.Pronto.opcode_put ~key:"" ~value:v),
      fun ~tid ->
        let r = Baselines.Transient_queue.dequeue q ~tid in
        if r <> None then
          Baselines.Pronto.log_op p ~tid ~opcode:Baselines.Pronto.opcode_remove ~key:"" ~value:"";
        r )

let mnemosyne_queue ~capacity ~threads () =
  let stm = Baselines.Mnemosyne.create ~words:(1 lsl 20) ~threads:(threads + 2) (region ~capacity ~threads) in
  let q = Baselines.Mnemosyne.Queue.create stm in
  queue_of Baselines.Mnemosyne.Queue.(enqueue q, dequeue q)

let queue_capacity ~value_size = max (1 lsl 26) (value_size * 200_000)

let all_queue_systems ~threads ~value_size : (string * (unit -> queue_inst)) list =
  let capacity = queue_capacity ~value_size in
  [
    ("DRAM (T)", fun () -> dram_queue ());
    ("NVM (T)", fun () -> nvm_t_queue ~capacity ~threads ());
    ("Montage (T)", fun () -> montage_t_queue ~capacity ~threads ());
    ("Montage", fun () -> montage_queue ~capacity ~threads ());
    ("Friedman", fun () -> friedman_queue ~capacity ~threads ());
    ("MOD", fun () -> mod_queue ~capacity ~threads ());
    ("Pronto-Full", fun () -> pronto_queue ~mode:Baselines.Pronto.Full ~capacity ~threads ());
    ("Pronto-Sync", fun () -> pronto_queue ~mode:Baselines.Pronto.Sync ~capacity ~threads ());
    ("Mnemosyne", fun () -> mnemosyne_queue ~capacity ~threads ());
  ]

(* ---- graph systems ---- *)

(* [attrs] labels every vertex and edge added. *)
type graph_inst = {
  g_add_edge : tid:int -> int -> int -> bool;
  g_remove_edge : tid:int -> int -> int -> bool;
  g_add_vertex : tid:int -> int -> bool;
  g_remove_vertex : tid:int -> int -> bool;
  g_stop : unit -> unit;
}

let montage_graph ~vertices ~attrs (esys, r) =
  let g = Pstructs.Mgraph.create ~capacity:vertices esys in
  {
    g_add_edge = (fun ~tid u v -> Pstructs.Mgraph.add_edge g ~tid u v attrs);
    g_remove_edge = Pstructs.Mgraph.remove_edge g;
    g_add_vertex = (fun ~tid i -> Pstructs.Mgraph.add_vertex g ~tid i attrs);
    g_remove_vertex = Pstructs.Mgraph.remove_vertex g;
    g_stop = montage_stop esys r;
  }

let dram_graph ~vertices ~attrs =
  let g = Baselines.Transient_graph.create ~capacity:vertices Baselines.Transient_graph.Dram in
  {
    g_add_edge = (fun ~tid u v -> Baselines.Transient_graph.add_edge g ~tid u v attrs);
    g_remove_edge = Baselines.Transient_graph.remove_edge g;
    g_add_vertex = (fun ~tid i -> Baselines.Transient_graph.add_vertex g ~tid i attrs);
    g_remove_vertex = Baselines.Transient_graph.remove_vertex g;
    g_stop = no_stop;
  }
