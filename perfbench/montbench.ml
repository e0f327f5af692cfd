(* montbench — the measuring program behind perfbench/run.py.

     montbench.exe --workload W --seed N --seconds S --trace 0|1

   One run is one workload: set up once ([setup_s]; recover_cold, whose
   set-up takes a few milliseconds, sets up [rc_setup_runs] times
   and reports the median), warm up for [warmup_s], measure for S seconds,
   verify the program's outputs, and print one JSON line.  Latency is
   reported over fixed-size windows of samples: each window's mean and
   90th percentile (a window holds at least 100 samples, so at least ten
   lie above it), and the median over the windows.

   Traffic is the paper's memcached experiment (§6.2) as the repo's
   bench harness runs it (bench/figures.ml, Figure 10): YCSB workload A
   from [Kvstore.Ycsb] — 50% reads, 50% updates, zipfian keys — with the
   harness's default record count and value size (bench/env.ml: 20,000
   records of 1 KiB).  The seed draws the loaded values and the request
   stream.

   Workloads (each a closed loop with one client):
     kv_local      YCSB-A as memcached get/set requests fed in-process
                   through the protocol codec into a Montage-hashmap
                   store.  The client never syncs: as in a server,
                   durability comes from the background epoch advancer,
                   and the request path drains its persist buffer when
                   it fills.  Exercises framing, the store/index, the
                   epoch runtime and the persist path, with no socket.
     net_routed    YCSB-A over TCP through the consistent-hashing
                   router to two in-process shards, in pipelined batches
                   of [net_pipeline] requests, as Netserve's Loadgen
                   sends them by default; a sample is a batch's round
                   trip per request.  Exercises the router hop and the
                   shard's socket path.
     recover_cold  time to serve after a crash: reload the crash image
                   of a YCSB-loaded store whose last YCSB-A requests
                   were never synced, run epoch recovery and the index
                   rebuild, answer one get.  Exercises recovery only.

   With --trace 0 the program prints the end-to-end metrics.  With
   --trace 1 it prints the per-layer ledger instead: spans that this
   file wraps around its calls into each layer (the store's map calls,
   the protocol codec, the recovery phases), round trips with and
   without the router, and the regions' NVM counters.  The library
   itself is not instrumented. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config
module R = Nvm.Region
module Store = Kvstore.Store
module Ycsb = Kvstore.Ycsb
module Map = Pstructs.Mhashmap
module X = Util.Xoshiro

let mib = 1024 * 1024
let now = Netserve.Poller.mono_s
let warmup_s = 0.5

(* ---- samples, spans, NVM counters ---- *)

type samples = { mutable xs : float array; mutable n : int }

let samples () = { xs = Array.make 4096 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.xs then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.xs 0 b 0 s.n;
    s.xs <- b
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

(* nearest-rank quantile *)
let quantile s q =
  if s.n = 0 then nan
  else begin
    let a = Array.sub s.xs 0 s.n in
    Array.sort Float.compare a;
    a.(min (s.n - 1) (int_of_float (q *. float_of_int s.n)))
  end

let mean s = Array.fold_left ( +. ) 0.0 (Array.sub s.xs 0 s.n) /. float_of_int (max 1 s.n)

let median xs =
  let s = samples () in
  List.iter (add s) xs;
  quantile s 0.5

type span = { mutable total : float; mutable calls : int }

let span () = { total = 0.0; calls = 0 }

let timed sp f =
  let t0 = now () in
  let r = f () in
  sp.total <- sp.total +. (now () -. t0);
  sp.calls <- sp.calls + 1;
  r

let reset sp =
  sp.total <- 0.0;
  sp.calls <- 0

(* The store's map calls, each wrapped in [sp] when tracing: the
   ledger's store row (hashmap work, BEGIN/END_OP, payload allocation
   and the persist-buffer push all happen inside). *)
let backend_of map sp =
  let b = Store.of_mhashmap map in
  match sp with
  | None -> b
  | Some sp ->
      {
        Store.get = (fun ~tid k -> timed sp (fun () -> b.get ~tid k));
        put = (fun ~tid k v -> timed sp (fun () -> b.put ~tid k v));
        remove = (fun ~tid k -> timed sp (fun () -> b.remove ~tid k));
        update = (fun ~tid k f -> timed sp (fun () -> b.update ~tid k f));
      }

type nvm = { wb : int; fences : int; persisted : int; read : int; co_in : int; co_out : int }

let nvm0 = { wb = 0; fences = 0; persisted = 0; read = 0; co_in = 0; co_out = 0 }

let nvm_add a r =
  let s = R.stats r in
  {
    wb = a.wb + s.writebacks;
    fences = a.fences + s.fences;
    persisted = a.persisted + s.lines_persisted;
    read = a.read + s.lines_read;
    co_in = a.co_in + s.coalesce_lines_in;
    co_out = a.co_out + s.coalesce_lines_out;
  }

let nvm_of regions = List.fold_left nvm_add nvm0 regions

let nvm_sub a b =
  {
    wb = a.wb - b.wb;
    fences = a.fences - b.fences;
    persisted = a.persisted - b.persisted;
    read = a.read - b.read;
    co_in = a.co_in - b.co_in;
    co_out = a.co_out - b.co_out;
  }

(* Device time the regions' cost model (the default one) assigns to
   this traffic, whichever thread paid it (or none: background work is
   uncharged). *)
let nvm_model_s d =
  let l = Nvm.Latency.default in
  float_of_int
    ((d.wb * l.writeback_batch_ns)
    + (d.fences * l.fence_base_ns)
    + (d.persisted * l.fence_per_line_ns)
    + (d.read * l.read_per_line_ns))
  /. 1e9

(* ---- inputs ---- *)

let ycsb_records = 20_000
let ycsb_value_size = 1024

let ycsb records = Ycsb.create (Ycsb.workload_a ~records ~value_size:ycsb_value_size ())

(* The values a YCSB load stores, drawn from [seed]: the client's model
   of the store after loading, by key. *)
let loaded_values wl ~records ~seed =
  let model = Hashtbl.create records in
  Ycsb.load wl ~set:(Hashtbl.replace model) (X.create seed);
  model

(* Store every loaded value, in record order. *)
let load_into ~records model set =
  for i = 0 to records - 1 do
    let k = Ycsb.key_of_record i in
    set k (Hashtbl.find model k)
  done

(* The next request of a YCSB-A stream: [`Get key] or [`Set (key, value)]. *)
let next_request wl rng =
  match Ycsb.next wl rng with
  | Ycsb.Read k -> `Get k
  | Ycsb.Update (k, v) -> `Set (k, v)
  | Ycsb.Insert _ | Ycsb.Rmw _ -> invalid_arg "YCSB-A draws only reads and updates"

let encode buf = function
  | `Get k -> Kvstore.Protocol.Client.encode_get buf [ k ]
  | `Set (key, v) -> Kvstore.Protocol.Client.encode_set buf ~key v

(* ---- set-up, measurement loop, result ---- *)

(* Build [runs] times, dropping all but the last; returns the last and
   the median build time. *)
let repeated_setup ~runs build =
  let rec go i times last =
    if i = runs then (Option.get last, median times)
    else begin
      Gc.full_major ();
      let t0 = now () in
      let x = build () in
      go (i + 1) ((now () -. t0) :: times) (Some x)
    end
  in
  go 0 [] None

(* Run [op ~record] back to back: [warmup_s] unrecorded, then [seconds]
   recorded, where each recorded op adds one sample to [lat].  Every
   [window] samples closes a window ([max_int]: the run is one window).
   Returns the recorded wall time and the windows as sample ranges
   [first, end). *)
let run_loop ~seconds ~lat ~window ?(on_start = ignore) op =
  let warm_end = now () +. warmup_s in
  while now () < warm_end do
    op ~record:false
  done;
  on_start ();
  let t0 = now () in
  let stop = t0 +. seconds in
  while now () < stop do
    op ~record:true
  done;
  let full = lat.n / window in
  (now () -. t0, if full = 0 then [ (0, lat.n) ] else List.init full (fun w -> (w * window, (w + 1) * window)))

type result = { correct : bool; attempted : int; failed : int; metrics : (string * float * string) list }

(* Each window's mean and 90th-percentile operation time, reported as
   the median over the windows, so a burst of outside load moves a few
   windows rather than the result.  The mean counts every slow
   operation (persist-buffer drains on the request path, say) at its
   full cost; with one client in a closed loop it is the inverse of
   throughput, which is not reported apart. *)
let end_to_end ~lat ~windows ~setup =
  let over f = median (List.map (fun (i, j) -> f { xs = Array.sub lat.xs i (j - i); n = j - i }) windows) in
  [
    ("op_mean_us", 1e6 *. over mean, "us");
    ("op_p90_us", 1e6 *. over (fun s -> quantile s 0.9), "us");
    ("setup_s", setup, "s");
  ]

(* The per-layer ledger.  [shares] maps layers to seconds per
   operation, as shares of [op_s], the mean operation time; [other] is
   the part of it inside no layer's span (clock reads, glue).  Layers
   off the workload's path read 0. *)
let layers = [ "frame"; "wire"; "router"; "store"; "image_load"; "recover_scan"; "index_rebuild" ]

let ledger ~op_s ~shares ~store_sp ~nvm ~ops ~wall ~advances =
  let per_op x = x /. float_of_int (max 1 ops) in
  let pct l = match List.assoc_opt l shares with Some s -> 100.0 *. s /. op_s | None -> 0.0 in
  let covered = List.fold_left (fun a (_, s) -> a +. s) 0.0 shares in
  List.map (fun l -> (l ^ "_pct", pct l, "%")) layers
  @ [
      ("other_pct", 100.0 *. (op_s -. covered) /. op_s, "%");
      ("store_us_per_call", 1e6 *. store_sp.total /. float_of_int (max 1 store_sp.calls), "us");
      ("nvm_model_us_per_op", 1e6 *. per_op (nvm_model_s nvm), "us");
      ("writebacks_per_op", per_op (float_of_int nvm.wb), "count");
      ("fences_per_op", per_op (float_of_int nvm.fences), "count");
      ("lines_persisted_per_op", per_op (float_of_int nvm.persisted), "count");
      ("lines_read_per_op", per_op (float_of_int nvm.read), "count");
      ( "coalesce_in_per_out",
        (if nvm.co_out = 0 then 1.0 else float_of_int nvm.co_in /. float_of_int nvm.co_out),
        "count" );
      ("epoch_advances_per_s", float_of_int advances /. wall, "1/s");
    ]

(* ---- kv_local ---- *)

let kv_window = 50_000
let kv_config = { Cfg.default with max_threads = 2 }

type kv = { kregion : R.t; kesys : E.t; conn : Kvstore.Protocol.conn }

let kv_local ~seed ~seconds ~trace =
  let rng = X.create seed in
  let wl = ycsb ycsb_records in
  let loaded = loaded_values wl ~records:ycsb_records ~seed:(seed + 1) in
  let store_sp = span () in
  let build () =
    let kregion = R.create ~max_threads:5 ~capacity:(64 * mib) () in
    let kesys = E.create ~config:kv_config kregion in
    let map = Map.create ~buckets:(1 lsl 15) kesys in
    let store = Store.create (backend_of map (if trace then Some store_sp else None)) in
    load_into ~records:ycsb_records loaded (Store.set store ~tid:0);
    E.sync kesys ~tid:0;
    { kregion; kesys; conn = Kvstore.Protocol.create store ~tid:0 }
  in
  let kv, setup = repeated_setup ~runs:1 build in
  let model = Hashtbl.copy loaded in
  let lat = samples () in
  let ops = ref 0 and failed = ref 0 in
  let nvm_start = ref nvm0 and adv_start = ref 0 in
  let buf = Buffer.create (ycsb_value_size + 64) in
  let op ~record =
    let r = next_request wl rng in
    let reply, ack =
      match r with
      | `Get k ->
          let v = Hashtbl.find model k in
          (Printf.sprintf "VALUE %s 0 %d\r\n%s\r\nEND\r\n" k (String.length v) v, None)
      | `Set (k, v) -> ("STORED\r\n", Some (k, v))
    in
    Buffer.clear buf;
    encode buf r;
    let req = Buffer.contents buf in
    let t0 = now () in
    let replies = Kvstore.Protocol.feed kv.conn req in
    let dt = now () -. t0 in
    if replies = [ reply ] then Option.iter (fun (k, v) -> Hashtbl.replace model k v) ack else incr failed;
    if record then begin
      add lat dt;
      incr ops
    end
  in
  let on_start () =
    reset store_sp;
    nvm_start := nvm_of [ kv.kregion ];
    adv_start := E.advance_count kv.kesys
  in
  let wall, windows = run_loop ~seconds ~lat ~window:kv_window ~on_start op in
  let nvm = nvm_sub (nvm_of [ kv.kregion ]) !nvm_start in
  let advances = E.advance_count kv.kesys - !adv_start in
  (* durability check: after a sync, a crash must keep every acked set *)
  E.sync kv.kesys ~tid:0;
  E.stop_background kv.kesys;
  R.crash kv.kregion;
  let esys2, payloads = E.recover ~config:{ kv_config with auto_advance = false } kv.kregion in
  let store2 = Store.create (Store.of_mhashmap (Map.recover esys2 payloads)) in
  let durable = Hashtbl.fold (fun k v ok -> ok && Store.get store2 ~tid:0 k = Some v) model true in
  let metrics =
    if trace then begin
      let n = float_of_int (max 1 !ops) in
      let store = store_sp.total /. n in
      let shares = [ ("frame", mean lat -. store); ("store", store) ] in
      ledger ~op_s:(mean lat) ~shares ~store_sp ~nvm ~ops:!ops ~wall ~advances
    end
    else end_to_end ~lat ~windows ~setup
  in
  { correct = durable && !failed = 0; attempted = !ops; failed = !failed; metrics }

(* ---- net_routed ---- *)

let net_shards = 2
let net_pipeline = 8
let net_window = 500

let router_config =
  { Cluster.Router.default_config with port = 0; probe_interval_s = 0.05; connect_timeout_s = 2.0 }

type shard = { sregion : R.t; sesys : E.t; sstore : Store.t; srv : Netserve.t; ssp : span }
type cluster = { shards : shard array; router : Cluster.Router.t }

(* A blocking client connection with a small read buffer. *)
type client = { fd : Unix.file_descr; buf : Bytes.t; mutable pos : int; mutable len : int }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let send c s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.fd s !off (n - !off)
  done

let fill c =
  if c.pos > 0 then begin
    Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
    c.len <- c.len - c.pos;
    c.pos <- 0
  end;
  let k = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  if k = 0 then raise End_of_file;
  c.len <- c.len + k

(* one CRLF-terminated line, without the CRLF *)
let rec read_line c =
  match Bytes.index_from_opt c.buf c.pos '\n' with
  | Some i when i < c.len ->
      let line = Bytes.sub_string c.buf c.pos (i - 1 - c.pos) in
      c.pos <- i + 1;
      line
  | _ ->
      fill c;
      read_line c

let rec read_block c n =
  if c.len - c.pos >= n + 2 then begin
    let s = Bytes.sub_string c.buf c.pos n in
    c.pos <- c.pos + n + 2;
    s
  end
  else begin
    fill c;
    read_block c n
  end

(* The reply to one get: [Ok (Some data)] on a hit, [Ok None] on a
   miss, [Error line] otherwise *)
let read_value c =
  let line = read_line c in
  if line = "END" then Ok None
  else
    match String.split_on_char ' ' line with
    | [ "VALUE"; _; _; n ] ->
        let data = read_block c (int_of_string n) in
        if read_line c = "END" then Ok (Some data) else Error "missing END"
    | _ -> Error line

let get c key =
  send c ("get " ^ key ^ "\r\n");
  read_value c

let net_routed ~seed ~seconds ~trace =
  let rng = X.create seed in
  let wl = ycsb ycsb_records in
  let loaded = loaded_values wl ~records:ycsb_records ~seed:(seed + 1) in
  let ring = Cluster.Ring.create ~vnodes:router_config.vnodes (List.init net_shards Fun.id) in
  let owner = Cluster.Ring.lookup ring in
  let build () =
    let shard sid =
      let sregion = R.create ~max_threads:5 ~capacity:(32 * mib) () in
      let sesys = E.create ~config:{ Cfg.default with max_threads = 2 } sregion in
      let ssp = span () in
      let map = Map.create ~buckets:(1 lsl 14) sesys in
      let sstore = Store.create (backend_of map (if trace then Some ssp else None)) in
      load_into ~records:ycsb_records loaded (fun k v -> if owner k = sid then Store.set sstore ~tid:0 k v);
      E.sync sesys ~tid:0;
      reset ssp;
      let srv =
        Netserve.start
          ~config:{ Netserve.default_config with port = 0; workers = 1; drain_timeout_s = 1.0 }
          ~sync:(fun ~tid -> E.sync sesys ~tid)
          ~persisted_epoch:(fun () -> E.persisted_epoch sesys)
          sstore
      in
      { sregion; sesys; sstore; srv; ssp }
    in
    let shards = Array.init net_shards shard in
    let addrs =
      Array.to_list
        (Array.mapi
           (fun sid s -> { Cluster.Router.sid; shost = "127.0.0.1"; sport = Netserve.port s.srv })
           shards)
    in
    let router = Cluster.Router.start ~config:router_config addrs in
    if not (Cluster.Router.wait_up router ~timeout_s:10.0) then failwith "shards did not join";
    { shards; router }
  in
  let cl, setup = repeated_setup ~runs:1 build in
  let model = Hashtbl.copy loaded in
  let routed = connect (Cluster.Router.port cl.router) in
  let direct = if trace then Array.map (fun s -> connect (Netserve.port s.srv)) cl.shards else [||] in
  let lat = samples () and routed_get = samples () and direct_get = samples () in
  let ops = ref 0 and failed = ref 0 in
  let nvm_start = ref nvm0 and adv_start = ref 0 and store_start = ref (0.0, 0) in
  let regions = Array.to_list (Array.map (fun s -> s.sregion) cl.shards) in
  let advance_count () = Array.fold_left (fun a s -> a + E.advance_count s.sesys) 0 cl.shards in
  let store_span () =
    Array.fold_left (fun (t, c) s -> (t +. s.ssp.total, c + s.ssp.calls)) (0.0, 0) cl.shards
  in
  let batch = Buffer.create (net_pipeline * (ycsb_value_size + 64)) in
  let op ~record =
    let reqs = List.init net_pipeline (fun _ -> next_request wl rng) in
    Buffer.clear batch;
    (* each get's expected value counts the sets before it in the batch:
       a key's requests all go to one shard, which answers in order *)
    let expected =
      List.map
        (fun r ->
          encode batch r;
          match r with
          | `Get k -> Some (Hashtbl.find model k)
          | `Set (k, v) ->
              Hashtbl.replace model k v;
              None)
        reqs
    in
    let t0 = now () in
    send routed (Buffer.contents batch);
    let bad =
      List.fold_left
        (fun bad e ->
          let ok = match e with Some v -> read_value routed = Ok (Some v) | None -> read_line routed = "STORED" in
          if ok then bad else bad + 1)
        0 expected
    in
    let dt = now () -. t0 in
    failed := !failed + bad;
    if record then begin
      add lat (dt /. float_of_int net_pipeline);
      ops := !ops + net_pipeline;
      match List.find_opt (function `Get _ -> true | `Set _ -> false) reqs with
      | Some (`Get k) when trace ->
          (* one of the batch's gets again, alone, routed and straight to
             the owning shard, in alternating order: the router hop is
             the difference *)
          let v = Ok (Some (Hashtbl.find model k)) in
          let timed_get c s =
            let t = now () in
            let ok = get c k = v in
            add s (now () -. t);
            ok
          in
          let legs = [ (routed, routed_get); (direct.(owner k), direct_get) ] in
          let legs = if routed_get.n mod 2 = 0 then legs else List.rev legs in
          if not (List.for_all Fun.id (List.map (fun (c, s) -> timed_get c s) legs)) then incr failed
      | _ -> ()
    end
  in
  let on_start () =
    nvm_start := nvm_of regions;
    adv_start := advance_count ();
    store_start := store_span ()
  in
  let wall, windows = run_loop ~seconds ~lat ~window:net_window ~on_start op in
  let nvm = nvm_sub (nvm_of regions) !nvm_start in
  let advances = advance_count () - !adv_start in
  let st, sc = store_span () in
  let store_sp = { total = st -. fst !store_start; calls = sc - snd !store_start } in
  Unix.close routed.fd;
  Array.iter (fun c -> Unix.close c.fd) direct;
  Cluster.Router.stop cl.router;
  Array.iter
    (fun s ->
      ignore (Netserve.shutdown s.srv);
      E.stop_background s.sesys)
    cl.shards;
  (* every acked set reached the key's owning shard *)
  let placed =
    Hashtbl.fold (fun k v ok -> ok && Store.get cl.shards.(owner k).sstore ~tid:0 k = Some v) model true
  in
  let metrics =
    if trace then begin
      (* a lone routed get splits into the router hop (routed minus
         direct round trip), the shard's socket and framing path (direct
         round trip minus store time) and the store.  The router share
         can read below zero: on a 2-vCPU VM a lone direct get was
         measured taking longer than a routed one. *)
      let rg = mean routed_get and dg = mean direct_get in
      let store = store_sp.total /. float_of_int (max 1 store_sp.calls) in
      let shares = [ ("router", rg -. dg); ("wire", dg -. store); ("store", store) ] in
      ledger ~op_s:rg ~shares ~store_sp ~nvm ~ops:!ops ~wall ~advances
    end
    else end_to_end ~lat ~windows ~setup
  in
  { correct = placed && !failed = 0; attempted = !ops; failed = !failed; metrics }

(* ---- recover_cold ---- *)

(* A sixteenth of the request workloads' records: a recovery cycle is
   short enough for each process to time several hundred, and the
   region and its image stay cache-sized.  On a 2-vCPU VM, twice the
   records made a cycle 2.5 times slower and its time vary by up to 40%
   between processes, with outside memory traffic. *)
let rc_records = ycsb_records / 16
let rc_tail = 1_000
let rc_setup_runs = 21
let rc_buckets = 1 lsl 12
let rc_config = { Cfg.default with max_threads = 2; auto_advance = false }

let recover_cold ~seed ~seconds ~trace =
  let rng = X.create seed in
  let wl = ycsb rc_records in
  let loaded = loaded_values wl ~records:rc_records ~seed:(seed + 1) in
  (* a loaded store, synced, then an unsynced tail of YCSB-A requests
     that the crash must discard; returns the crash image *)
  let build () =
    let trng = X.create (seed + 2) in
    let region = R.create ~max_threads:5 ~capacity:(4 * mib) () in
    let esys = E.create ~config:rc_config region in
    let store = Store.create (Store.of_mhashmap (Map.create ~buckets:rc_buckets esys)) in
    load_into ~records:rc_records loaded (Store.set store ~tid:0);
    E.sync esys ~tid:0;
    for _ = 1 to rc_tail do
      Ycsb.execute wl ~tid:0 store (Ycsb.next wl trng)
    done;
    R.media_image region
  in
  let image, setup = repeated_setup ~runs:rc_setup_runs build in
  let load_sp = span () and scan_sp = span () and rebuild_sp = span () and store_sp = span () in
  let lat = samples () in
  let ops = ref 0 and failed = ref 0 and nvm = ref nvm0 in
  let check store i =
    let k = Ycsb.key_of_record i in
    Store.get store ~tid:0 k = Some (Hashtbl.find loaded k)
  in
  let op ~record =
    let i = X.int rng rc_records in
    (* a restarted process has a fresh heap: start each cycle with none
       of the last cycle's garbage *)
    Gc.full_major ();
    let t0 = now () in
    let region = timed load_sp (fun () -> R.of_image ~max_threads:5 image) in
    let esys, payloads = timed scan_sp (fun () -> E.recover ~config:rc_config region) in
    let map = timed rebuild_sp (fun () -> Map.recover ~buckets:rc_buckets esys payloads) in
    let store = Store.create (backend_of map (if trace then Some store_sp else None)) in
    let first = check store i in
    let dt = now () -. t0 in
    if record then begin
      nvm := nvm_add !nvm region;
      (* the recovered store holds exactly the synced contents: full
         check on the first recorded cycle, a sample after that *)
      let sample = if !ops = 0 then List.init rc_records Fun.id else List.init 64 (fun _ -> X.int rng rc_records) in
      if not (first && Map.size map = rc_records && List.for_all (check store) sample) then incr failed;
      add lat dt;
      incr ops
    end
  in
  let on_start () = List.iter reset [ load_sp; scan_sp; rebuild_sp; store_sp ] in
  (* one window: a process times only a few hundred cycles *)
  let wall, windows = run_loop ~seconds ~lat ~window:max_int ~on_start op in
  let metrics =
    if trace then begin
      let n = float_of_int (max 1 !ops) in
      let per_op sp = sp.total /. n in
      let load = per_op load_sp and scan = per_op scan_sp and rebuild = per_op rebuild_sp in
      (* every get on a freshly recovered store is cold, so the mean
         store call stands for the op's first get *)
      let first_get = store_sp.total /. float_of_int (max 1 store_sp.calls) in
      let shares =
        [
          ("image_load", load);
          ("recover_scan", scan);
          ("index_rebuild", rebuild);
          ("store", first_get);
        ]
      in
      ledger ~op_s:(mean lat) ~shares ~store_sp ~nvm:!nvm ~ops:!ops ~wall ~advances:0
    end
    else end_to_end ~lat ~windows ~setup
  in
  { correct = !failed = 0 && !ops > 0; attempted = !ops; failed = !failed; metrics }

(* ---- main ---- *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_result r =
  let metric (name, v, unit) = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" r.correct
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " kv_local | net_routed | recover_cold");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1 = print the per-layer ledger");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "montbench.exe --workload W --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "kv_local" -> kv_local
    | "net_routed" -> net_routed
    | "recover_cold" -> recover_cold
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  print_result (run ~seed:!seed ~seconds:!seconds ~trace:(!trace <> 0))
