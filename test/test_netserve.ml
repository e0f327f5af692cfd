(* Loopback end-to-end tests for the netserve TCP front end: real
   sockets against a Montage-backed store on an ephemeral port.
   Covers concurrent pipelined clients across the sharded workers, the
   wire-visible stats counters, the load generator's closed loop, the
   protocol size caps over a socket, and the acceptance property the
   shutdown-drain ordering exists for: every reply acked as STORED
   before a graceful shutdown survives a crash of the region. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config

let testing_cfg workers = { Cfg.testing with max_threads = workers + 1 }

let buckets = 256

(* A Montage-backed server on port 0 with a fast poll tick.  Returns
   the region/esys so tests can crash and recover the image. *)
let start_montage ?(workers = 4) ?(config_mod = fun c -> c) () =
  let ecfg = testing_cfg workers in
  let region =
    Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:(workers + 4)
      ~capacity:(1 lsl 25) ()
  in
  let esys = E.create ~config:ecfg region in
  let map = Pstructs.Mhashmap.create ~buckets esys in
  let store = Kvstore.Store.create (Kvstore.Store.of_mhashmap map) in
  let config =
    config_mod { Netserve.default_config with port = 0; workers; tick_s = 0.01 }
  in
  let t =
    Netserve.start ~config
      ~sync:(fun ~tid -> E.sync esys ~tid)
      ~persisted_epoch:(fun () -> E.persisted_epoch esys)
      store
  in
  (region, esys, t)

(* ---- blocking client helpers ---- *)

(* connect, send, recv_exact, recv_until, recv_all, recv_unit *)
open Netserve.Client

let contains = Substring.contains

let quit_close fd =
  (try send fd "quit\r\n" with _ -> ());
  try Unix.close fd with _ -> ()

(* ---- concurrent pipelined clients ---- *)

let test_concurrent_pipelined_clients () =
  let region, esys, t = start_montage () in
  let port = Netserve.port t in
  let clients = 6 and batches = 10 and per_batch = 8 in
  (* each client pipelines [per_batch] set+get pairs per write and
     checks the replies byte-exactly, on its own key prefix *)
  let run_client cid =
    let fd = connect port in
    let ok = ref true in
    for b = 0 to batches - 1 do
      let out = Buffer.create 512 and expect = Buffer.create 512 in
      for i = 0 to per_batch - 1 do
        let key = Printf.sprintf "c%d-%d-%d" cid b i in
        let v = Printf.sprintf "v%d.%d.%d" cid b i in
        Buffer.add_string out (Printf.sprintf "set %s 0 0 %d\r\n%s\r\nget %s\r\n" key (String.length v) v key);
        Buffer.add_string expect
          (Printf.sprintf "STORED\r\nVALUE %s 0 %d\r\n%s\r\nEND\r\n" key (String.length v) v)
      done;
      send fd (Buffer.contents out);
      let want = Buffer.contents expect in
      let got = recv_exact fd (String.length want) in
      if got <> want then ok := false
    done;
    quit_close fd;
    !ok
  in
  let doms = Array.init clients (fun cid -> Domain.spawn (fun () -> run_client cid)) in
  let oks = Array.map Domain.join doms in
  Array.iteri
    (fun cid ok -> Alcotest.(check bool) (Printf.sprintf "client %d byte-exact" cid) true ok)
    oks;
  let d = Netserve.shutdown t in
  Alcotest.(check int) "graceful drain, no forced closes" 0 d.Netserve.forced_closes;
  let accepted, _, _, cmds = Netserve.totals t in
  Alcotest.(check int) "every client connection accepted" clients accepted;
  Alcotest.(check int) "every command dispatched" (clients * batches * per_batch * 2 + clients) cmds;
  E.stop_background esys;
  ignore region

(* ---- wire-visible stats ---- *)

let test_stats_over_wire () =
  let region, esys, t = start_montage () in
  let port = Netserve.port t in
  let fd = connect port in
  send fd "set s1 0 0 2\r\nhi\r\nget s1\r\nget s1 s1\r\n";
  let expect = "STORED\r\nVALUE s1 0 2\r\nhi\r\nEND\r\nVALUE s1 0 2\r\nhi\r\nVALUE s1 0 2\r\nhi\r\nEND\r\n" in
  Alcotest.(check string) "session replies" expect (recv_exact fd (String.length expect));
  send fd "stats\r\n";
  let stats = recv_until fd "END\r\n" in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "stats carries %S" needle) true (contains stats needle))
    [
      "STAT threads 4";
      "STAT cmd_set 1";
      "STAT cmd_get 2";
      "STAT total_connections 1";
      "STAT curr_connections 1";
      "STAT max_pipeline_depth ";
      "STAT bytes_read ";
      "STAT bytes_written ";
      "STAT worker0_accepted ";
      (* store-level section still present alongside the server's *)
      "STAT get_hits 3";
    ];
  quit_close fd;
  let d = Netserve.shutdown t in
  Alcotest.(check int) "drained" 0 d.Netserve.forced_closes;
  E.stop_background esys;
  ignore region

(* ---- protocol size caps over a real socket ---- *)

let test_caps_over_wire () =
  let region, esys, t =
    start_montage ~workers:2 ~config_mod:(fun c -> { c with Netserve.max_value = 64; max_line = 128 }) ()
  in
  let port = Netserve.port t in
  let fd = connect port in
  send fd (Printf.sprintf "set big 0 0 4096\r\n%s\r\nget alive\r\n" (String.make 4096 'z'));
  let expect = "CLIENT_ERROR object too large for cache\r\nEND\r\n" in
  Alcotest.(check string) "oversized block refused, framing intact" expect
    (recv_exact fd (String.length expect));
  send fd (Printf.sprintf "get %s\r\nget alive\r\n" (String.make 500 'k'));
  let expect2 = "CLIENT_ERROR line too long\r\nEND\r\n" in
  Alcotest.(check string) "oversized line refused, framing intact" expect2
    (recv_exact fd (String.length expect2));
  quit_close fd;
  ignore (Netserve.shutdown t);
  E.stop_background esys;
  ignore region

(* ---- the load generator's closed loop (>= 4 workers) ---- *)

let test_loadgen_throughput () =
  let region, esys, t = start_montage ~workers:4 () in
  let port = Netserve.port t in
  let lg =
    {
      Netserve.Loadgen.default_config with
      port;
      conns = 8;
      domains = 2;
      duration_s = 0.4;
      pipeline = 8;
      keyspace = 400;
      value_size = 32;
      key_prefix = "lgt";
    }
  in
  Netserve.Loadgen.preload ~config:lg ();
  let r = Netserve.Loadgen.run ~config:lg () in
  Alcotest.(check bool) "non-zero throughput" true (r.Netserve.Loadgen.ops > 0);
  Alcotest.(check bool) "ops/s positive" true (r.Netserve.Loadgen.ops_per_sec > 0.0);
  Alcotest.(check int) "error-free" 0 r.Netserve.Loadgen.errors;
  Alcotest.(check bool) "hit path exercised" true (r.Netserve.Loadgen.hits > 0);
  Alcotest.(check bool) "percentiles ordered" true
    (r.Netserve.Loadgen.p50_us <= r.Netserve.Loadgen.p95_us
    && r.Netserve.Loadgen.p95_us <= r.Netserve.Loadgen.p99_us
    && r.Netserve.Loadgen.p99_us > 0.0);
  let d = Netserve.shutdown t in
  Alcotest.(check int) "loadgen connections drained" 0 d.Netserve.forced_closes;
  E.stop_background esys;
  ignore region

(* ---- the epoll loop ---- *)

(* A pipelined session dribbled one byte at a time: dispatch, value
   framing, multi-get, delete, the error path, version and quit must
   not depend on where reads split the stream. *)
let test_dribbled_session () =
  let region, esys, t = start_montage ~workers:2 () in
  let fd = connect (Netserve.port t) in
  let script =
    "set pk1 0 0 5\r\nhello\r\nset pk2 0 0 3\r\nxyz\r\nget pk1 pk2\r\ndelete pk2\r\n\
     get pk2\r\nbogus\r\nversion\r\nquit\r\n"
  in
  String.iter (fun c -> send fd (String.make 1 c)) script;
  (* quit closes the connection after the last reply flushes: read to EOF *)
  let replies = recv_all fd in
  (try Unix.close fd with _ -> ());
  Alcotest.(check string) "replies"
    "STORED\r\nSTORED\r\nVALUE pk1 0 5\r\nhello\r\nVALUE pk2 0 3\r\nxyz\r\nEND\r\nDELETED\r\n\
     END\r\nERROR\r\nVERSION montage-ocaml 1.0\r\n"
    replies;
  let d = Netserve.shutdown t in
  Alcotest.(check int) "drained" 0 d.Netserve.forced_closes;
  E.stop_background esys;
  ignore region

(* With a 16-byte read chunk every request spans several reads, and a
   read shorter than the chunk ends each drain: the pipelined replies
   must still come back byte-exact, and the peer's close after its last
   request must still be seen, closing the connection. *)
let test_short_reads () =
  let region, esys, t =
    start_montage ~workers:1 ~config_mod:(fun c -> { c with Netserve.read_chunk = 16 }) ()
  in
  let fd = connect (Netserve.port t) in
  let v = String.make 40 'v' in
  let script =
    Printf.sprintf
      "set short-read-key-1 0 0 %d\r\n%s\r\nget short-read-key-1\r\nGET  short-read-key-1        missing\r\nset k2 0x10 0 2\r\nab\r\nget k2\r\nincr nope 1\r\nversion\r\n"
      (String.length v) v
  in
  send fd script;
  let hit = Printf.sprintf "VALUE short-read-key-1 0 %d\r\n%s\r\nEND\r\n" (String.length v) v in
  let want =
    "STORED\r\n" ^ hit ^ hit ^ "STORED\r\nVALUE k2 16 2\r\nab\r\nEND\r\nNOT_FOUND\r\n\
     VERSION montage-ocaml 1.0\r\n"
  in
  Alcotest.(check string) "pipelined replies byte-exact" want (recv_exact fd (String.length want));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  Unix.setsockopt_float fd SO_RCVTIMEO 5.0;
  let eof = try Unix.read fd (Bytes.create 1) 0 1 = 0 with Unix.Unix_error _ -> false in
  Alcotest.(check bool) "peer close closes the connection (EOF)" true eof;
  (try Unix.close fd with _ -> ());
  let d = Netserve.shutdown t in
  Alcotest.(check int) "nothing left to force-close" 0 d.Netserve.forced_closes;
  E.stop_background esys;
  ignore region

(* An fd epoll rejects (a regular file: EPERM) is refused and closed,
   and the loop keeps serving sockets. *)
let test_refused_fd () =
  let echo c =
    let b = Netserve.Conn_core.inbuf c in
    let n = Netserve.Conn_core.pending b in
    Netserve.Conn_core.send_sub c b.bytes b.pos n;
    Netserve.Conn_core.consume b n
  in
  let core =
    Netserve.Conn_core.create ~name:"refuse"
      {
        input = echo;
        paused = (fun _ -> false);
        finished = (fun _ -> false);
        connected = ignore;
        closed = (fun _ _ -> ());
      }
  in
  let file = Filename.temp_file "conn_core" ".reg" in
  let ffd = Unix.openfile file [ Unix.O_RDONLY ] 0 in
  Sys.remove file;
  (match Netserve.Conn_core.add core ffd () with
  | Ok _ -> Alcotest.fail "regular file accepted"
  | Error _ -> ());
  Alcotest.(check bool) "refused fd closed" true
    (match Unix.fstat ffd with _ -> false | exception Unix.Unix_error (Unix.EBADF, _, _) -> true);
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Netserve.Conn_core.add core b () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("socket refused: " ^ e));
  send a "ping";
  for _ = 1 to 5 do
    Netserve.Conn_core.step core ~timeout_s:0.05
  done;
  Alcotest.(check string) "socket still served" "ping" (recv_exact a 4);
  Unix.close a;
  ignore (Netserve.Conn_core.shutdown core)

(* idle connections are reaped by the periodic sweep, not per tick *)
let test_idle_reap () =
  let region, esys, t =
    start_montage ~workers:2
      ~config_mod:(fun c -> { c with Netserve.idle_timeout_s = 0.2 }) ()
  in
  let fd = connect (Netserve.port t) in
  send fd "set ir 0 0 1\r\nx\r\n";
  Alcotest.(check string) "stored" "STORED\r\n" (recv_exact fd 8);
  (* no further traffic: the sweep must close the connection from the
     server side, surfacing as EOF here *)
  Unix.setsockopt_float fd SO_RCVTIMEO 5.0;
  let eof = try Unix.read fd (Bytes.create 1) 0 1 = 0 with Unix.Unix_error _ -> false in
  Alcotest.(check bool) "idle connection reaped (EOF)" true eof;
  (try Unix.close fd with _ -> ());
  ignore (Netserve.shutdown t);
  E.stop_background esys;
  ignore region

(* a burst of pipelined replies far past out_hwm must pause reads, not
   drop or reorder output: every reply arrives byte-exact *)
let test_out_hwm_backpressure () =
  let region, esys, t =
    start_montage ~workers:1
      ~config_mod:(fun c -> { c with Netserve.out_hwm = 2048 }) ()
  in
  let fd = connect (Netserve.port t) in
  let v = String.make 512 'b' in
  send fd (Printf.sprintf "set bp 0 0 %d\r\n%s\r\n" (String.length v) v);
  Alcotest.(check string) "stored" "STORED\r\n" (recv_exact fd 8);
  let n = 400 in
  let out = Buffer.create (n * 8) in
  for _ = 1 to n do
    Buffer.add_string out "get bp\r\n"
  done;
  (* ~215 KB of replies against a 2 KB high-water mark *)
  send fd (Buffer.contents out);
  let one = Printf.sprintf "VALUE bp 0 %d\r\n%s\r\nEND\r\n" (String.length v) v in
  let want = String.concat "" (List.init n (fun _ -> one)) in
  let got = recv_exact fd (String.length want) in
  Alcotest.(check bool) "all replies byte-exact under backpressure" true (got = want);
  quit_close fd;
  let d = Netserve.shutdown t in
  Alcotest.(check int) "drained" 0 d.Netserve.forced_closes;
  E.stop_background esys;
  ignore region

(* a shutdown with a connection still open keeps serving it until the
   client quits, and the drain reports no forced closes *)
let test_drain_serves_inflight () =
  let region, esys, t = start_montage ~workers:2 () in
  let fd = connect (Netserve.port t) in
  send fd "set dk 0 0 2\r\nok\r\n";
  Alcotest.(check string) "stored" "STORED\r\n" (recv_exact fd 8);
  let dom = Domain.spawn (fun () -> Netserve.shutdown t) in
  Unix.sleepf 0.1;
  send fd "get dk\r\nquit\r\n";
  let expect = "VALUE dk 0 2\r\nok\r\nEND\r\n" in
  Alcotest.(check string) "served during drain" expect (recv_exact fd (String.length expect));
  (try Unix.close fd with _ -> ());
  let d = Domain.join dom in
  Alcotest.(check int) "graceful: no forced closes" 0 d.Netserve.forced_closes;
  E.stop_background esys;
  ignore region

(* ---- acked STORED keys survive shutdown + crash ---- *)

let test_acked_keys_survive_crash () =
  let region, esys, t = start_montage () in
  let port = Netserve.port t in
  let clients = 4 and keys_per_client = 25 in
  let run_client cid =
    let fd = connect port in
    let out = Buffer.create 1024 in
    for i = 0 to keys_per_client - 1 do
      Buffer.add_string out (Printf.sprintf "set dur%d-%02d 0 0 6\r\nv%d.%03d\r\n" cid i cid i)
    done;
    send fd (Buffer.contents out);
    (* read all acks: only count a key as acked if STORED came back *)
    let want = String.concat "" (List.init keys_per_client (fun _ -> "STORED\r\n")) in
    let got = recv_exact fd (String.length want) in
    quit_close fd;
    got = want
  in
  let doms = Array.init clients (fun cid -> Domain.spawn (fun () -> run_client cid)) in
  let all_acked = Array.for_all Fun.id (Array.map Domain.join doms) in
  Alcotest.(check bool) "every set acked STORED" true all_acked;
  (* the shutdown drain syncs from the acceptor's tid alone: the
     durable frontier must cover every epoch acks were issued in
     without joining or waking the (now idle) worker threads *)
  let pre_shutdown_epoch = E.current_epoch esys in
  let d = Netserve.shutdown t in
  Alcotest.(check bool)
    (Printf.sprintf "frontier %d covers pre-shutdown epoch %d" d.Netserve.persisted_epoch
       pre_shutdown_epoch)
    true
    (d.Netserve.persisted_epoch >= pre_shutdown_epoch);
  E.stop_background esys;
  (* power failure after the graceful shutdown *)
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:(testing_cfg 4) region in
  let map2 = Pstructs.Mhashmap.recover ~buckets esys2 payloads in
  let store2 = Kvstore.Store.create (Kvstore.Store.of_mhashmap map2) in
  let missing = ref [] in
  for cid = 0 to clients - 1 do
    for i = 0 to keys_per_client - 1 do
      let key = Printf.sprintf "dur%d-%02d" cid i in
      match Kvstore.Store.get store2 ~tid:0 key with
      | Some v when v = Printf.sprintf "v%d.%03d" cid i -> ()
      | _ -> missing := key :: !missing
    done
  done;
  Alcotest.(check (list string)) "every acked key recovered with its value" [] !missing;
  E.stop_background esys2

(* ---- mhamt backend: snapshot isolation through the socket path ---- *)

(* The acceptance criterion, end to end: phase A lands over real
   sockets (two connections, every set acked), a snapshot is taken,
   then two client domains overwrite every key through the server
   while the test thread folds the view over and over — every fold
   must see exactly the phase-A state.  After the writers drain, the
   shutdown syncs, the region crashes, and the recovered mhamt must
   serve the last acked values back over a fresh server. *)
let test_mhamt_snapshot_through_sockets () =
  let workers = 2 in
  let ecfg = testing_cfg workers in
  let region =
    Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:(workers + 4) ~capacity:(1 lsl 25) ()
  in
  let esys = E.create ~config:ecfg region in
  let map = Pstructs.Mhamt.create esys in
  let store = Kvstore.Store.create (Kvstore.Store.of_mhamt map) in
  let config = { Netserve.default_config with port = 0; workers; tick_s = 0.01 } in
  let t =
    Netserve.start ~config
      ~sync:(fun ~tid -> E.sync esys ~tid)
      ~persisted_epoch:(fun () -> E.persisted_epoch esys)
      store
  in
  let port = Netserve.port t in
  let keys = 32 in
  let key i = Printf.sprintf "key%03d" i in
  let phase_a d =
    let fd = connect port in
    let ok = ref true in
    for i = 0 to (keys / 2) - 1 do
      let k = (d * keys / 2) + i in
      let v = "A" ^ string_of_int k in
      send fd (Printf.sprintf "set %s 0 0 %d\r\n%s\r\n" (key k) (String.length v) v);
      if recv_exact fd 8 <> "STORED\r\n" then ok := false
    done;
    quit_close fd;
    !ok
  in
  let a_doms = Array.init 2 (fun d -> Domain.spawn (fun () -> phase_a d)) in
  let a_ok = Array.for_all Fun.id (Array.map Domain.join a_doms) in
  Alcotest.(check bool) "phase A fully acked" true a_ok;
  let v = Pstructs.Mhamt.snapshot map in
  let writers_done = Atomic.make 0 in
  let phase_b d =
    let fd = connect port in
    let ok = ref true in
    for round = 0 to 9 do
      for i = 0 to keys - 1 do
        let value = Printf.sprintf "B%d:%d:%d" d round i in
        send fd (Printf.sprintf "set %s 0 0 %d\r\n%s\r\n" (key i) (String.length value) value);
        if recv_exact fd 8 <> "STORED\r\n" then ok := false
      done
    done;
    quit_close fd;
    Atomic.incr writers_done;
    !ok
  in
  let b_doms = Array.init 2 (fun d -> Domain.spawn (fun () -> phase_b d)) in
  (* fold the frozen view while both writers hammer the same keys
     through the server *)
  let view_tid = workers in
  (* map values carry the store's item header (flags/expiry/cas); the
     client data is the tail *)
  let data_is (k, value) =
    let expect = "A" ^ string_of_int (int_of_string (String.sub k 3 3)) in
    let n = String.length expect in
    String.length value >= n && String.sub value (String.length value - n) n = expect
  in
  let folds = ref 0 and clean = ref true in
  while Atomic.get writers_done < 2 || !folds = 0 do
    let seen = Pstructs.Mhamt.View.fold v ~tid:view_tid (fun acc k value -> (k, value) :: acc) [] in
    if List.length seen <> keys || not (List.for_all data_is seen) then clean := false;
    incr folds
  done;
  let b_ok = Array.for_all Fun.id (Array.map Domain.join b_doms) in
  Alcotest.(check bool) "phase B fully acked" true b_ok;
  Alcotest.(check bool) "view folds ran during the writes" true (!folds > 0);
  Alcotest.(check bool) "every fold saw exactly the pre-snapshot state" true !clean;
  Pstructs.Mhamt.release map v ~tid:view_tid;
  (* current state moved on: read one key back over the wire *)
  let fd = connect port in
  send fd (Printf.sprintf "get %s\r\n" (key 0));
  let reply = recv_until fd "END\r\n" in
  quit_close fd;
  Alcotest.(check bool) "current value is a phase-B write" true (contains reply "B");
  let d = Netserve.shutdown t in
  Alcotest.(check int) "graceful drain" 0 d.Netserve.forced_closes;
  E.stop_background esys;
  (* power failure; the recovered map serves acked values over a fresh
     server *)
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:ecfg region in
  let map2 = Pstructs.Mhamt.recover esys2 payloads in
  Alcotest.(check int) "all keys recovered" keys (Pstructs.Mhamt.size map2);
  let store2 = Kvstore.Store.create (Kvstore.Store.of_mhamt map2) in
  let t2 =
    Netserve.start
      ~config:{ Netserve.default_config with port = 0; workers; tick_s = 0.01 }
      ~sync:(fun ~tid -> E.sync esys2 ~tid)
      ~persisted_epoch:(fun () -> E.persisted_epoch esys2)
      store2
  in
  let fd = connect (Netserve.port t2) in
  send fd (Printf.sprintf "get %s\r\n" (key 5));
  let reply = recv_until fd "END\r\n" in
  quit_close fd;
  Alcotest.(check bool) "recovered value served over the wire" true (contains reply "B");
  ignore (Netserve.shutdown t2);
  E.stop_background esys2

(* ---- reply-unit framing ---- *)

(* recv_unit ends a unit where the reply decoder does, not at the first
   END-looking bytes: a VALUE whose data is "END\r\n" is one unit with
   its real END, a bare SERVER_ERROR line is a unit of its own, and a
   reply longer than one read arrives whole *)
let test_recv_unit_framing () =
  let a, b = Unix.(socketpair PF_UNIX SOCK_STREAM 0) in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      Unix.setsockopt_float b SO_RCVTIMEO 5.0;
      let tricky = "VALUE k 0 5\r\nEND\r\n\r\nEND\r\n" in
      let down = "SERVER_ERROR shard down\r\n" in
      let data = String.concat "" (List.init 2000 (fun _ -> "END\r\n")) in
      let big = Printf.sprintf "VALUE big 0 %d\r\n%s\r\nEND\r\n" (String.length data) data in
      send a (tricky ^ down ^ big ^ down);
      Alcotest.(check string) "value holding END\\r\\n is one unit" tricky (recv_unit b);
      Alcotest.(check string) "shard down is one unit" down (recv_unit b);
      Alcotest.(check string) "a unit longer than one read" big (recv_unit b);
      Alcotest.(check string) "next unit left in the socket" down (recv_unit b))

(* ---- shutdown is idempotent and syncs once ---- *)

let test_shutdown_idempotent () =
  let region, esys, t = start_montage ~workers:2 () in
  let fd = connect (Netserve.port t) in
  send fd "set k 0 0 1\r\nv\r\n";
  Alcotest.(check string) "stored" "STORED\r\n" (recv_exact fd 8);
  quit_close fd;
  let d1 = Netserve.shutdown t in
  let d2 = Netserve.shutdown t in
  Alcotest.(check bool) "second shutdown returns the first drain" true (d1 = d2);
  E.stop_background esys;
  ignore region

let () =
  Alcotest.run "netserve"
    [
      ( "loopback",
        [
          Alcotest.test_case "concurrent pipelined clients" `Quick test_concurrent_pipelined_clients;
          Alcotest.test_case "stats over the wire" `Quick test_stats_over_wire;
          Alcotest.test_case "size caps over the wire" `Quick test_caps_over_wire;
          Alcotest.test_case "loadgen closed loop (4 workers)" `Quick test_loadgen_throughput;
        ] );
      ( "backends",
        [
          Alcotest.test_case "byte-dribbled pipeline replies exact" `Quick test_dribbled_session;
          Alcotest.test_case "16-byte reads: replies exact, close seen" `Quick test_short_reads;
          Alcotest.test_case "epoll: idle connections reaped" `Quick test_idle_reap;
          Alcotest.test_case "epoll: out_hwm backpressure keeps replies exact" `Quick
            test_out_hwm_backpressure;
          Alcotest.test_case "epoll: drain serves in-flight connections" `Quick
            test_drain_serves_inflight;
          Alcotest.test_case "epoll: refuses an fd it rejects, keeps serving" `Quick
            test_refused_fd;
        ] );
      ( "durability",
        [
          Alcotest.test_case "acked keys survive shutdown + crash (epoll poller)" `Quick
            test_acked_keys_survive_crash;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
        ] );
      ( "client",
        [ Alcotest.test_case "recv_unit frames by the reply decoder" `Quick test_recv_unit_framing ] );
      ( "mhamt backend",
        [
          Alcotest.test_case "snapshot isolation through the socket path" `Quick
            test_mhamt_snapshot_through_sockets;
        ] );
    ]
