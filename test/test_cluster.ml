(* Cluster-mode tests: the consistent-hash ring's stability and skew
   properties (qcheck), and the router end-to-end against in-process
   Netserve shards on ephemeral ports — routing parity, split
   multi-get reassembly, stats merge, shard-down error surface, and
   down → probe → rejoin. *)

module Ring = Cluster.Ring
module Router = Cluster.Router

(* ---- ring properties ---- *)

let key_gen = QCheck.Gen.(map (Printf.sprintf "key-%d") (int_bound 1_000_000))

let ids_gen =
  (* 3..8 distinct small shard ids *)
  QCheck.Gen.(
    int_range 3 8 >>= fun n ->
    map
      (fun salt -> List.init n (fun i -> (i * 7) + (salt mod 5)))
      (int_bound 1000))

let prop_removal_stability =
  QCheck.Test.make ~count:200 ~name:"ring: removal only moves the dead shard's keys"
    QCheck.(
      make
        Gen.(
          pair ids_gen (list_size (int_range 1 100) key_gen) >>= fun (ids, keys) ->
          map (fun pick -> (ids, keys, List.nth ids (pick mod List.length ids))) (int_bound 100)))
    (fun (ids, keys, dead) ->
      let r = Ring.create ids in
      let r' = Ring.remove r dead in
      List.for_all
        (fun k ->
          let before = Ring.lookup r k in
          if before = dead then
            (* must move, and to a surviving shard *)
            Ring.lookup r' k <> dead
          else Ring.lookup r' k = before)
        keys)

let prop_add_remove_inverse =
  QCheck.Test.make ~count:100 ~name:"ring: add undoes remove"
    QCheck.(
      make
        Gen.(
          pair ids_gen (list_size (int_range 1 50) key_gen) >>= fun (ids, keys) ->
          map (fun pick -> (ids, keys, List.nth ids (pick mod List.length ids))) (int_bound 100)))
    (fun (ids, keys, dead) ->
      let r = Ring.create ids in
      let r' = Ring.add (Ring.remove r dead) dead in
      List.for_all (fun k -> Ring.lookup r k = Ring.lookup r' k) keys)

(* Distribution skew at the default vnode count: with 128 points per
   shard the per-shard share of a large uniform keyspace stays well
   inside [0.4x, 2x] of ideal.  Deterministic keys, so no flake. *)
let test_skew_bound () =
  let shards = 8 in
  let keys = 20_000 in
  let r = Ring.create (List.init shards (fun i -> i)) in
  let counts = Array.make shards 0 in
  for i = 0 to keys - 1 do
    let s = Ring.lookup r (Printf.sprintf "user:%d:profile" i) in
    counts.(s) <- counts.(s) + 1
  done;
  let ideal = float_of_int keys /. float_of_int shards in
  Array.iteri
    (fun s c ->
      let share = float_of_int c /. ideal in
      if share > 2.0 || share < 0.4 then
        Alcotest.failf "shard %d share %.2fx ideal (counts %s)" s share
          (String.concat "," (Array.to_list (Array.map string_of_int counts))))
    counts

(* The FNV-1a the ring always used, one boxed step per byte: shard heap
   images depend on key placement, so the in-place loop must hash every
   key to the same value. *)
let fnv1a_reference s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let prop_fnv_reference =
  QCheck.Test.make ~count:1000 ~name:"fnv1a_64 = String.iter reference"
    QCheck.(string_gen_of_size Gen.(int_range 0 64) Gen.char)
    (fun k -> Int64.equal (Ring.fnv1a_64 k) (fnv1a_reference k))

let test_fnv_known () =
  (* published FNV-1a 64 test vectors *)
  List.iter
    (fun (s, h) -> Alcotest.(check int64) (Printf.sprintf "fnv1a_64 %S" s) h (Ring.fnv1a_64 s))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ]

let test_lookup_alloc () =
  let r = Ring.create [ 0; 1 ] in
  let keys = Array.init 1000 (Printf.sprintf "key:%019d") in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to Array.length keys - 1 do
    sum := !sum + Ring.lookup r keys.(i)
  done;
  let per = (Gc.minor_words () -. before) /. 1000.0 in
  Alcotest.(check bool) "both shards own keys" true (!sum > 0 && !sum < 1000);
  if per > 3.0 then Alcotest.failf "%.1f minor words per lookup, bound 3" per

let test_lookup_deterministic () =
  let r = Ring.create [ 0; 1; 2 ] in
  let r2 = Ring.create [ 2; 0; 1 ] in
  for i = 0 to 99 do
    let k = Printf.sprintf "k%d" i in
    Alcotest.(check int) "id-order independent" (Ring.lookup r k) (Ring.lookup r2 k)
  done;
  Alcotest.(check (list int)) "shards sorted" [ 0; 1; 2 ] (Ring.shards r2)

(* ---- router end-to-end over in-process shards ---- *)

let make_shard_store () =
  let m = Baselines.Transient_map.create ~buckets:64 Baselines.Transient_map.Dram in
  Kvstore.Store.create (Kvstore.Store.of_transient_map m)

let start_shard_with ?(port = 0) ?(config = fun c -> c) () =
  Netserve.start
    ~config:(config { Netserve.default_config with port; workers = 1; tick_s = 0.01 })
    (make_shard_store ())

let start_shard ?port () = start_shard_with ?port ()

(* connect, send, recv_exact, recv_until, recv_all *)
open Netserve.Client

let contains = Substring.contains

let router_config =
  {
    Router.default_config with
    port = 0;
    tick_s = 0.01;
    probe_interval_s = 0.05;
    connect_timeout_s = 2.0;
  }

(* an [n]-shard router (1 by default) whose caps match its shards' *)
let start_routed ?(n = 1) ?(config = fun c -> c) () =
  let shards = List.init n (fun _ -> start_shard_with ~config ()) in
  let caps = config Netserve.default_config in
  let r =
    Router.start
      ~config:
        {
          router_config with
          Router.max_line = caps.Netserve.max_line;
          max_value = caps.Netserve.max_value;
        }
      (List.mapi
         (fun sid shard -> { Router.sid; shost = "127.0.0.1"; sport = Netserve.port shard })
         shards)
  in
  if not (Router.wait_up r ~timeout_s:10.0) then Alcotest.fail "shards did not join";
  (shards, r)

(* 3 shards + router; hand the body the router, its ring, and the shard
   handles (so tests can kill/restart them); always torn down. *)
let with_cluster body =
  let shards, r = start_routed ~n:3 () in
  let shards = Array.of_list shards in
  let ring = Ring.create ~vnodes:router_config.vnodes [ 0; 1; 2 ] in
  Fun.protect
    ~finally:(fun () ->
      Router.stop r;
      Array.iter (fun t -> try ignore (Netserve.shutdown t) with _ -> ()) shards)
    (fun () -> body r ring shards)

(* some keys owned by each shard, under the router's own ring *)
let keys_on ring sid n = Ring.keys_on ring sid ~prefix:"k-" n

let test_route_parity () =
  with_cluster (fun r _ring _shards ->
      let fd = connect (Router.port r) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (* storage, retrieval, delete, arithmetic through the router *)
          send fd "set alpha 7 0 5\r\nhello\r\n";
          Alcotest.(check string) "set" "STORED\r\n" (recv_exact fd 8);
          send fd "get alpha\r\n";
          Alcotest.(check string) "get" "VALUE alpha 7 5\r\nhello\r\nEND\r\n"
            (recv_exact fd 29);
          send fd "set ctr 0 0 1\r\n5\r\n";
          ignore (recv_exact fd 8);
          send fd "incr ctr 3\r\n";
          Alcotest.(check string) "incr" "8\r\n" (recv_exact fd 3);
          send fd "decr ctr 10\r\n";
          Alcotest.(check string) "decr floors" "0\r\n" (recv_exact fd 3);
          send fd "delete alpha\r\n";
          Alcotest.(check string) "delete" "DELETED\r\n" (recv_exact fd 9);
          send fd "get alpha\r\n";
          Alcotest.(check string) "deleted" "END\r\n" (recv_exact fd 5);
          send fd "add alpha 0 0 1\r\nx\r\n";
          Alcotest.(check string) "add" "STORED\r\n" (recv_exact fd 8);
          send fd "add alpha 0 0 1\r\ny\r\n";
          Alcotest.(check string) "add existing" "NOT_STORED\r\n" (recv_exact fd 12);
          send fd "version\r\n";
          Alcotest.(check bool) "router version" true
            (contains (recv_until fd "\r\n") "VERSION")))

let test_pipelined_keys_across_shards () =
  with_cluster (fun r ring _shards ->
      (* make sure the keyspace really spans all three shards *)
      let keys = List.init 30 (fun i -> Printf.sprintf "k-%d" (i * 7)) in
      let owners =
        List.sort_uniq compare
          (List.map (Ring.lookup ring) (List.init 300 (Printf.sprintf "k-%d")))
      in
      Alcotest.(check (list int)) "keyspace spans all shards" [ 0; 1; 2 ] owners;
      let fd = connect (Router.port r) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (* pipeline all the sets in one write; replies come back in order *)
          let b = Buffer.create 1024 in
          List.iter
            (fun k -> Buffer.add_string b (Printf.sprintf "set %s 0 0 2\r\nv%c\r\n" k k.[2]))
            keys;
          send fd (Buffer.contents b);
          let want = String.concat "" (List.map (fun _ -> "STORED\r\n") keys) in
          Alcotest.(check string) "30 pipelined STOREDs" want
            (recv_exact fd (String.length want));
          (* read each back individually *)
          List.iter
            (fun k ->
              send fd (Printf.sprintf "get %s\r\n" k);
              let got = recv_until fd "END\r\n" in
              Alcotest.(check bool) (k ^ " served") true (contains got ("VALUE " ^ k)))
            keys))

let test_multiget_reassembly () =
  with_cluster (fun r ring _shards ->
      let keys = List.init 20 (Printf.sprintf "k-%d") in
      let fd = connect (Router.port r) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          List.iter
            (fun k ->
              send fd (Printf.sprintf "set %s 0 0 3\r\nval\r\n" k);
              ignore (recv_exact fd 8))
            keys;
          (* one multi-get spanning all shards: exactly one END, every
             key present exactly once *)
          send fd (Printf.sprintf "get %s missing-key\r\n" (String.concat " " keys));
          let got = recv_until fd "END\r\n" in
          List.iter
            (fun k ->
              Alcotest.(check bool) (k ^ " in multiget") true
                (contains got (Printf.sprintf "VALUE %s 0 3\r\nval\r\n" k)))
            keys;
          Alcotest.(check bool) "miss omitted" false (contains got "missing-key");
          let ends =
            List.length
              (List.filter
                 (fun l -> l = "END")
                 (String.split_on_char '\r' (String.concat "" (String.split_on_char '\n' got))))
          in
          Alcotest.(check int) "single END" 1 ends;
          ignore ring))

let test_stats_merge () =
  with_cluster (fun r _ring _shards ->
      let fd = connect (Router.port r) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send fd "set s1 0 0 1\r\nx\r\n";
          ignore (recv_exact fd 8);
          send fd "stats\r\n";
          let got = recv_until fd "END\r\n" in
          Alcotest.(check bool) "cluster_shards" true (contains got "STAT cluster_shards 3");
          Alcotest.(check bool) "cluster_up" true (contains got "STAT cluster_up 3");
          Alcotest.(check bool) "per-shard state" true (contains got "STAT shard0_state up");
          (* threads sums across the three 1-worker shards *)
          Alcotest.(check bool) "numeric sum" true (contains got "STAT threads 3")))

let test_shard_down_and_rejoin () =
  with_cluster (fun r ring shards ->
      let victim = 1 in
      let vkeys = keys_on ring victim 3 in
      let skeys = keys_on ring 0 3 @ keys_on ring 2 3 in
      let fd = connect (Router.port r) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          List.iter
            (fun k ->
              send fd (Printf.sprintf "set %s 0 0 1\r\nv\r\n" k);
              Alcotest.(check string) (k ^ " stored") "STORED\r\n" (recv_exact fd 8))
            (vkeys @ skeys);
          (* take the victim down (graceful here; SIGKILL in clustersmoke) *)
          let vport = Netserve.port shards.(victim) in
          ignore (Netserve.shutdown shards.(victim));
          (* the victim's keyspace errors; survivors keep serving.  The
             router may need one failed request to notice the close. *)
          let saw_down = ref false in
          let attempts = ref 0 in
          while (not !saw_down) && !attempts < 100 do
            incr attempts;
            send fd (Printf.sprintf "get %s\r\n" (List.hd vkeys));
            let got = recv_until fd "\r\n" in
            if contains got "SERVER_ERROR shard down" then saw_down := true
            else Unix.sleepf 0.02
          done;
          Alcotest.(check bool) "victim keyspace answers shard down" true !saw_down;
          List.iter
            (fun k ->
              send fd (Printf.sprintf "get %s\r\n" k);
              let got = recv_until fd "END\r\n" in
              Alcotest.(check bool) (k ^ " survives") true (contains got ("VALUE " ^ k)))
            skeys;
          (* stats reflect the outage *)
          send fd "stats\r\n";
          let got = recv_until fd "END\r\n" in
          Alcotest.(check bool) "cluster_up 2" true (contains got "STAT cluster_up 2");
          Alcotest.(check bool) "victim marked down" true
            (contains got (Printf.sprintf "STAT shard%d_state down" victim));
          (* restart on the same port; the probe rejoins it *)
          shards.(victim) <- start_shard ~port:vport ();
          Alcotest.(check bool) "rejoin converges 3/3" true (Router.wait_up r ~timeout_s:10.0);
          (* its keyspace serves again (fresh store here — durability
             across the restart is clustersmoke's heap-file assertion) *)
          send fd (Printf.sprintf "set %s 0 0 1\r\nw\r\n" (List.hd vkeys));
          Alcotest.(check string) "victim keyspace writable again" "STORED\r\n"
            (recv_exact fd 8);
          let st = Router.stats r in
          Alcotest.(check bool) "down transition counted" true (st.Router.downs >= 1);
          Alcotest.(check bool) "rejoin counted" true (st.Router.rejoins >= 4)))

let test_down_before_start () =
  (* router started against ports nobody listens on: every request for
     any keyspace answers shard down, and the router survives *)
  let dead = [ { Router.sid = 0; shost = "127.0.0.1"; sport = 1 } ] in
  let r = Router.start ~config:router_config dead in
  Fun.protect
    ~finally:(fun () -> Router.stop r)
    (fun () ->
      let fd = connect (Router.port r) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send fd "get anything\r\n";
          Alcotest.(check bool) "shard down" true
            (contains (recv_until fd "\r\n") "SERVER_ERROR shard down");
          send fd "set k 0 0 1\r\nv\r\n";
          Alcotest.(check bool) "storage shard down" true
            (contains (recv_until fd "\r\n") "SERVER_ERROR shard down")))

(* ---- router vs direct shard: byte-identical replies ----

   The router frames requests with the shards' own framer, so apart
   from [version], the merged [stats] and [SERVER_ERROR shard down] a
   client cannot tell a router from one shard holding every key.  Each
   script runs twice — against a shard directly and through a router in
   front of identical shards — and every client's reply bytes must
   match. *)

(* read whatever arrives until the connection stays quiet for [quiet] s *)
let drain_quiet ?(quiet = 0.05) fd acc =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO quiet;
  Buffer.add_string acc (recv_all fd)

(* [script]: (client index, bytes) steps, sent in order with a quiet
   read after each; the result is every client's reply transcript. *)
let run_script port script =
  let nclients = 1 + List.fold_left (fun m (c, _) -> max m c) 0 script in
  let fds = Array.init nclients (fun _ -> connect port) in
  let acc = Array.init nclients (fun _ -> Buffer.create 256) in
  List.iter
    (fun (c, bytes) ->
      (try send fds.(c) bytes with Unix.Unix_error _ -> ());
      drain_quiet fds.(c) acc.(c))
    script;
  Array.iteri (fun c fd -> drain_quiet ~quiet:0.2 fd acc.(c)) fds;
  Array.iter Unix.close fds;
  Array.to_list (Array.map Buffer.contents acc)

(* Requests a router framing them differently from its shards gets
   wrong: a malformed storage line whose announced block the shard does
   not read (and then executes as commands — here the next client's
   request), an upper-case verb, a block past the value cap, a line
   past the line cap arriving without its end, a bad flush_all delay. *)
let divergences =
  let big = 2 * 1024 * 1024 in
  [
    ( "request smuggling across clients",
      [
        (0, "set a 0 0 13 junk\r\nset zz 0 0 24\r\n");
        (1, "set secret 0 0 6\r\nhunter\r\n");
        (1, "get secret\r\n");
        (0, "get zz\r\n");
        (1, "get zz\r\n");
      ] );
    ("set with a stray argument", [ (0, "set k 0 0 5 junk\r\nhello\r\nget k\r\n") ]);
    ("cas without its unique", [ (0, "cas k 0 0 5\r\nhello\r\nget k\r\n") ]);
    ("upper-case verb", [ (0, "set k 0 0 1\r\nv\r\nGET k\r\n") ]);
    ( "2 MB set",
      [ (0, Printf.sprintf "set big 0 0 %d\r\n%s\r\nget big\r\n" big (String.make big 'x')) ] );
    ("over-long line", [ (0, "get " ^ String.make 9000 'x'); (0, "\r\nget k\r\n") ]);
    ("flush_all with a bad delay", [ (0, "flush_all abc\r\nget k\r\n") ]);
  ]

let test_divergence ?n script () =
  let direct = start_shard () in
  let shards, r = start_routed ?n () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop r;
      List.iter (fun t -> ignore (Netserve.shutdown t)) (direct :: shards))
    (fun () ->
      let want = run_script (Netserve.port direct) script in
      let got = run_script (Router.port r) script in
      List.iteri
        (fun c (w, g) -> Alcotest.(check string) (Printf.sprintf "client %d replies" c) w g)
        (List.combine want got);
      Alcotest.(check int) "no shard marked down" 0 (Router.stats r).Router.downs)

(* A get split over two shards: [a] and [c] live on shard 0, [b] on
   shard 1, so the parts come back grouped per shard; the router must
   still emit the VALUE blocks in request order, repeats and misses
   included, exactly as one shard holding all three keys does. *)
let split_get_script =
  let ring = Ring.create ~vnodes:router_config.vnodes [ 0; 1 ] in
  match (keys_on ring 0 2, keys_on ring 1 1) with
  | [ a; c ], [ b ] ->
      [
        ( 0,
          String.concat ""
            (List.map
               (fun k -> Printf.sprintf "set %s 0 0 %d\r\n%s\r\n" k (String.length k) k)
               [ a; b; c ]) );
        (0, Printf.sprintf "get %s %s %s\r\n" a b c);
        (0, Printf.sprintf "get %s %s nokey %s %s %s %s\r\n" b a c b a b);
      ]
  | _ -> assert false

(* Replies pipelined behind a split get: while the split slot waits for
   both shards, the single-key replies queued after it arrive first and
   are held (copied); once a slot reaches the head of its client's queue
   its shard's reply is forwarded in place.  Both kinds must leave in
   request order, byte for byte as one shard sends them. *)
let pipelined_split_script =
  let ring = Ring.create ~vnodes:router_config.vnodes [ 0; 1 ] in
  match (keys_on ring 0 1, keys_on ring 1 1) with
  | [ a ], [ b ] ->
      let set k v = Printf.sprintf "set %s 0 0 %d\r\n%s\r\n" k (String.length v) v in
      [
        (0, set a "alpha" ^ set b "beta");
        ( 0,
          Printf.sprintf "get %s %s\r\nget %s\r\nget %s\r\n%sget %s %s\r\ndelete %s\r\nget %s\r\n" a b
            b a (set a "gamma") b a b b );
        (0, String.concat "" (List.init 20 (fun i -> if i mod 2 = 0 then "get " ^ a ^ "\r\n" else "get " ^ b ^ "\r\n")));
      ]
  | _ -> assert false

(* Random request streams: valid, malformed, oversized, mixed-case and
   bare-LF requests, each complete as the framer sees it, delivered in
   random splits and closed with [quit].  Caps are small so oversized
   input is cheap. *)
let small_caps c = { c with Netserve.max_line = 256; max_value = 4096 }

let request_gen =
  let open QCheck.Gen in
  let key = oneofl [ "a"; "b"; "K"; "k\nx"; "k\rx" ] in
  let verb v = oneofl [ v; String.uppercase_ascii v; String.capitalize_ascii v ] in
  let data n = string_size ~gen:(oneofl [ '0'; '7'; '9'; ' '; '\r'; '\n' ]) (return n) in
  let noreply = oneofl [ ""; " noreply" ] in
  let storage =
    verb "set" >>= fun v ->
    oneofl [ v; "add"; "replace"; "append"; "prepend" ] >>= fun v ->
    key >>= fun k ->
    int_range 0 12 >>= fun n ->
    noreply >>= fun nr ->
    data n >|= fun d -> Printf.sprintf "%s %s 3 0 %d%s\r\n%s\r\n" v k n nr d
  in
  let cas =
    key >>= fun k ->
    int_range 0 3 >>= fun u ->
    data 2 >|= fun d -> Printf.sprintf "cas %s 0 0 2 %d\r\n%s\r\n" k u d
  in
  let retrieval =
    oneofl [ "get"; "gets"; "GET"; "Gets" ] >>= fun v ->
    list_size (int_range 1 3) key >|= fun ks -> Printf.sprintf "%s %s\r\n" v (String.concat " " ks)
  in
  let simple =
    key >>= fun k ->
    oneofl
      [
        Printf.sprintf "delete %s\r\n" k;
        Printf.sprintf "DELETE %s noreply\r\n" k;
        Printf.sprintf "incr %s 5\r\n" k;
        Printf.sprintf "decr %s 2\r\n" k;
        Printf.sprintf "incr %s x\r\n" k;
        Printf.sprintf "touch %s 100\r\n" k;
        "flush_all\r\n";
        "flush_all 0 noreply\r\n";
        "flush_all abc\r\n";
        "verbosity 1\r\n";
        "verbosity 1 noreply\r\n";
      ]
  in
  let malformed =
    key >>= fun k ->
    data 5 >>= fun d ->
    oneofl
      [
        Printf.sprintf "set %s 0 0 5 junk\r\n%s\r\n" k d;
        Printf.sprintf "cas %s 0 0 5\r\n%s\r\n" k d;
        Printf.sprintf "set %s\r\n" k;
        Printf.sprintf "set %s 0 0 3\r\n%sXY" k (String.sub d 0 3);
        "frobnicate\r\n";
        "\r\n";
        "get\r\n";
        "delete\r\n";
        Printf.sprintf "get %s\nget b\r\n" k;
        Printf.sprintf "set %s\nx 0 0 1\r\nv\r\n" k;
      ]
  in
  let oversized =
    oneofl [ ""; " noreply" ] >>= fun nr ->
    oneofl
      [
        Printf.sprintf "set big 0 0 5000%s\r\n%s\r\n" nr (String.make 5000 'z');
        "get " ^ String.make 300 'y' ^ "\r\n";
      ]
  in
  frequency
    [ (4, storage); (1, cas); (3, retrieval); (3, simple); (3, malformed); (1, oversized) ]

(* a stream plus the cut points that split it into writes *)
let stream_arb =
  let open QCheck.Gen in
  let gen =
    list_size (int_range 1 12) request_gen >>= fun reqs ->
    let stream = String.concat "" reqs ^ "quit\r\n" in
    list_size (int_range 0 6) (int_bound (String.length stream)) >|= fun cuts ->
    (stream, List.sort_uniq compare cuts)
  in
  QCheck.make ~print:(fun (s, cuts) ->
      Printf.sprintf "%S cut at [%s]" s (String.concat ";" (List.map string_of_int cuts)))
    gen

(* send [stream] in the given pieces, read to EOF (quit closes) *)
let session port (stream, cuts) =
  let fd = connect port in
  let bounds = (0 :: cuts) @ [ String.length stream ] in
  let rec pieces = function
    | a :: (b :: _ as rest) ->
        if b > a then send fd (String.sub stream a (b - a));
        pieces rest
    | _ -> ()
  in
  pieces bounds;
  let got = Buffer.create 1024 in
  drain_quiet ~quiet:5.0 fd got;
  Unix.close fd;
  Buffer.contents got

let test_differential () =
  let direct = start_shard_with ~config:small_caps () in
  let shards, r = start_routed ~config:small_caps () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop r;
      List.iter (fun t -> ignore (Netserve.shutdown t)) (direct :: shards))
    (fun () ->
      let prop =
        QCheck.Test.make ~count:200 ~name:"router replies = direct shard replies" stream_arb (fun case ->
            let want = session (Netserve.port direct) case in
            let got = session (Router.port r) case in
            if want <> got then QCheck.Test.fail_reportf "direct %S\nrouted %S" want got;
            true)
      in
      QCheck.Test.check_exn prop;
      Alcotest.(check int) "no shard marked down" 0 (Router.stats r).Router.downs)

(* ---- supervisor ---- *)

(* an exited child is reaped and respawned by [tick], [on_exit] hears
   its status, and [shutdown] leaves no process behind *)
let test_supervisor_restart () =
  let sup = Cluster.Supervisor.create () in
  let child = Cluster.Supervisor.add sup ~name:"exit3" ~argv:[| "/bin/sh"; "-c"; "exit 3" |] in
  let seen = ref [] in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Cluster.Supervisor.restarts child < 1 && Unix.gettimeofday () < deadline do
    ignore (Cluster.Supervisor.tick sup ~on_exit:(fun name st -> seen := (name, st) :: !seen));
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "restarted" true (Cluster.Supervisor.restarts child >= 1);
  Alcotest.(check bool) "on_exit saw WEXITED 3" true (List.mem ("exit3", Unix.WEXITED 3) !seen);
  Cluster.Supervisor.set_restart child false;
  let last = Cluster.Supervisor.pid child in
  Alcotest.(check bool) "respawned child has a pid" true (last > 0);
  Cluster.Supervisor.shutdown sup;
  Alcotest.(check bool) "last child reaped" true
    (match Unix.kill last 0 with () -> false | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true)

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          QCheck_alcotest.to_alcotest prop_removal_stability;
          QCheck_alcotest.to_alcotest prop_add_remove_inverse;
          Alcotest.test_case "skew bound at default vnodes" `Quick test_skew_bound;
          Alcotest.test_case "lookup deterministic" `Quick test_lookup_deterministic;
          QCheck_alcotest.to_alcotest prop_fnv_reference;
          Alcotest.test_case "fnv1a_64 test vectors" `Quick test_fnv_known;
          Alcotest.test_case "lookup allocates at most 3 words" `Quick test_lookup_alloc;
        ] );
      ( "router",
        [
          Alcotest.test_case "route parity" `Quick test_route_parity;
          Alcotest.test_case "pipelined keys across shards" `Quick
            test_pipelined_keys_across_shards;
          Alcotest.test_case "multiget reassembly" `Quick test_multiget_reassembly;
          Alcotest.test_case "stats merge" `Quick test_stats_merge;
          Alcotest.test_case "shard down and rejoin" `Quick test_shard_down_and_rejoin;
          Alcotest.test_case "all shards down from birth" `Quick test_down_before_start;
          Alcotest.test_case "replies pipelined behind a split get" `Quick
            (test_divergence ~n:2 pipelined_split_script);
        ] );
      ( "child",
        [ Alcotest.test_case "supervisor restarts an exit, shutdown reaps" `Quick
            test_supervisor_restart ] );
      (* Router vs one shard, byte for byte. Group names stay at most six
         characters: Alcotest widens its label column to the longest one,
         which shortens every printed test name. *)
      ( "parity",
        List.map
          (fun (name, script) -> Alcotest.test_case name `Quick (test_divergence script))
          divergences
        @ [
            Alcotest.test_case "epoll: random streams byte-identical" `Quick test_differential;
            Alcotest.test_case "get split over 2 shards keeps key order" `Quick
              (test_divergence ~n:2 split_get_script);
          ] );
    ]
