(* Tests for the memcached text-protocol codec: command parsing, data
   blocks, pipelining, noreply, binary safety, and a full crash/recover
   session through the wire format. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config
module Store = Kvstore.Store
module P = Kvstore.Protocol

let testing_cfg = { Cfg.testing with max_threads = 4 }

let make_store () =
  let map = Baselines.Transient_map.create ~buckets:64 Baselines.Transient_map.Dram in
  Store.create (Store.of_transient_map map)

let make_conn ?max_line ?max_value () =
  P.create ?max_line ?max_value (make_store ()) ~tid:0

let feed_all c s = String.concat "" (P.feed c s)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let test_set_get_roundtrip () =
  let c = make_conn () in
  Alcotest.(check string) "set stored" "STORED\r\n" (feed_all c "set greeting 7 0 5\r\nhello\r\n");
  Alcotest.(check string) "get value" "VALUE greeting 7 5\r\nhello\r\nEND\r\n"
    (feed_all c "get greeting\r\n");
  Alcotest.(check string) "get miss" "END\r\n" (feed_all c "get nothing\r\n")

let test_multi_key_get () =
  let c = make_conn () in
  ignore (feed_all c "set a 0 0 1\r\nA\r\n");
  ignore (feed_all c "set b 0 0 1\r\nB\r\n");
  Alcotest.(check string) "both values, misses skipped"
    "VALUE a 0 1\r\nA\r\nVALUE b 0 1\r\nB\r\nEND\r\n"
    (feed_all c "get a missing b\r\n")

let test_add_replace_semantics () =
  let c = make_conn () in
  Alcotest.(check string) "add new" "STORED\r\n" (feed_all c "add k 0 0 2\r\nv1\r\n");
  Alcotest.(check string) "add existing" "NOT_STORED\r\n" (feed_all c "add k 0 0 2\r\nv2\r\n");
  Alcotest.(check string) "replace existing" "STORED\r\n" (feed_all c "replace k 0 0 2\r\nv3\r\n");
  Alcotest.(check string) "replace missing" "NOT_STORED\r\n" (feed_all c "replace nope 0 0 1\r\nx\r\n")

let test_append_prepend () =
  let c = make_conn () in
  ignore (feed_all c "set k 0 0 3\r\nmid\r\n");
  Alcotest.(check string) "append" "STORED\r\n" (feed_all c "append k 0 0 4\r\n-end\r\n");
  Alcotest.(check string) "prepend" "STORED\r\n" (feed_all c "prepend k 0 0 4\r\npre-\r\n");
  Alcotest.(check string) "combined" "VALUE k 0 11\r\npre-mid-end\r\nEND\r\n" (feed_all c "get k\r\n");
  Alcotest.(check string) "append missing" "NOT_STORED\r\n" (feed_all c "append nope 0 0 1\r\nx\r\n")

let test_delete () =
  let c = make_conn () in
  ignore (feed_all c "set k 0 0 1\r\nv\r\n");
  Alcotest.(check string) "delete" "DELETED\r\n" (feed_all c "delete k\r\n");
  Alcotest.(check string) "delete again" "NOT_FOUND\r\n" (feed_all c "delete k\r\n")

let test_incr_decr () =
  let c = make_conn () in
  ignore (feed_all c "set n 0 0 2\r\n10\r\n");
  Alcotest.(check string) "incr" "15\r\n" (feed_all c "incr n 5\r\n");
  Alcotest.(check string) "decr" "0\r\n" (feed_all c "decr n 100\r\n");
  Alcotest.(check string) "incr missing" "NOT_FOUND\r\n" (feed_all c "incr nope 1\r\n");
  Alcotest.(check string) "bad delta" "CLIENT_ERROR invalid numeric delta argument\r\n"
    (feed_all c "incr n abc\r\n")

let test_cas () =
  let c = make_conn () in
  ignore (feed_all c "set k 0 0 2\r\nv1\r\n");
  let reply = feed_all c "gets k\r\n" in
  (* extract the cas id from "VALUE k 0 2 <cas>" *)
  let cas = Scanf.sscanf reply "VALUE k 0 2 %d" (fun c -> c) in
  Alcotest.(check string) "cas match" "STORED\r\n"
    (feed_all c (Printf.sprintf "cas k 0 0 2 %d\r\nv2\r\n" cas));
  Alcotest.(check string) "cas stale" "EXISTS\r\n"
    (feed_all c (Printf.sprintf "cas k 0 0 2 %d\r\nv3\r\n" cas));
  Alcotest.(check string) "cas missing" "NOT_FOUND\r\n" (feed_all c "cas nope 0 0 1 7\r\nx\r\n")

let test_binary_safe_data () =
  let c = make_conn () in
  (* the value contains \r\n: length-delimited framing must handle it *)
  let payload = "a\r\nb\r\nc" in
  Alcotest.(check string) "stored" "STORED\r\n"
    (feed_all c (Printf.sprintf "set bin 0 0 %d\r\n%s\r\n" (String.length payload) payload));
  Alcotest.(check string) "read back"
    (Printf.sprintf "VALUE bin 0 %d\r\n%s\r\nEND\r\n" (String.length payload) payload)
    (feed_all c "get bin\r\n")

let test_chunked_arrival () =
  (* one command delivered byte-by-byte across many feeds *)
  let c = make_conn () in
  let input = "set slow 0 0 4\r\ndata\r\nget slow\r\n" in
  let replies = ref [] in
  String.iter (fun ch -> replies := !replies @ P.feed c (String.make 1 ch)) input;
  Alcotest.(check string) "both replies, correct order" "STORED\r\nVALUE slow 0 4\r\ndata\r\nEND\r\n"
    (String.concat "" !replies)

let test_pipelining () =
  let c = make_conn () in
  let replies =
    P.feed c "set a 0 0 1\r\nX\r\nset b 0 0 1\r\nY\r\nget a b\r\ndelete a\r\n"
  in
  Alcotest.(check (list string)) "four replies in order"
    [ "STORED\r\n"; "STORED\r\n"; "VALUE a 0 1\r\nX\r\nVALUE b 0 1\r\nY\r\nEND\r\n"; "DELETED\r\n" ]
    replies

let test_noreply () =
  let c = make_conn () in
  Alcotest.(check (list string)) "silent set" [] (P.feed c "set k 0 0 1 noreply\r\nv\r\n");
  Alcotest.(check string) "it landed" "VALUE k 0 1\r\nv\r\nEND\r\n" (feed_all c "get k\r\n");
  Alcotest.(check (list string)) "silent delete" [] (P.feed c "delete k noreply\r\n");
  Alcotest.(check (list string)) "silent verbosity" [] (P.feed c "verbosity 1 noreply\r\n");
  Alcotest.(check string) "verbosity" "OK\r\n" (feed_all c "verbosity 1\r\n")

let test_errors () =
  let c = make_conn () in
  Alcotest.(check string) "unknown command" "ERROR\r\n" (feed_all c "frobnicate\r\n");
  Alcotest.(check string) "bad storage args" "CLIENT_ERROR bad command line format\r\n"
    (feed_all c "set onlykey\r\n");
  Alcotest.(check string) "bad data terminator" "CLIENT_ERROR bad data chunk\r\n"
    (feed_all c "set k 0 0 2\r\nvvX\r")

let test_quit_closes () =
  let c = make_conn () in
  Alcotest.(check (list string)) "no reply to quit" [] (P.feed c "quit\r\n");
  Alcotest.(check bool) "closed" true (P.is_closed c);
  Alcotest.(check (list string)) "ignores further input" [] (P.feed c "get k\r\n")

let test_stats_and_version () =
  let c = make_conn () in
  ignore (feed_all c "set k 0 0 1\r\nv\r\n");
  ignore (feed_all c "get k\r\n");
  ignore (feed_all c "get miss\r\n");
  let stats = feed_all c "stats\r\n" in
  Alcotest.(check bool) "hit counted" true (contains stats "STAT get_hits 1");
  Alcotest.(check bool) "miss counted" true (contains stats "STAT get_misses 1");
  Alcotest.(check bool) "version" true (contains (feed_all c "version\r\n") "VERSION")

let test_protocol_over_montage_with_crash () =
  (* a full wire-protocol session against the persistent store, across
     a crash: acknowledged (synced) data must answer identically *)
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 24) () in
  let esys = E.create ~config:testing_cfg region in
  let map = Pstructs.Mhashmap.create ~buckets:256 esys in
  let store = Store.create (Store.of_mhashmap map) in
  let c = P.create store ~tid:0 in
  ignore (feed_all c "set user:1 0 0 5\r\nalice\r\n");
  ignore (feed_all c "set hits 0 0 1\r\n0\r\n");
  ignore (feed_all c "incr hits 41\r\n");
  E.sync esys ~tid:0;
  ignore (feed_all c "set user:2 0 0 3\r\nbob\r\n");
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let map2 = Pstructs.Mhashmap.recover ~buckets:256 esys2 payloads in
  let store2 = Store.create (Store.of_mhashmap map2) in
  let c2 = P.create store2 ~tid:0 in
  Alcotest.(check string) "synced value over the wire" "VALUE user:1 0 5\r\nalice\r\nEND\r\n"
    (feed_all c2 "get user:1\r\n");
  Alcotest.(check string) "counter durable" "41\r\n" (feed_all c2 "incr hits 0\r\n");
  Alcotest.(check string) "unsynced lost" "END\r\n" (feed_all c2 "get user:2\r\n")

(* ---- every store backend ---- *)

let montage_esys () =
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 20) () in
  E.create ~config:testing_cfg region

let backends =
  [
    ("transient", make_store);
    ( "mhashmap",
      fun () -> Store.create (Store.of_mhashmap (Pstructs.Mhashmap.create ~buckets:64 (montage_esys ()))) );
    ("mhamt", fun () -> Store.create (Store.of_mhamt (Pstructs.Mhamt.create (montage_esys ()))));
  ]

let hit k v = Printf.sprintf "VALUE %s 0 %d\r\n%s\r\nEND\r\n" k (String.length v) v

(* memcached's exptime: 0 never, negative already expired, up to 30
   days relative seconds, above that an absolute Unix time — for every
   command that takes one. *)
let exptime_tests (name, mk) =
  let case label f = Alcotest.test_case (name ^ ": " ^ label) `Quick f in
  let t0 = 1_000_000_000.0 in
  let session () =
    let store = mk () in
    let now = ref t0 in
    Store.set_clock store (fun () -> !now);
    (P.create store ~tid:0, now)
  in
  let check = Alcotest.(check string) in
  [
    case "exptime: negative stores an expired item" (fun () ->
        let c, _ = session () in
        let gone k = check (k ^ " expired") "END\r\n" (feed_all c ("get " ^ k ^ "\r\n")) in
        check "set" "STORED\r\n" (feed_all c "set s 0 -1 1\r\nv\r\n");
        gone "s";
        check "add" "STORED\r\n" (feed_all c "add a 0 -1 1\r\nv\r\n");
        gone "a";
        ignore (feed_all c "set r 0 0 1\r\nv\r\nset p 0 0 1\r\nv\r\nset q 0 0 1\r\nv\r\n");
        check "replace" "STORED\r\n" (feed_all c "replace r 0 -1 1\r\nw\r\n");
        gone "r";
        check "append" "STORED\r\n" (feed_all c "append p 0 -5 1\r\nw\r\n");
        gone "p";
        check "prepend" "STORED\r\n" (feed_all c "prepend q 0 -5 1\r\nw\r\n");
        gone "q";
        ignore (feed_all c "set k 0 0 1\r\nv\r\n");
        let cas = Scanf.sscanf (feed_all c "gets k\r\n") "VALUE k 0 1 %d" Fun.id in
        check "cas" "STORED\r\n" (feed_all c (Printf.sprintf "cas k 0 -1 1 %d\r\nw\r\n" cas));
        gone "k";
        ignore (feed_all c "set t 0 0 1\r\nv\r\n");
        check "touch" "TOUCHED\r\n" (feed_all c "touch t -1\r\n");
        gone "t");
    case "exptime: up to 30 days is relative" (fun () ->
        let c, now = session () in
        ignore (feed_all c "set r 0 100 1\r\nv\r\nset m 0 2592000 1\r\nm\r\n");
        now := t0 +. 99.0;
        check "alive before" (hit "r" "v") (feed_all c "get r\r\n");
        now := t0 +. 101.0;
        check "dead after" "END\r\n" (feed_all c "get r\r\n");
        now := t0 +. 2_591_999.0;
        check "30 days is still relative" (hit "m" "m") (feed_all c "get m\r\n"));
    case "exptime: above 30 days is absolute" (fun () ->
        let c, now = session () in
        let at = int_of_float t0 + 50 in
        check "past absolute" "STORED\r\n" (feed_all c "set old 0 2592001 1\r\nv\r\n");
        check "already expired" "END\r\n" (feed_all c "get old\r\n");
        ignore (feed_all c (Printf.sprintf "set abs 0 %d 1\r\nv\r\n" at));
        ignore (feed_all c "set t 0 0 1\r\nv\r\n");
        check "touch absolute" "TOUCHED\r\n" (feed_all c (Printf.sprintf "touch t %d\r\n" at));
        now := t0 +. 49.0;
        check "alive before the time" (hit "abs" "v") (feed_all c "get abs\r\n");
        check "touched alive before the time" (hit "t" "v") (feed_all c "get t\r\n");
        now := t0 +. 51.0;
        check "dead after the time" "END\r\n" (feed_all c "get abs\r\n");
        check "touched dead after the time" "END\r\n" (feed_all c "get t\r\n"));
    case "touch keeps data, flags and cas" (fun () ->
        let c, now = session () in
        ignore (feed_all c "set k 5 0 3\r\nabc\r\n");
        let before = feed_all c "gets k\r\n" in
        check "touched" "TOUCHED\r\n" (feed_all c "touch k 10\r\n");
        check "same item" before (feed_all c "gets k\r\n");
        check "touch missing" "NOT_FOUND\r\n" (feed_all c "touch nope 10\r\n");
        now := t0 +. 11.0;
        check "new expiry applies" "END\r\n" (feed_all c "get k\r\n"));
  ]

(* ---- reply bytes: differential against a Printf renderer ----

   The get path writes its header digits and data straight into the
   reply buffer; this pins its bytes, reply by reply, to a reference
   that renders the same replies with [Printf].  Sessions of sets (nonzero flags, binary values holding
   \r\n, noreply) and multi-key get/gets with hits and misses run on
   every backend, fed whole and one byte at a time. *)

type dcmd = Dset of string * int * string * bool | Dget of bool * string list

let encode_dcmd = function
  | Dset (k, flags, v, noreply) ->
      Printf.sprintf "set %s %d 0 %d%s\r\n%s\r\n" k flags (String.length v)
        (if noreply then " noreply" else "")
        v
  | Dget (with_cas, keys) -> Printf.sprintf "%s %s\r\n" (if with_cas then "gets" else "get") (String.concat " " keys)

(* The replies a fresh store owes, one string per reply: cas ids count
   up from 1, one per set. *)
let reference_replies cmds =
  let model = Hashtbl.create 8 and next_cas = ref 1 in
  List.filter_map
    (function
      | Dset (k, flags, v, noreply) ->
          Hashtbl.replace model k (flags, v, !next_cas);
          incr next_cas;
          if noreply then None else Some "STORED\r\n"
      | Dget (with_cas, keys) ->
          let b = Buffer.create 64 in
          List.iter
            (fun k ->
              match Hashtbl.find_opt model k with
              | None -> ()
              | Some (flags, v, cas) ->
                  if with_cas then
                    Buffer.add_string b
                      (Printf.sprintf "VALUE %s %d %d %d\r\n" k flags (String.length v) cas)
                  else Buffer.add_string b (Printf.sprintf "VALUE %s %d %d\r\n" k flags (String.length v));
                  Buffer.add_string b v;
                  Buffer.add_string b "\r\n")
            keys;
          Buffer.add_string b "END\r\n";
          Some (Buffer.contents b))
    cmds

let prop_reply_bytes (name, mk) =
  let open QCheck in
  let key_gen = Gen.oneofl [ "a"; "bb"; "key:3"; "user0000000000000000042" ] in
  let value_gen =
    Gen.(
      frequency
        [
          (4, string_size ~gen:(oneofl [ '\r'; '\n'; 'E'; 'N'; 'D'; ' '; '\000'; 'x' ]) (int_range 0 24));
          (1, string_size ~gen:printable (int_range 1000 1500));
        ])
  in
  let cmd_gen =
    Gen.(
      frequency
        [
          ( 3,
            let* k = key_gen
            and* flags = oneofl [ 0; 1; 42; 65535; 2147483647 ]
            and* v = value_gen
            and* noreply = bool in
            return (Dset (k, flags, v, noreply)) );
          ( 2,
            let* with_cas = bool and* keys = list_size (int_range 1 4) (oneof [ key_gen; return "miss" ]) in
            return (Dget (with_cas, keys)) );
        ])
  in
  let arb =
    make
      Gen.(list_size (int_range 1 10) cmd_gen)
      ~print:(fun cmds -> String.concat "" (List.map encode_dcmd cmds))
  in
  QCheck.Test.make ~count:60 ~name:(name ^ ": get/set reply bytes match the Printf renderer") arb
    (fun cmds ->
      let input = String.concat "" (List.map encode_dcmd cmds) in
      let want = reference_replies cmds in
      let whole = P.feed (P.create (mk ()) ~tid:0) input in
      let c = P.create (mk ()) ~tid:0 in
      let dripped = List.init (String.length input) (fun i -> P.feed c (String.make 1 input.[i])) in
      whole = want && String.concat "" (List.concat dripped) = String.concat "" want)

(* The kv_local benchmark's shape as a test: one client sends YCSB-A
   (zipfian gets and sets of 1 KiB values) through [feed] while the
   background advancer runs; then sync, crash, recover, and every acked
   set must be there.  On failure each bad key is printed with what
   recovery returned (nothing, an older acked value, or a value never
   acked), the epoch of the payload it recovered from, and the clock at
   the sync and at the crash. *)
let test_ycsb_durability () =
  let cfg = { testing_cfg with max_threads = 2; auto_advance = true; epoch_length_ns = 1_000_000 } in
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:5 ~capacity:(1 lsl 24) () in
  let esys = E.create ~config:cfg region in
  let c = P.create (Store.create (Store.of_mhashmap (Pstructs.Mhashmap.create ~buckets:1024 esys))) ~tid:0 in
  let wl = Kvstore.Ycsb.create (Kvstore.Ycsb.workload_a ~records:1000 ~value_size:1024 ()) in
  let rng = Util.Xoshiro.create 11 in
  let model = Hashtbl.create 1000 and acked = Hashtbl.create 4096 in
  let failed = ref 0 in
  let set k v =
    if P.feed c (Printf.sprintf "set %s 0 0 %d\r\n%s\r\n" k (String.length v) v) = [ "STORED\r\n" ] then begin
      Hashtbl.replace model k v;
      Hashtbl.replace acked (k, Hashtbl.hash v) ()
    end
    else incr failed
  in
  Kvstore.Ycsb.load wl ~set rng;
  let stop = Unix.gettimeofday () +. 0.75 in
  while Unix.gettimeofday () < stop do
    match Kvstore.Ycsb.next wl rng with
    | Kvstore.Ycsb.Read k -> if P.feed c ("get " ^ k ^ "\r\n") <> [ hit k (Hashtbl.find model k) ] then incr failed
    | Kvstore.Ycsb.Update (k, v) -> set k v
    | Kvstore.Ycsb.Insert _ | Kvstore.Ycsb.Rmw _ -> ()
  done;
  Alcotest.(check int) "every request answered as expected" 0 !failed;
  E.sync esys ~tid:0;
  let at_sync = E.current_epoch esys in
  E.stop_background esys;
  let at_crash = E.current_epoch esys in
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:{ cfg with auto_advance = false } region in
  let epoch_of = Hashtbl.create 1000 in
  Array.iter (fun (p : E.pblk) -> Hashtbl.replace epoch_of (Montage.Payload.Kv.key_unsafe esys2 p) p.epoch) payloads;
  let store2 = Store.create (Store.of_mhashmap (Pstructs.Mhashmap.recover esys2 payloads)) in
  let bad =
    Hashtbl.fold
      (fun k v bad ->
        match Store.get store2 ~tid:0 k with
        | Some v' when v' = v -> bad
        | got ->
            let what =
              match got with
              | None -> "nothing"
              | Some v' when Hashtbl.mem acked (k, Hashtbl.hash v') -> "an older acked value"
              | Some _ -> "a value never acked"
            in
            let epoch =
              match Hashtbl.find_opt epoch_of k with Some e -> string_of_int e | None -> "-"
            in
            Printf.sprintf "%s: recovered %s (payload epoch %s)" k what epoch :: bad)
      model []
  in
  if bad <> [] then
    Alcotest.failf "%d acked set(s) lost after sync (epoch at sync %d, at crash %d):\n%s"
      (List.length bad) at_sync at_crash (String.concat "\n" bad)

(* ---- flush_all ---- *)

let test_flush_all_wipes () =
  let c = make_conn () in
  ignore (feed_all c "set a 0 0 1\r\nA\r\nset b 0 0 1\r\nB\r\n");
  Alcotest.(check string) "flush acked" "OK\r\n" (feed_all c "flush_all\r\n");
  Alcotest.(check string) "everything gone" "END\r\n" (feed_all c "get a b\r\n");
  Alcotest.(check string) "later set lands" "STORED\r\n" (feed_all c "set c 0 0 1\r\nC\r\n");
  Alcotest.(check string) "and is visible" "VALUE c 0 1\r\nC\r\nEND\r\n" (feed_all c "get c\r\n");
  Alcotest.(check string) "conditional ops see the wipe" "NOT_STORED\r\n"
    (feed_all c "replace a 0 0 1\r\nX\r\n")

let test_flush_all_delay () =
  let store = make_store () in
  let now = ref 1000.0 in
  Store.set_clock store (fun () -> !now);
  let c = P.create store ~tid:0 in
  ignore (feed_all c "set k 0 0 1\r\nv\r\n");
  Alcotest.(check string) "delayed flush acked" "OK\r\n" (feed_all c "flush_all 30\r\n");
  Alcotest.(check string) "still visible before the deadline" "VALUE k 0 1\r\nv\r\nEND\r\n"
    (feed_all c "get k\r\n");
  now := 1031.0;
  Alcotest.(check string) "gone after the deadline" "END\r\n" (feed_all c "get k\r\n");
  let _, _, _, _, expired = Store.stats store in
  Alcotest.(check int) "lazy reap counted as expired" 1 expired;
  Alcotest.(check string) "bad delay rejected" "CLIENT_ERROR invalid delay argument\r\n"
    (feed_all c "flush_all -3\r\n")

let test_flush_all_noreply () =
  let c = make_conn () in
  ignore (feed_all c "set a 0 0 1\r\nA\r\n");
  Alcotest.(check (list string)) "silent flush" [] (P.feed c "flush_all noreply\r\n");
  Alcotest.(check string) "it happened" "END\r\n" (feed_all c "get a\r\n")

(* ---- size caps ---- *)

let test_line_cap () =
  let c = make_conn ~max_line:64 () in
  let long_key = String.make 200 'k' in
  Alcotest.(check string) "oversized line rejected" "CLIENT_ERROR line too long\r\n"
    (feed_all c (Printf.sprintf "get %s\r\n" long_key));
  Alcotest.(check string) "stream resyncs on the next command" "END\r\n" (feed_all c "get a\r\n")

let test_line_cap_streaming () =
  (* the oversized line arrives in drips: the error must fire once the
     cap is provably blown (bounded buffering), and the skip state must
     swallow the rest of the line without touching later commands *)
  let c = make_conn ~max_line:32 () in
  let replies = ref [] in
  let push s = replies := !replies @ P.feed c s in
  String.iter (fun ch -> push (String.make 1 ch)) ("get " ^ String.make 100 'x');
  Alcotest.(check string) "error emitted mid-line, before the terminator"
    "CLIENT_ERROR line too long\r\n" (String.concat "" !replies);
  replies := [];
  push "xxx\r\n";
  Alcotest.(check string) "tail of the long line swallowed silently" "" (String.concat "" !replies);
  Alcotest.(check string) "next command parses" "END\r\n" (feed_all c "get a\r\n")

let test_value_cap () =
  let c = make_conn ~max_value:16 () in
  Alcotest.(check string) "oversized block refused"
    "CLIENT_ERROR object too large for cache\r\n"
    (feed_all c (Printf.sprintf "set big 0 0 64\r\n%s\r\n" (String.make 64 'v')));
  Alcotest.(check string) "block drained, stream intact" "END\r\n" (feed_all c "get big\r\n");
  Alcotest.(check string) "small values still fine" "STORED\r\n" (feed_all c "set s 0 0 4\r\nokay\r\n");
  (* the bytes left to drop (block plus \r\n) saturate at max_int
     instead of wrapping negative and moving the frame backwards *)
  List.iter
    (fun bytes ->
      Alcotest.(check string) (Printf.sprintf "%d-byte block refused, the rest dropped" bytes)
        "CLIENT_ERROR object too large for cache\r\n"
        (feed_all (make_conn ~max_value:16 ()) (Printf.sprintf "set k 0 0 %d\r\nab\r\nget s\r\n" bytes)))
    [ max_int; max_int - 1 ]

let test_value_cap_streaming_noreply () =
  (* noreply + oversized: no error reply, and the announced block is
     discarded across many partial feeds without being buffered *)
  let c = make_conn ~max_value:16 () in
  let replies = ref [] in
  let push s = replies := !replies @ P.feed c s in
  push "set big 0 0 1000 noreply\r\n";
  let blob = String.make 1000 'z' ^ "\r\n" in
  String.iter (fun ch -> push (String.make 1 ch)) blob;
  Alcotest.(check string) "silent discard" "" (String.concat "" !replies);
  Alcotest.(check string) "framing recovered" "END\r\n" (feed_all c "get big\r\n")

(* ---- byte-split equivalence property ---- *)

(* Replies for a command stream delivered as [chunks], against a fresh
   store each time so cas ids and counters are reproducible. *)
let run_stream chunks =
  let c = make_conn () in
  String.concat "" (List.concat_map (P.feed c) chunks)

(* A fixed pipelined stream exercising every framing hazard: noreply,
   binary data blocks containing \r\n (and a lone \r at a chunk edge),
   cas against deterministic ids, flush_all, and an error reply. *)
let canonical_stream =
  let bin = "a\r\nb\rc\nd" in
  String.concat ""
    [
      "set k1 7 0 5\r\nhello\r\n";
      Printf.sprintf "set bin 0 0 %d\r\n%s\r\n" (String.length bin) bin;
      "set quiet 0 0 2 noreply\r\nqq\r\n";
      "get k1 bin quiet\r\n";
      "gets k1\r\n";
      "cas k1 0 0 3 1\r\nnew\r\n";
      "incr missing 1\r\n";
      "add k1 0 0 1\r\nx\r\n";
      "delete quiet noreply\r\n";
      "frobnicate\r\n";
      "flush_all\r\n";
      "get k1\r\n";
      "set after 0 0 3\r\nyes\r\n";
      "get after\r\n";
    ]

let test_split_every_boundary () =
  let s = canonical_stream in
  let reference = run_stream [ s ] in
  Alcotest.(check bool) "reference produced replies" true (String.length reference > 0);
  for i = 0 to String.length s do
    let got = run_stream [ String.sub s 0 i; String.sub s i (String.length s - i) ] in
    if got <> reference then
      Alcotest.failf "split at byte %d diverged:\nwant %S\ngot  %S" i reference got
  done

(* Random pipelined streams under random chunkings must byte-match the
   single-feed delivery.  Commands and keys are drawn small so streams
   collide on keys (exercising cas/add/replace interplay); values draw
   from a bytes alphabet heavy in \r and \n. *)
let prop_random_chunking =
  let open QCheck in
  let key_gen = Gen.oneofl [ "a"; "bb"; "c3"; "dd4" ] in
  let value_gen =
    Gen.(
      string_size ~gen:(oneofl [ '\r'; '\n'; 'x'; 'y'; ' '; '\000' ]) (int_range 0 12))
  in
  let cmd_gen =
    Gen.(
      oneof
        [
          (let* k = key_gen and* v = value_gen and* nr = bool in
           return
             (Printf.sprintf "set %s 0 0 %d%s\r\n%s\r\n" k (String.length v)
                (if nr then " noreply" else "")
                v));
          (let* k = key_gen and* v = value_gen in
           return (Printf.sprintf "add %s 0 0 %d\r\n%s\r\n" k (String.length v) v));
          (let* k1 = key_gen and* k2 = key_gen in
           return (Printf.sprintf "get %s %s\r\n" k1 k2));
          (let* k = key_gen in
           return (Printf.sprintf "gets %s\r\n" k));
          (let* k = key_gen and* nr = bool in
           return (Printf.sprintf "delete %s%s\r\n" k (if nr then " noreply" else "")));
          (let* k = key_gen and* d = int_range 0 99 in
           return (Printf.sprintf "incr %s %d\r\n" k d));
          (let* k = key_gen and* v = value_gen and* id = int_range 1 9 in
           return (Printf.sprintf "cas %s 0 0 %d %d\r\n%s\r\n" k (String.length v) id v));
          return "flush_all\r\n";
          return "stats\r\n";
          return "bogus command\r\n";
        ])
  in
  let stream_gen =
    Gen.(
      let* cmds = list_size (int_range 1 12) cmd_gen in
      let s = String.concat "" cmds in
      let* cuts = list_size (int_range 0 8) (int_range 0 (max 1 (String.length s))) in
      return (s, List.sort_uniq compare cuts))
  in
  let arb =
    make stream_gen
      ~print:(fun (s, cuts) ->
        Printf.sprintf "stream=%S cuts=[%s]" s (String.concat ";" (List.map string_of_int cuts)))
  in
  QCheck.Test.make ~count:200 ~name:"chunked delivery is byte-identical to single feed" arb
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.filter (fun c -> c > 0 && c < n) cuts in
      let chunks =
        let rec slice prev = function
          | [] -> [ String.sub s prev (n - prev) ]
          | c :: rest -> String.sub s prev (c - prev) :: slice c rest
        in
        slice 0 cuts
      in
      run_stream chunks = run_stream [ s ])

(* ---- client-side reply-unit decoder (Protocol.Client) ----

   The decoder is the router's and loadgen's shared reply framer; the
   property that matters is chunking-independence: however the byte
   stream is split, the sequence of (unit bytes, class, hits) is
   identical, and the units concatenate back to the stream. *)

module C = P.Client

(* Drive the decoder the way a real client does: append each chunk to
   a compacting buffer, drain complete units.  Compaction mid-unit is
   part of the contract (decoder offsets are unit-relative). *)
let decode_stream chunks =
  let d = C.decoder () in
  let buf = ref (Bytes.create 32) in
  let pos = ref 0 and len = ref 0 in
  let out = ref [] in
  List.iter
    (fun chunk ->
      let n = String.length chunk in
      if !len + n > Bytes.length !buf then begin
        let live = !len - !pos in
        Bytes.blit !buf !pos !buf 0 live;
        len := live;
        pos := 0;
        if !len + n > Bytes.length !buf then begin
          let cap = ref (Bytes.length !buf) in
          while !len + n > !cap do
            cap := !cap * 2
          done;
          let nb = Bytes.create !cap in
          Bytes.blit !buf 0 nb 0 !len;
          buf := nb
        end
      end;
      Bytes.blit_string chunk 0 !buf !len n;
      len := !len + n;
      let progress = ref true in
      while !progress do
        match C.next_unit d !buf ~pos:!pos ~len:(!len - !pos) with
        | Some (endp, r) ->
            out := (Bytes.sub_string !buf !pos (endp - !pos), r) :: !out;
            pos := endp
        | None -> progress := false
      done)
    chunks;
  List.rev !out

(* one unit of each shape, with \r\n-bearing data and a data block
   that spells "END" (the binary-safety trap) *)
let client_units =
  [
    ("STORED\r\n", C.U_ok, 0);
    ("VALUE a 0 5\r\nhe\r\no\r\nEND\r\n", C.U_ok, 1);
    ("END\r\n", C.U_ok, 0);
    ("STAT pid 1\r\nSTAT version montage x\r\nSTAT zero 0\r\nEND\r\n", C.U_ok, 0);
    ("SERVER_ERROR shard down\r\n", C.U_server_error, 0);
    ("8\r\n", C.U_ok, 0);
    ("CLIENT_ERROR bad data chunk\r\n", C.U_error, 0);
    ("VALUE k 1 0\r\n\r\nVALUE kk 0 5\r\nEND\r\n\r\nEND\r\n", C.U_ok, 2);
    ("VERSION 1.2.3\r\n", C.U_ok, 0);
    ("DELETED\r\n", C.U_ok, 0);
    ("ERROR\r\n", C.U_error, 0);
    ("NOT_STORED\r\n", C.U_ok, 0);
  ]

let client_stream = String.concat "" (List.map (fun (u, _, _) -> u) client_units)

let check_units label got =
  let want = List.map (fun (u, c, h) -> (u, c, h)) client_units in
  let got = List.map (fun (u, (r : C.unit_result)) -> (u, r.C.cls, r.C.hits)) got in
  if got <> want then
    Alcotest.failf "%s: decoded %d unit(s), want %d; first divergence %s" label
      (List.length got) (List.length want)
      (match List.find_opt (fun (a, b) -> a <> b) (List.combine got want) with
      | Some ((gu, _, _), (wu, _, _)) -> Printf.sprintf "got %S want %S" gu wu
      | None -> "(length mismatch)")

let test_client_decoder_whole () = check_units "single feed" (decode_stream [ client_stream ])

let test_client_decoder_every_boundary () =
  let n = String.length client_stream in
  for i = 0 to n do
    let chunks = [ String.sub client_stream 0 i; String.sub client_stream i (n - i) ] in
    check_units (Printf.sprintf "split at %d" i) (decode_stream chunks)
  done

let test_client_decoder_byte_drip () =
  check_units "one byte at a time"
    (decode_stream (List.init (String.length client_stream) (fun i -> String.make 1 client_stream.[i])))

(* Encoders and server codec agree end to end: encode requests, run
   them through a live Protocol.conn, decode the reply stream, and the
   unit count matches the request count (the lockstep invariant the
   pipelined clients rely on). *)
let test_client_encoders_roundtrip () =
  let conn = make_conn () in
  let b = Buffer.create 256 in
  C.encode_set b ~key:"alpha" "hello";
  C.encode_set b ~flags:7 ~exptime:0 ~key:"beta" "wo\r\nrld";
  C.encode_get b [ "alpha"; "beta"; "missing" ];
  C.encode_gets b [ "alpha" ];
  C.encode_incr b "ctr" 5;
  C.encode_delete b "alpha";
  C.encode_stats b;
  C.encode_version b;
  C.encode_flush_all b ();
  let expected_units = 9 in
  let replies = feed_all conn (Buffer.contents b) in
  let units = decode_stream [ replies ] in
  Alcotest.(check int) "one reply unit per request" expected_units (List.length units);
  (match units with
  | (u1, r1) :: _ ->
      Alcotest.(check string) "set acked" "STORED\r\n" u1;
      Alcotest.(check bool) "ok class" true (r1.C.cls = C.U_ok)
  | [] -> Alcotest.fail "no units");
  let get_unit, get_r = List.nth units 2 in
  Alcotest.(check int) "get hits" 2 get_r.C.hits;
  Alcotest.(check bool) "binary-safe value" true (contains get_unit "wo\r\nrld");
  (* noreply requests produce no unit: the encoder and codec agree *)
  let b2 = Buffer.create 64 in
  C.encode_set b2 ~noreply:true ~key:"quiet" "x";
  C.encode_delete b2 ~noreply:true "quiet";
  C.encode_version b2;
  let units2 = decode_stream [ feed_all conn (Buffer.contents b2) ] in
  Alcotest.(check int) "noreply suppressed" 1 (List.length units2)

let prop_client_random_chunking =
  let open QCheck in
  let unit_gen =
    Gen.(
      oneof
        [
          oneofl
            [
              "STORED\r\n";
              "NOT_FOUND\r\n";
              "END\r\n";
              "ERROR\r\n";
              "SERVER_ERROR shard down\r\n";
              "TOUCHED\r\n";
              "17\r\n";
            ];
          (let* k = oneofl [ "a"; "bb"; "c3" ]
           and* v = string_size ~gen:(oneofl [ '\r'; '\n'; 'E'; 'N'; 'D'; ' '; 'x' ]) (int_range 0 9)
           in
           return (Printf.sprintf "VALUE %s 0 %d\r\n%s\r\nEND\r\n" k (String.length v) v));
          (let* n = int_range 0 4 in
           let* vs =
             flatten_l
               (List.init n (fun i ->
                    let* v = int_range 0 99 in
                    return (Printf.sprintf "STAT s%d %d\r\n" i v)))
           in
           return (String.concat "" vs ^ "END\r\n"));
        ])
  in
  let arb =
    make
      Gen.(
        let* units = list_size (int_range 1 12) unit_gen in
        let s = String.concat "" units in
        let* cuts = list_size (int_range 0 12) (int_bound (max 1 (String.length s - 1))) in
        return (units, s, List.sort_uniq compare cuts))
      ~print:(fun (_, s, cuts) ->
        Printf.sprintf "stream=%S cuts=[%s]" s (String.concat ";" (List.map string_of_int cuts)))
  in
  QCheck.Test.make ~count:300 ~name:"client decoder: chunking-independent unit boundaries" arb
    (fun (units, s, cuts) ->
      let n = String.length s in
      let cuts = List.filter (fun c -> c > 0 && c < n) cuts in
      let chunks =
        let rec slice prev = function
          | [] -> [ String.sub s prev (n - prev) ]
          | c :: rest -> String.sub s prev (c - prev) :: slice c rest
        in
        slice 0 cuts
      in
      let got = decode_stream chunks in
      List.map fst got = units
      && List.map fst (decode_stream [ s ]) = units)

(* ---- differential: the framer against the string-splitting parser ----

   [Oracle] is the framer as it was before it parsed in place: each
   command line is copied out of the buffer, split into words with
   [String.split_on_char], and its verb lowercased.  Random and
   adversarial streams must give the same frames ([verb], [cmd], [off],
   [len]) from both, however they are chunked, and the same [feed]
   replies when the oracle's frames run against a store of their own. *)

module Oracle = struct
  type state =
    | Idle
    | Awaiting of { verb : string; p : P.pending; need : int }
    | Discarding of int
    | Skipping_line
    | Closed

  type framer = { mutable state : state; mutable scanned : int; max_line : int; max_value : int }

  let framer ?(max_line = 8192) ?(max_value = 1 lsl 20) () =
    { state = Idle; scanned = 0; max_line; max_value }

  let line_too_long = "CLIENT_ERROR line too long"
  let bad_format = "CLIENT_ERROR bad command line format"
  let split_words line = String.split_on_char ' ' line |> List.filter (( <> ) "")
  let int_arg s = int_of_string_opt s

  let parse_storage verb args =
    match args with
    | key :: flags :: exptime :: bytes :: rest -> (
        match (int_arg flags, int_arg exptime, int_arg bytes) with
        | Some flags, Some exptime, Some bytes when bytes >= 0 -> (
            let op, rest =
              match (verb, rest) with
              | "cas", cas :: tail -> (Option.map (fun c -> P.Cas c) (int_arg cas), tail)
              | "cas", [] -> (None, [])
              | "set", _ -> (Some P.Set, rest)
              | "add", _ -> (Some P.Add, rest)
              | "replace", _ -> (Some P.Replace, rest)
              | "append", _ -> (Some P.Append, rest)
              | _ -> (Some P.Prepend, rest)
            in
            let noreply = rest = [ "noreply" ] in
            match op with
            | Some op when rest = [] || noreply ->
                Some { P.op; key; flags; exptime; bytes; noreply }
            | _ -> None)
        | _ -> None)
    | _ -> None

  type parsed =
    | Complete of string * P.command
    | Needs_block of string * P.pending
    | Drop_block of string * string option * int

  let parse fr line =
    match split_words line with
    | [] -> Complete ("", P.Answer (Some "ERROR"))
    | verb :: args -> (
        let verb = String.lowercase_ascii verb in
        let complete cmd = Complete (verb, cmd) in
        let answer r = complete (P.Answer (Some r)) in
        match (verb, args) with
        | "get", (_ :: _ as keys) -> complete (P.Get { cas = false; keys })
        | "gets", (_ :: _ as keys) -> complete (P.Get { cas = true; keys })
        | ("set" | "add" | "replace" | "append" | "prepend" | "cas"), _ -> (
            match parse_storage verb args with
            | Some p when p.bytes > fr.max_value ->
                Drop_block
                  ( verb,
                    (if p.noreply then None else Some "CLIENT_ERROR object too large for cache"),
                    if p.bytes > max_int - 2 then max_int else p.bytes + 2 )
            | Some p -> Needs_block (verb, p)
            | None -> answer bad_format)
        | "delete", [ key ] -> complete (P.Delete { key; noreply = false })
        | "delete", [ key; "noreply" ] -> complete (P.Delete { key; noreply = true })
        | ("incr" | "decr"), [ key; amount ] -> (
            match int_arg amount with
            | None -> answer "CLIENT_ERROR invalid numeric delta argument"
            | Some d -> complete (P.Arith { key; delta = (if verb = "decr" then -d else d) }))
        | "touch", [ key; exptime ] -> (
            match int_arg exptime with
            | None -> answer "CLIENT_ERROR invalid exptime argument"
            | Some exptime -> complete (P.Touch { key; exptime }))
        | "flush_all", args -> (
            let args, noreply =
              match List.rev args with
              | "noreply" :: rest -> (List.rev rest, true)
              | _ -> (args, false)
            in
            match args with
            | [] -> complete (P.Flush_all { delay = None; noreply })
            | [ d ] -> (
                match int_arg d with
                | Some d when d >= 0 -> complete (P.Flush_all { delay = Some d; noreply })
                | _ -> answer "CLIENT_ERROR invalid delay argument")
            | _ -> answer bad_format)
        | "stats", [] -> complete P.Stats
        | "version", [] -> complete P.Version
        | "verbosity", args ->
            complete
              (P.Verbosity { noreply = (match List.rev args with "noreply" :: _ -> true | _ -> false) })
        | "quit", [] -> complete P.Quit
        | _ -> answer "ERROR")

  let find_crlf fr buf start stop =
    let i = ref (start + fr.scanned) in
    let found = ref (-1) in
    while !found < 0 && !i < stop - 1 do
      if Bytes.get buf !i = '\r' && Bytes.get buf (!i + 1) = '\n' then found := !i else incr i
    done;
    if !found < 0 then begin
      fr.scanned <- max 0 (stop - 1 - start);
      None
    end
    else Some !found

  let frames fr buf ~pos ~len f =
    let start = ref pos and stop = pos + len in
    let consume_to e =
      start := e;
      fr.scanned <- 0
    in
    let progressing = ref true in
    while !progressing do
      match fr.state with
      | Closed -> progressing := false
      | Idle -> (
          match find_crlf fr buf !start stop with
          | None ->
              if stop - !start >= fr.max_line + 2 then begin
                f { P.verb = ""; cmd = P.Answer (Some line_too_long); off = !start; len = 0 };
                fr.state <- Skipping_line
              end
              else progressing := false
          | Some eol -> (
              let off = !start and flen = eol + 2 - !start in
              if eol - off > fr.max_line then begin
                consume_to (eol + 2);
                f { P.verb = ""; cmd = P.Answer (Some line_too_long); off; len = flen }
              end
              else
                match parse fr (Bytes.sub_string buf off (eol - off)) with
                | Complete (verb, cmd) ->
                    consume_to (eol + 2);
                    (match cmd with P.Quit -> fr.state <- Closed | _ -> ());
                    f { P.verb; cmd; off; len = flen }
                | Needs_block (verb, p) -> fr.state <- Awaiting { verb; p; need = flen + p.bytes + 2 }
                | Drop_block (verb, reply, n) ->
                    consume_to (eol + 2);
                    fr.state <- Discarding n;
                    f { P.verb; cmd = P.Answer reply; off; len = flen }))
      | Awaiting { verb; p; need } ->
          if stop - !start >= need then begin
            let off = !start in
            let e = off + need in
            let cmd =
              if Bytes.get buf (e - 2) = '\r' && Bytes.get buf (e - 1) = '\n' then P.Store p
              else P.Answer (Some "CLIENT_ERROR bad data chunk")
            in
            consume_to e;
            fr.state <- Idle;
            f { P.verb; cmd; off; len = need }
          end
          else progressing := false
      | Discarding remaining ->
          let take = min (stop - !start) remaining in
          consume_to (!start + take);
          if take = remaining then fr.state <- Idle
          else begin
            fr.state <- Discarding (remaining - take);
            progressing := false
          end
      | Skipping_line -> (
          match find_crlf fr buf !start stop with
          | Some eol ->
              consume_to (eol + 2);
              fr.state <- Idle
          | None ->
              consume_to (max !start (stop - 1));
              progressing := false)
    done;
    !start - pos

  (* The reply a server sends for one frame, from a store of its own. *)
  let execute store buf (fr : P.frame) =
    let b = Buffer.create 64 in
    let line s = Buffer.add_string b (s ^ "\r\n") in
    let unless noreply s = if not noreply then line s in
    let outcome = function
      | Store.Stored -> "STORED"
      | Store.Not_stored -> "NOT_STORED"
      | Store.Exists -> "EXISTS"
      | Store.Not_found -> "NOT_FOUND"
    in
    (match fr.cmd with
    | P.Answer r -> Option.iter line r
    | P.Get { cas; keys } ->
        List.iter
          (fun key ->
            ignore
              (Store.find store ~tid:0 key (fun (it : Store.item) ->
                   let data = Store.View.to_string it.data in
                   line
                     (Printf.sprintf "VALUE %s %d %d%s" key it.flags (String.length data)
                        (if cas then Printf.sprintf " %d" it.cas else ""));
                   line data)))
          keys;
        line "END"
    | P.Store p ->
        let expiry = Store.expiry_of_exptime store p.exptime in
        Store.store store ~tid:0 p.op ~flags:p.flags ~expiry p.key buf
          (fr.off + fr.len - 2 - p.bytes)
          p.bytes
        |> outcome |> unless p.noreply
    | P.Delete { key; noreply } ->
        unless noreply (if Store.delete store ~tid:0 key then "DELETED" else "NOT_FOUND")
    | P.Arith { key; delta } -> (
        match Store.incr store ~tid:0 key delta with
        | Some v -> line (string_of_int v)
        | None -> line "NOT_FOUND")
    | P.Touch { key; exptime } ->
        let expiry = Store.expiry_of_exptime store exptime in
        line (if Store.touch store ~tid:0 key ~expiry then "TOUCHED" else "NOT_FOUND")
    | P.Flush_all { delay; noreply } ->
        Store.flush_all store ?delay_s:(Option.map float_of_int delay) ();
        unless noreply "OK"
    | P.Stats ->
        let hits, misses, sets, deletes, expired = Store.stats store in
        List.iter line
          [
            Printf.sprintf "STAT get_hits %d" hits;
            Printf.sprintf "STAT get_misses %d" misses;
            Printf.sprintf "STAT cmd_set %d" sets;
            Printf.sprintf "STAT delete_hits %d" deletes;
            Printf.sprintf "STAT expired_unfetched %d" expired;
            "END";
          ]
    | P.Version -> line "VERSION montage-ocaml 1.0"
    | P.Verbosity { noreply } -> unless noreply "OK"
    | P.Quit -> ());
    Buffer.contents b

  (* [P.feed]'s contract: the replies of every request that replied. *)
  type conn = { store : Store.t; ofr : framer; mutable rest : string }

  let create ?max_line ?max_value store = { store; ofr = framer ?max_line ?max_value (); rest = "" }

  let feed c input =
    if c.ofr.state = Closed then []
    else begin
      let buf = Bytes.of_string (c.rest ^ input) in
      let replies = ref [] in
      let used =
        frames c.ofr buf ~pos:0 ~len:(Bytes.length buf) (fun fr ->
            let r = execute c.store buf fr in
            if r <> "" then replies := r :: !replies)
      in
      c.rest <- Bytes.sub_string buf used (Bytes.length buf - used);
      List.rev !replies
    end
end

(* Words for adversarial command lines: verbs in every case, numbers
   in every syntax [int_of_string_opt] reads or refuses, keywords out
   of place. *)
let diff_verbs =
  [
    "get"; "GET"; "Get"; "gEt"; "gets"; "GETS"; "set"; "SET"; "sEt"; "add"; "ADD"; "replace";
    "Replace"; "append"; "APPEND"; "prepend"; "cas"; "CAS"; "delete"; "DELETE"; "incr"; "INCR";
    "decr"; "Decr"; "touch"; "TOUCH"; "flush_all"; "FLUSH_ALL"; "stats"; "STATS"; "version";
    "Version"; "verbosity"; "quit"; "QUIT"; "fetch"; "GETX"; "sets"; "noreply"; "5";
  ]

let diff_numbers =
  [
    "0"; "1"; "5"; "07"; "+5"; "-1"; "-0"; "0x1f"; "0X1F"; "0o17"; "0b101"; "0u7"; "1_0"; "_1";
    "1_"; "5x"; "x"; "0x"; "-"; "+"; "123456789012345678"; "999999999999999999";
    "1234567890123456789"; "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
    "99999999999999999999"; "0000000000000000000007"; "noreply"; "NOREPLY"; "k";
  ]

let diff_keys = [ "a"; "k1"; "K"; "noreply"; "GET"; "x\ry"; "12"; String.make 30 'z' ]

(* A line of 0-7 words, each joined by a run of 1-3 spaces, sometimes
   with leading or trailing spaces.  A storage line whose <bytes>
   parses is followed by a block of that many bytes (or one short, so
   the chunk check fails). *)
let diff_request_gen =
  let open QCheck.Gen in
  let word = frequency [ (3, oneofl diff_numbers); (2, oneofl diff_keys); (2, oneofl diff_verbs) ] in
  let sep = map (fun n -> String.make n ' ') (int_range 1 3) in
  let* verb = frequency [ (6, oneofl diff_verbs); (1, return "") ] in
  let* args = list_size (int_range 0 6) word in
  let* seps = list_repeat (List.length args + 2) sep in
  let* lead = frequency [ (4, return ""); (1, sep) ] in
  let* trail = frequency [ (4, return ""); (1, sep) ] in
  let line =
    lead ^ verb
    ^ String.concat "" (List.mapi (fun i a -> List.nth seps (i + 1) ^ a) args)
    ^ trail
  in
  let block =
    match (String.lowercase_ascii verb, args) with
    | ("set" | "add" | "replace" | "append" | "prepend" | "cas"), _ :: _ :: _ :: n :: _ -> (
        match int_of_string_opt n with Some n when n >= 0 && n <= 200 -> Some n | _ -> None)
    | _ -> None
  in
  match block with
  | None -> return (line ^ "\r\n")
  | Some n ->
      let* short = frequency [ (5, return false); (1, return true) ] in
      let data = String.init n (fun i -> "ab\r\n".[i mod 4]) in
      return (line ^ "\r\n" ^ (if short && n > 0 then String.sub data 0 (n - 1) else data) ^ "\r\n")

(* Every frame both framers report over [s] presented in [cuts]-sized
   growing prefixes, and what each consumed. *)
let frames_of ~max_line ~max_value s cuts =
  let buf = Bytes.of_string s and n = String.length s in
  let run frames fr =
    let got = ref [] and used = ref 0 in
    List.iter
      (fun c -> used := !used + frames fr buf ~pos:!used ~len:(c - !used) (fun f -> got := f :: !got))
      (List.filter (fun c -> c > 0 && c < n) cuts @ [ n ]);
    (List.rev !got, !used)
  in
  ( run (fun fr -> P.frames fr) (P.framer ~max_line ~max_value ()),
    run (fun fr -> Oracle.frames fr) (Oracle.framer ~max_line ~max_value ()) )

let diff_stream_arb =
  let open QCheck in
  make
    Gen.(
      let* reqs = list_size (int_range 1 12) diff_request_gen in
      let s = String.concat "" reqs in
      let* cuts = list_size (int_range 0 6) (int_bound (String.length s)) in
      let* max_line = oneofl [ 8192; 16; 24; 40 ] in
      let* max_value = oneofl [ 1 lsl 20; 8; 64 ] in
      return (s, List.sort_uniq compare cuts, max_line, max_value))
    ~print:(fun (s, cuts, ml, mv) ->
      Printf.sprintf "stream=%S cuts=[%s] max_line=%d max_value=%d" s
        (String.concat ";" (List.map string_of_int cuts))
        ml mv)

let prop_frames_match_oracle =
  QCheck.Test.make ~count:2000 ~name:"frames = string-splitting oracle" diff_stream_arb
    (fun (s, cuts, max_line, max_value) ->
      let got, want = frames_of ~max_line ~max_value s cuts in
      got = want)

let prop_feed_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"feed replies = oracle's" diff_stream_arb
    (fun (s, cuts, max_line, max_value) ->
      let fixed st =
        Store.set_clock st (fun () -> 1_000_000_000.0);
        st
      in
      let c = P.create ~max_line ~max_value (fixed (make_store ())) ~tid:0 in
      let o = Oracle.create ~max_line ~max_value (fixed (make_store ())) in
      let n = String.length s in
      let rec chunks prev = function
        | [] -> [ String.sub s prev (n - prev) ]
        | k :: rest when k > prev && k < n -> String.sub s prev (k - prev) :: chunks k rest
        | _ :: rest -> chunks prev rest
      in
      List.for_all (fun ch -> P.feed c ch = Oracle.feed o ch) (chunks 0 cuts))

(* Hand-picked lines: each must frame as the oracle frames it, whole
   and one byte at a time. *)
let adversarial_lines =
  [
    ""; " "; "   "; "GET a"; "Get  a   b"; "gEt"; "get"; "  get a"; "get a  "; "SET k 0 0 1";
    "set  k  0  0  1"; "set k +5 0 1"; "set k -1 0 1"; "set k 0x1f 0 1"; "set k 1_0 0 1";
    "set k 0 0 -1"; "set k 0 0 0x2"; "set k 0 0 4611686018427387903";
    "set k 0 0 4611686018427387902"; "set k 0 0 1 noreply"; "set k 0 0 1 NOREPLY";
    "set k 0 0 1 noreply x"; "set k 0 0 1 x"; "set noreply 0 0 1"; "set k 0 0";
    "set k 12345678901234567890 0 1"; "set k 4611686018427387903 0 1";
    "set k 4611686018427387904 0 1"; "set k 0 0 0000000000000000000001"; "cas k 0 0 1";
    "cas k 0 0 1 7"; "cas k 0 0 1 0x7 noreply"; "cas k 0 0 1 noreply"; "CAS k 0 0 1 -3";
    "delete k"; "delete k noreply"; "delete noreply"; "delete k NOREPLY"; "delete k 0";
    "incr k 1"; "INCR k +1"; "decr k -1"; "decr k 0x10"; "incr k x"; "incr k"; "incr k 1 2";
    "incr k 99999999999999999999"; "touch k 10"; "touch k -1"; "touch k 1_000"; "touch k y";
    "flush_all"; "flush_all noreply"; "flush_all 0"; "flush_all -1"; "flush_all 0x5 noreply";
    "flush_all noreply noreply"; "flush_all 1 2"; "flush_all x"; "stats"; "STATS"; "stats x";
    "version"; "version x"; "verbosity"; "verbosity 1"; "verbosity noreply"; "verbosity 1 noreply";
    "verbosity noreply 1"; "quit"; "QUIT"; "quit now"; "bogus"; "BOGUS x"; "noreply";
    "get a\rb"; "set k\r 0 0 1"; String.make 16 'g'; "get " ^ String.make 12 'k';
    "get " ^ String.make 13 'k';
  ]

let test_adversarial_lines () =
  List.iter
    (fun line ->
      let s = line ^ "\r\nx\r\nget a\r\n" in
      List.iter
        (fun (label, cuts) ->
          let got, want = frames_of ~max_line:16 ~max_value:64 s cuts in
          if got <> want then Alcotest.failf "%S (%s): frames differ from the oracle's" line label)
        [ ("whole", []); ("dripped", List.init (String.length s) Fun.id) ])
    adversarial_lines

(* Every frame of a verb carries the same string. *)
let test_verb_is_shared () =
  let verbs = ref [] in
  let s = Bytes.of_string "get a\r\nGET b\r\nGet c\r\nset k 0 0 1\r\nx\r\nSET k 0 0 1\r\nx\r\n" in
  ignore (P.frames (P.framer ()) s ~pos:0 ~len:(Bytes.length s) (fun f -> verbs := f.P.verb :: !verbs));
  match List.rev !verbs with
  | [ g1; g2; g3; s1; s2 ] ->
      Alcotest.(check (list string)) "lowercased" [ "get"; "get"; "get"; "set"; "set" ]
        [ g1; g2; g3; s1; s2 ];
      Alcotest.(check bool) "one string per verb" true (g1 == g2 && g2 == g3 && s1 == s2)
  | l -> Alcotest.failf "%d frames" (List.length l)

(* ---- allocation bounds on the request path ---- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let key23 i = Printf.sprintf "key:%019d" i

let words_per_frame label lines ~bound =
  let s = Bytes.of_string (String.concat "" lines) in
  let fr = P.framer () and n = ref 0 in
  let f (_ : P.frame) = incr n in
  let used = ref 0 in
  let w = minor_words (fun () -> used := P.frames fr s ~pos:0 ~len:(Bytes.length s) f) in
  Alcotest.(check int) (label ^ ": every line framed") (List.length lines) !n;
  Alcotest.(check int) (label ^ ": every byte consumed") (Bytes.length s) !used;
  let per = w /. float_of_int !n in
  if per > bound then Alcotest.failf "%s: %.1f minor words per line, bound %.0f" label per bound

let test_frames_alloc () =
  words_per_frame "get" (List.init 1000 (fun i -> Printf.sprintf "get %s\r\n" (key23 i))) ~bound:24.0;
  words_per_frame "set"
    (List.init 1000 (fun i -> Printf.sprintf "set %s 0 0 10\r\n0123456789\r\n" (key23 i)))
    ~bound:32.0

let test_next_unit_alloc () =
  let units =
    List.init 1000 (fun i ->
        match i mod 3 with
        | 0 -> "STORED\r\n"
        | 1 -> Printf.sprintf "VALUE %s 0 10\r\n0123456789\r\nEND\r\n" (key23 i)
        | _ -> "END\r\n")
  in
  let s = Bytes.of_string (String.concat "" units) in
  let d = C.decoder () and pos = ref 0 and n = ref 0 in
  let w =
    minor_words (fun () ->
        while !pos < Bytes.length s do
          match C.next_unit d s ~pos:!pos ~len:(Bytes.length s - !pos) with
          | Some (e, _) ->
              pos := e;
              incr n
          | None -> pos := Bytes.length s
        done)
  in
  Alcotest.(check int) "every unit decoded" 1000 !n;
  let per = w /. 1000.0 in
  if per > 8.0 then Alcotest.failf "%.1f minor words per unit, bound 8" per

let () =
  Alcotest.run "protocol"
    [
      ( "commands",
        [
          Alcotest.test_case "set/get" `Quick test_set_get_roundtrip;
          Alcotest.test_case "multi-key get" `Quick test_multi_key_get;
          Alcotest.test_case "add/replace" `Quick test_add_replace_semantics;
          Alcotest.test_case "append/prepend" `Quick test_append_prepend;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "incr/decr" `Quick test_incr_decr;
          Alcotest.test_case "cas" `Quick test_cas;
        ] );
      ( "framing",
        [
          Alcotest.test_case "binary-safe data" `Quick test_binary_safe_data;
          Alcotest.test_case "chunked arrival" `Quick test_chunked_arrival;
          Alcotest.test_case "pipelining" `Quick test_pipelining;
          Alcotest.test_case "noreply" `Quick test_noreply;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "quit closes" `Quick test_quit_closes;
          Alcotest.test_case "stats/version" `Quick test_stats_and_version;
        ] );
      ( "flush_all",
        [
          Alcotest.test_case "wipes current items" `Quick test_flush_all_wipes;
          Alcotest.test_case "delayed order" `Quick test_flush_all_delay;
          Alcotest.test_case "noreply" `Quick test_flush_all_noreply;
        ] );
      ( "caps",
        [
          Alcotest.test_case "command-line cap" `Quick test_line_cap;
          Alcotest.test_case "line cap, dripped input" `Quick test_line_cap_streaming;
          Alcotest.test_case "data-block cap" `Quick test_value_cap;
          Alcotest.test_case "block cap, dripped noreply" `Quick test_value_cap_streaming_noreply;
        ] );
      ( "byte-split",
        [
          Alcotest.test_case "every boundary of the canonical stream" `Quick
            test_split_every_boundary;
          QCheck_alcotest.to_alcotest prop_random_chunking;
        ] );
      ( "client",
        [
          Alcotest.test_case "decoder, single feed" `Quick test_client_decoder_whole;
          Alcotest.test_case "decoder, every boundary" `Quick
            test_client_decoder_every_boundary;
          Alcotest.test_case "decoder, byte drip" `Quick test_client_decoder_byte_drip;
          Alcotest.test_case "encoders round-trip the codec" `Quick
            test_client_encoders_roundtrip;
          QCheck_alcotest.to_alcotest prop_client_random_chunking;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "adversarial lines frame as the oracle" `Quick test_adversarial_lines;
          Alcotest.test_case "one string per verb" `Quick test_verb_is_shared;
          QCheck_alcotest.to_alcotest prop_frames_match_oracle;
          QCheck_alcotest.to_alcotest prop_feed_matches_oracle;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "frames: get/set lines within bounds" `Quick test_frames_alloc;
          Alcotest.test_case "next_unit: at most 8 words a unit" `Quick test_next_unit_alloc;
        ] );
      ("exptime", List.concat_map exptime_tests backends);
      ("reply bytes", List.map (fun b -> QCheck_alcotest.to_alcotest (prop_reply_bytes b)) backends);
      ( "persistence",
        [
          Alcotest.test_case "session across crash" `Quick test_protocol_over_montage_with_crash;
          Alcotest.test_case "ycsb-a loop: acked sets survive sync + crash (nb advance)" `Quick
            test_ycsb_durability;
        ] );
    ]
