(* Tests for the ordered structures: the Montage skip list and the
   nonblocking sorted-list set. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config

let testing_cfg = { Cfg.testing with max_threads = 6 }

let make_esys ?(capacity = 1 lsl 24) () =
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity () in
  (region, E.create ~config:testing_cfg region)

(* ---- skip list ---- *)

let test_skiplist_basic () =
  let _, esys = make_esys () in
  let s = Pstructs.Mskiplist.create esys in
  Alcotest.(check (option string)) "empty" None (Pstructs.Mskiplist.get s ~tid:0 "a");
  Alcotest.(check (option string)) "insert" None (Pstructs.Mskiplist.put s ~tid:0 "b" "2");
  Alcotest.(check (option string)) "get" (Some "2") (Pstructs.Mskiplist.get s ~tid:0 "b");
  Alcotest.(check (option string)) "update" (Some "2") (Pstructs.Mskiplist.put s ~tid:0 "b" "22");
  Alcotest.(check (option string)) "updated" (Some "22") (Pstructs.Mskiplist.get s ~tid:0 "b");
  Alcotest.(check (option string)) "remove" (Some "22") (Pstructs.Mskiplist.remove s ~tid:0 "b");
  Alcotest.(check (option string)) "gone" None (Pstructs.Mskiplist.get s ~tid:0 "b");
  Alcotest.(check (option string)) "remove missing" None (Pstructs.Mskiplist.remove s ~tid:0 "b")

(* [set] stores as [put] does but never reads the value it replaces:
   after a restart every handle is cold, so reading a replaced 1 KiB
   value would charge its lines. *)
let test_skiplist_set () =
  let region, esys = make_esys () in
  let s = Pstructs.Mskiplist.create esys in
  let old = String.make 1024 'o' in
  ignore (Pstructs.Mskiplist.put s ~tid:0 "a" old);
  ignore (Pstructs.Mskiplist.put s ~tid:0 "b" old);
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let s2 = Pstructs.Mskiplist.recover esys2 payloads in
  let charged f =
    let before = (Nvm.Region.stats region).Nvm.Region.lines_read in
    f ();
    (Nvm.Region.stats region).Nvm.Region.lines_read - before
  in
  let by_set = charged (fun () -> Pstructs.Mskiplist.set s2 ~tid:0 "a" "new-a") in
  let by_put = charged (fun () -> ignore (Pstructs.Mskiplist.put s2 ~tid:0 "b" "new-b")) in
  Alcotest.(check bool) "put reads the old value's lines" true (by_put >= 1024 / 64);
  Alcotest.(check bool) "set reads fewer" true (by_set + (1024 / 64) <= by_put);
  Alcotest.(check (option string)) "set stored" (Some "new-a") (Pstructs.Mskiplist.get s2 ~tid:0 "a");
  Alcotest.(check (option string)) "put stored" (Some "new-b") (Pstructs.Mskiplist.get s2 ~tid:0 "b");
  Alcotest.(check int) "overwrites keep the size" 2 (Pstructs.Mskiplist.size s2)

let test_skiplist_ordered_iteration () =
  let _, esys = make_esys () in
  let s = Pstructs.Mskiplist.create esys in
  let keys = [ "delta"; "alpha"; "echo"; "charlie"; "bravo" ] in
  List.iter (fun k -> ignore (Pstructs.Mskiplist.put s ~tid:0 k (String.uppercase_ascii k))) keys;
  let sorted = Pstructs.Mskiplist.to_alist s ~tid:0 |> List.map fst in
  Alcotest.(check (list string)) "sorted order" [ "alpha"; "bravo"; "charlie"; "delta"; "echo" ] sorted;
  Alcotest.(check (option (pair string string))) "min binding" (Some ("alpha", "ALPHA"))
    (Pstructs.Mskiplist.min_binding s ~tid:0)

let test_skiplist_range_query () =
  let _, esys = make_esys () in
  let s = Pstructs.Mskiplist.create esys in
  for i = 0 to 99 do
    ignore (Pstructs.Mskiplist.put s ~tid:0 (Printf.sprintf "k%02d" i) (string_of_int i))
  done;
  let range =
    Pstructs.Mskiplist.fold_range s ~tid:0 ~lo:"k10" ~hi:"k19" ~init:[] (fun acc k _ -> k :: acc)
  in
  Alcotest.(check int) "ten keys in range" 10 (List.length range);
  let total =
    Pstructs.Mskiplist.fold_range s ~tid:0 ~lo:"k10" ~hi:"k19" ~init:0 (fun acc _ v ->
        acc + int_of_string v)
  in
  Alcotest.(check int) "sum 10..19" 145 total

let test_skiplist_many_keys () =
  let _, esys = make_esys () in
  let s = Pstructs.Mskiplist.create esys in
  let rng = Util.Xoshiro.create 7 in
  let model = Hashtbl.create 256 in
  for _ = 1 to 2000 do
    let k = Printf.sprintf "key%04d" (Util.Xoshiro.int rng 500) in
    if Util.Xoshiro.bool rng then begin
      let v = string_of_int (Util.Xoshiro.int rng 1000) in
      ignore (Pstructs.Mskiplist.put s ~tid:0 k v);
      Hashtbl.replace model k v
    end
    else begin
      ignore (Pstructs.Mskiplist.remove s ~tid:0 k);
      Hashtbl.remove model k
    end
  done;
  Alcotest.(check int) "size matches model" (Hashtbl.length model) (Pstructs.Mskiplist.size s);
  Hashtbl.iter
    (fun k v ->
      Alcotest.(check (option string)) ("key " ^ k) (Some v) (Pstructs.Mskiplist.get s ~tid:0 k))
    model;
  (* and the iteration order is sorted *)
  let keys = Pstructs.Mskiplist.to_alist s ~tid:0 |> List.map fst in
  Alcotest.(check (list string)) "iteration sorted" (List.sort compare keys) keys

let test_skiplist_crash_recovery () =
  let region, esys = make_esys () in
  let s = Pstructs.Mskiplist.create esys in
  for i = 0 to 49 do
    ignore (Pstructs.Mskiplist.put s ~tid:0 (Printf.sprintf "k%02d" i) (string_of_int (i * i)))
  done;
  ignore (Pstructs.Mskiplist.remove s ~tid:0 "k25");
  E.sync esys ~tid:0;
  ignore (Pstructs.Mskiplist.put s ~tid:0 "late" "lost");
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let s2 = Pstructs.Mskiplist.recover esys2 payloads in
  Alcotest.(check int) "49 keys" 49 (Pstructs.Mskiplist.size s2);
  Alcotest.(check (option string)) "value intact" (Some "1600") (Pstructs.Mskiplist.get s2 ~tid:0 "k40");
  Alcotest.(check (option string)) "removed stays removed" None (Pstructs.Mskiplist.get s2 ~tid:0 "k25");
  Alcotest.(check (option string)) "unsynced lost" None (Pstructs.Mskiplist.get s2 ~tid:0 "late");
  let keys = Pstructs.Mskiplist.to_alist s2 ~tid:0 |> List.map fst in
  Alcotest.(check (list string)) "recovered order sorted" (List.sort compare keys) keys

let test_skiplist_parallel_recovery () =
  let region, esys = make_esys () in
  let s = Pstructs.Mskiplist.create esys in
  for i = 0 to 199 do
    ignore (Pstructs.Mskiplist.put s ~tid:0 (Printf.sprintf "k%03d" i) "v")
  done;
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let s2 = Pstructs.Mskiplist.recover ~threads:4 esys2 payloads in
  Alcotest.(check int) "all keys" 200 (Pstructs.Mskiplist.size s2)

let test_skiplist_concurrent_reads_during_writes () =
  let _, esys = make_esys () in
  let s = Pstructs.Mskiplist.create esys in
  for i = 0 to 199 do
    ignore (Pstructs.Mskiplist.put s ~tid:0 (Printf.sprintf "base%03d" i) "v")
  done;
  let stop = Atomic.make false in
  let hits = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        let rng = Util.Xoshiro.create 3 in
        while not (Atomic.get stop) do
          let k = Printf.sprintf "base%03d" (Util.Xoshiro.int rng 200) in
          if Pstructs.Mskiplist.get s ~tid:1 k <> None then Atomic.incr hits
        done)
  in
  for i = 0 to 300 do
    ignore (Pstructs.Mskiplist.put s ~tid:0 (Printf.sprintf "new%03d" i) "w")
  done;
  (* stop only after observed reader progress, not after a timeslice *)
  while Atomic.get hits = 0 do
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check bool) "reader made progress and never crashed" true (Atomic.get hits > 0);
  Alcotest.(check int) "all writes landed" 501 (Pstructs.Mskiplist.size s)

(* model property *)
let qcheck_skiplist_vs_map =
  QCheck.Test.make ~name:"skiplist matches a sorted-map model" ~count:25
    QCheck.(list (pair (int_range 0 30) small_string))
    (fun script ->
      let _, esys = make_esys ~capacity:(1 lsl 22) () in
      let s = Pstructs.Mskiplist.create esys in
      let model = ref [] in
      List.iter
        (fun (k, v) ->
          let key = Printf.sprintf "k%02d" k in
          if String.length v mod 3 = 0 then begin
            ignore (Pstructs.Mskiplist.remove s ~tid:0 key);
            model := List.remove_assoc key !model
          end
          else begin
            ignore (Pstructs.Mskiplist.put s ~tid:0 key v);
            model := (key, v) :: List.remove_assoc key !model
          end)
        script;
      Pstructs.Mskiplist.to_alist s ~tid:0 = List.sort compare !model)

(* ---- nonblocking list set ---- *)

let test_set_basic () =
  let _, esys = make_esys () in
  let s = Pstructs.Nb_list_set.create esys in
  Alcotest.(check bool) "absent" false (Pstructs.Nb_list_set.contains s "x");
  Alcotest.(check bool) "add" true (Pstructs.Nb_list_set.add s ~tid:0 "x");
  Alcotest.(check bool) "present" true (Pstructs.Nb_list_set.contains s "x");
  Alcotest.(check bool) "add dup" false (Pstructs.Nb_list_set.add s ~tid:0 "x");
  Alcotest.(check bool) "remove" true (Pstructs.Nb_list_set.remove s ~tid:0 "x");
  Alcotest.(check bool) "gone" false (Pstructs.Nb_list_set.contains s "x");
  Alcotest.(check bool) "remove again" false (Pstructs.Nb_list_set.remove s ~tid:0 "x")

let test_set_sorted () =
  let _, esys = make_esys () in
  let s = Pstructs.Nb_list_set.create esys in
  List.iter (fun k -> ignore (Pstructs.Nb_list_set.add s ~tid:0 k)) [ "m"; "a"; "z"; "k"; "b" ];
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "k"; "m"; "z" ] (Pstructs.Nb_list_set.to_list s)

let test_set_concurrent_distinct () =
  let _, esys = make_esys () in
  let s = Pstructs.Nb_list_set.create esys in
  let per = 150 in
  let ds =
    Array.init 3 (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore (Pstructs.Nb_list_set.add s ~tid (Printf.sprintf "t%d-%03d" tid i))
            done))
  in
  Array.iter Domain.join ds;
  Alcotest.(check int) "all inserted" (3 * per) (Pstructs.Nb_list_set.length s)

let test_set_concurrent_contention () =
  (* all threads fight over the same small key space; final membership
     must be consistent (each key present or absent, never duplicated) *)
  let _, esys = make_esys () in
  let s = Pstructs.Nb_list_set.create esys in
  let ds =
    Array.init 3 (fun tid ->
        Domain.spawn (fun () ->
            let rng = Util.Xoshiro.create (tid + 11) in
            for _ = 1 to 600 do
              let k = Printf.sprintf "k%02d" (Util.Xoshiro.int rng 20) in
              if Util.Xoshiro.bool rng then ignore (Pstructs.Nb_list_set.add s ~tid k)
              else ignore (Pstructs.Nb_list_set.remove s ~tid k)
            done))
  in
  Array.iter Domain.join ds;
  let members = Pstructs.Nb_list_set.to_list s in
  Alcotest.(check bool) "no duplicates" true
    (List.length members = List.length (List.sort_uniq compare members));
  Alcotest.(check (list string)) "sorted" (List.sort compare members) members

let test_set_epoch_churn () =
  let _, esys = make_esys () in
  let s = Pstructs.Nb_list_set.create esys in
  let stop = Atomic.make false in
  let ops = Atomic.make 0 in
  (* progress-paced ticker (see test_pstructs): epoch churn follows the
     adds themselves, no wall-clock pacing *)
  let ticker =
    Domain.spawn (fun () ->
        let last = ref (-1) in
        while not (Atomic.get stop) do
          let seen = Atomic.get ops in
          if seen <> !last then begin
            last := seen;
            E.advance_epoch esys ~tid:5
          end
          else Domain.cpu_relax ()
        done)
  in
  for i = 0 to 300 do
    ignore (Pstructs.Nb_list_set.add s ~tid:0 (Printf.sprintf "%04d" i));
    Atomic.incr ops
  done;
  Atomic.set stop true;
  Domain.join ticker;
  Alcotest.(check int) "all adds under churn" 301 (Pstructs.Nb_list_set.length s)

let test_set_crash_recovery () =
  let region, esys = make_esys () in
  let s = Pstructs.Nb_list_set.create esys in
  List.iter (fun k -> ignore (Pstructs.Nb_list_set.add s ~tid:0 k)) [ "a"; "b"; "c"; "d" ];
  ignore (Pstructs.Nb_list_set.remove s ~tid:0 "b");
  E.sync esys ~tid:0;
  ignore (Pstructs.Nb_list_set.add s ~tid:0 "late");
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let s2 = Pstructs.Nb_list_set.recover esys2 payloads in
  Alcotest.(check (list string)) "survivors sorted, delete durable, late lost" [ "a"; "c"; "d" ]
    (Pstructs.Nb_list_set.to_list s2)

(* ---- nonblocking hashmap ---- *)

let test_nbmap_basic () =
  let _, esys = make_esys () in
  let m = Pstructs.Nb_hashmap.create ~buckets:64 esys in
  Alcotest.(check (option string)) "miss" None (Pstructs.Nb_hashmap.get m ~tid:0 "k");
  Alcotest.(check bool) "add" true (Pstructs.Nb_hashmap.add m ~tid:0 "k" "v1");
  Alcotest.(check (option string)) "hit" (Some "v1") (Pstructs.Nb_hashmap.get m ~tid:0 "k");
  Alcotest.(check bool) "add dup" false (Pstructs.Nb_hashmap.add m ~tid:0 "k" "v2");
  Alcotest.(check (option string)) "unchanged" (Some "v1") (Pstructs.Nb_hashmap.get m ~tid:0 "k");
  Alcotest.(check bool) "remove" true (Pstructs.Nb_hashmap.remove m ~tid:0 "k");
  Alcotest.(check bool) "remove again" false (Pstructs.Nb_hashmap.remove m ~tid:0 "k");
  Alcotest.(check bool) "mem after remove" false (Pstructs.Nb_hashmap.mem m "k")

let test_nbmap_concurrent_distinct () =
  let _, esys = make_esys () in
  let m = Pstructs.Nb_hashmap.create ~buckets:64 esys in
  let per = 200 in
  let ds =
    Array.init 3 (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore (Pstructs.Nb_hashmap.add m ~tid (Printf.sprintf "t%d-%03d" tid i) "x")
            done))
  in
  Array.iter Domain.join ds;
  Alcotest.(check int) "all present" (3 * per) (Pstructs.Nb_hashmap.size m)

let test_nbmap_concurrent_contention_with_churn () =
  let _, esys = make_esys () in
  let m = Pstructs.Nb_hashmap.create ~buckets:8 esys in
  let stop = Atomic.make false in
  let ops = Atomic.make 0 in
  let ticker =
    Domain.spawn (fun () ->
        let last = ref (-1) in
        while not (Atomic.get stop) do
          let seen = Atomic.get ops in
          if seen <> !last then begin
            last := seen;
            E.advance_epoch esys ~tid:5
          end
          else Domain.cpu_relax ()
        done)
  in
  let ds =
    Array.init 3 (fun tid ->
        Domain.spawn (fun () ->
            let rng = Util.Xoshiro.create (tid + 21) in
            for _ = 1 to 400 do
              let k = Printf.sprintf "k%02d" (Util.Xoshiro.int rng 16) in
              if Util.Xoshiro.bool rng then ignore (Pstructs.Nb_hashmap.add m ~tid k "v")
              else ignore (Pstructs.Nb_hashmap.remove m ~tid k);
              Atomic.incr ops
            done))
  in
  Array.iter Domain.join ds;
  Atomic.set stop true;
  Domain.join ticker;
  let pairs = Pstructs.Nb_hashmap.to_alist m ~tid:0 in
  let keys = List.map fst pairs in
  Alcotest.(check bool) "no duplicate keys" true
    (List.length keys = List.length (List.sort_uniq compare keys))

let test_nbmap_crash_recovery () =
  let region, esys = make_esys () in
  let m = Pstructs.Nb_hashmap.create ~buckets:32 esys in
  for i = 0 to 49 do
    ignore (Pstructs.Nb_hashmap.add m ~tid:0 (Printf.sprintf "k%02d" i) (string_of_int i))
  done;
  ignore (Pstructs.Nb_hashmap.remove m ~tid:0 "k10");
  E.sync esys ~tid:0;
  ignore (Pstructs.Nb_hashmap.add m ~tid:0 "late" "x");
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let m2 = Pstructs.Nb_hashmap.recover ~buckets:32 esys2 payloads in
  Alcotest.(check int) "49 pairs" 49 (Pstructs.Nb_hashmap.size m2);
  Alcotest.(check (option string)) "value intact" (Some "33") (Pstructs.Nb_hashmap.get m2 ~tid:0 "k33");
  Alcotest.(check (option string)) "remove durable" None (Pstructs.Nb_hashmap.get m2 ~tid:0 "k10");
  Alcotest.(check (option string)) "late lost" None (Pstructs.Nb_hashmap.get m2 ~tid:0 "late")

let () =
  Alcotest.run "ordered"
    [
      ( "skiplist",
        [
          Alcotest.test_case "basic" `Quick test_skiplist_basic;
          Alcotest.test_case "set reads no replaced value" `Quick test_skiplist_set;
          Alcotest.test_case "ordered iteration" `Quick test_skiplist_ordered_iteration;
          Alcotest.test_case "range query" `Quick test_skiplist_range_query;
          Alcotest.test_case "many keys vs model" `Quick test_skiplist_many_keys;
          Alcotest.test_case "crash recovery" `Quick test_skiplist_crash_recovery;
          Alcotest.test_case "parallel recovery" `Quick test_skiplist_parallel_recovery;
          Alcotest.test_case "concurrent reads" `Quick test_skiplist_concurrent_reads_during_writes;
          QCheck_alcotest.to_alcotest qcheck_skiplist_vs_map;
        ] );
      ( "nb_list_set",
        [
          Alcotest.test_case "basic" `Quick test_set_basic;
          Alcotest.test_case "sorted" `Quick test_set_sorted;
          Alcotest.test_case "concurrent distinct" `Quick test_set_concurrent_distinct;
          Alcotest.test_case "concurrent contention" `Quick test_set_concurrent_contention;
          Alcotest.test_case "epoch churn" `Quick test_set_epoch_churn;
          Alcotest.test_case "crash recovery" `Quick test_set_crash_recovery;
        ] );
      ( "nb_hashmap",
        [
          Alcotest.test_case "basic" `Quick test_nbmap_basic;
          Alcotest.test_case "concurrent distinct" `Quick test_nbmap_concurrent_distinct;
          Alcotest.test_case "contention + churn" `Quick test_nbmap_concurrent_contention_with_churn;
          Alcotest.test_case "crash recovery" `Quick test_nbmap_crash_recovery;
        ] );
    ]
