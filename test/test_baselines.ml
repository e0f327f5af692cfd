(* Tests for the baseline systems: functional behaviour, persistence
   cost profiles, and (where implemented) recovery. *)

let make_region ?(capacity = 1 lsl 24) () =
  Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity ()

let make_pm ?capacity () =
  let region = make_region ?capacity () in
  (region, Baselines.Pmem.create region)

(* Carve the superblock for [size]'s class up front, so fence-counting
   tests don't see the one-time header persist. *)
let prewarm pm size =
  let off = Baselines.Pmem.alloc pm ~tid:0 ~size in
  Baselines.Pmem.free pm ~tid:0 off

(* ---- transient baselines ---- *)

let test_transient_map_dram () =
  let m = Baselines.Transient_map.create ~buckets:16 Baselines.Transient_map.Dram in
  Alcotest.(check (option string)) "put" None (Baselines.Transient_map.put m ~tid:0 "a" "1");
  Alcotest.(check (option string)) "get" (Some "1") (Baselines.Transient_map.get m ~tid:0 "a");
  Alcotest.(check (option string)) "update" (Some "1") (Baselines.Transient_map.put m ~tid:0 "a" "2");
  Alcotest.(check (option string)) "remove" (Some "2") (Baselines.Transient_map.remove m ~tid:0 "a");
  Alcotest.(check int) "size" 0 (Baselines.Transient_map.size m);
  (* DRAM (T) stays comparable with the Montage map: the same lock table *)
  Alcotest.(check int) "Mhashmap's stripe count" Pstructs.Mhashmap.stripes
    Baselines.Transient_map.stripes

let test_transient_map_nvm_no_persistence_ops () =
  let region, pm = make_pm () in
  let m = Baselines.Transient_map.create ~buckets:16 (Baselines.Transient_map.Nvm pm) in
  prewarm pm 16;
  let s0 = Nvm.Region.stats region in
  ignore (Baselines.Transient_map.put m ~tid:0 "key" "value");
  Alcotest.(check (option string)) "roundtrip through NVM" (Some "value")
    (Baselines.Transient_map.get m ~tid:0 "key");
  ignore (Baselines.Transient_map.remove m ~tid:0 "key");
  let s1 = Nvm.Region.stats region in
  (* NVM (T) never flushes or fences on the data path *)
  Alcotest.(check int) "no fences" s0.Nvm.Region.fences s1.Nvm.Region.fences

let test_transient_queue () =
  let _, pm = make_pm () in
  List.iter
    (fun placement ->
      let q = Baselines.Transient_queue.create placement in
      Baselines.Transient_queue.enqueue q ~tid:0 "x";
      Baselines.Transient_queue.enqueue q ~tid:0 "y";
      Alcotest.(check (option string)) "fifo x" (Some "x") (Baselines.Transient_queue.dequeue q ~tid:0);
      Alcotest.(check (option string)) "fifo y" (Some "y") (Baselines.Transient_queue.dequeue q ~tid:0);
      Alcotest.(check (option string)) "empty" None (Baselines.Transient_queue.dequeue q ~tid:0))
    [ Baselines.Transient_queue.Dram; Baselines.Transient_queue.Nvm pm ]

(* ---- Friedman queue ---- *)

let test_friedman_fifo () =
  let _, pm = make_pm () in
  let q = Baselines.Friedman_queue.create pm in
  for i = 1 to 5 do
    Baselines.Friedman_queue.enqueue q ~tid:0 (string_of_int i)
  done;
  let order = List.init 5 (fun _ -> Option.get (Baselines.Friedman_queue.dequeue q ~tid:0)) in
  Alcotest.(check (list string)) "FIFO" [ "1"; "2"; "3"; "4"; "5" ] order;
  Alcotest.(check (option string)) "empty" None (Baselines.Friedman_queue.dequeue q ~tid:0)

let test_friedman_persists_every_op () =
  let region, pm = make_pm () in
  let q = Baselines.Friedman_queue.create pm in
  let s0 = Nvm.Region.stats region in
  Baselines.Friedman_queue.enqueue q ~tid:0 "durable";
  let s1 = Nvm.Region.stats region in
  (* strict durability: at least node persist + link persist *)
  Alcotest.(check bool) "enqueue fences" true (s1.Nvm.Region.fences - s0.Nvm.Region.fences >= 2);
  ignore (Baselines.Friedman_queue.dequeue q ~tid:0);
  let s2 = Nvm.Region.stats region in
  Alcotest.(check bool) "dequeue fences" true (s2.Nvm.Region.fences - s1.Nvm.Region.fences >= 1)

let test_friedman_crash_recovery () =
  let region, pm = make_pm () in
  let q = Baselines.Friedman_queue.create pm in
  for i = 1 to 6 do
    Baselines.Friedman_queue.enqueue q ~tid:0 (Printf.sprintf "v%d" i)
  done;
  ignore (Baselines.Friedman_queue.dequeue q ~tid:0);
  ignore (Baselines.Friedman_queue.dequeue q ~tid:0);
  Nvm.Region.crash region;
  let pm2 = Baselines.Pmem.create region in
  let q2 = Baselines.Friedman_queue.recover pm2 in
  let order = List.init 4 (fun _ -> Option.get (Baselines.Friedman_queue.dequeue q2 ~tid:0)) in
  Alcotest.(check (list string)) "survivors in order" [ "v3"; "v4"; "v5"; "v6" ] order

let test_friedman_concurrent () =
  let _, pm = make_pm () in
  let q = Baselines.Friedman_queue.create pm in
  let per = 200 in
  let producers =
    Array.init 2 (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Baselines.Friedman_queue.enqueue q ~tid (Printf.sprintf "%d-%d" tid i)
            done))
  in
  Array.iter Domain.join producers;
  let n = ref 0 in
  while Baselines.Friedman_queue.dequeue q ~tid:2 <> None do
    incr n
  done;
  Alcotest.(check int) "all delivered" (2 * per) !n

(* ---- Dalí ---- *)

let test_dali_basic () =
  let _, pm = make_pm () in
  let m = Baselines.Dali_map.create ~buckets:64 pm in
  Alcotest.(check (option string)) "put" None (Baselines.Dali_map.put m ~tid:0 "a" "1");
  Alcotest.(check (option string)) "get" (Some "1") (Baselines.Dali_map.get m ~tid:0 "a");
  Alcotest.(check (option string)) "same-size update" (Some "1") (Baselines.Dali_map.put m ~tid:0 "a" "2");
  Alcotest.(check (option string)) "longer update" (Some "2")
    (Baselines.Dali_map.put m ~tid:0 "a" "longer-value");
  Alcotest.(check (option string)) "read it" (Some "longer-value") (Baselines.Dali_map.get m ~tid:0 "a");
  Alcotest.(check (option string)) "remove" (Some "longer-value") (Baselines.Dali_map.remove m ~tid:0 "a");
  Alcotest.(check (option string)) "gone" None (Baselines.Dali_map.get m ~tid:0 "a")

let test_dali_buffered_no_fence_per_op () =
  let region, pm = make_pm () in
  let m = Baselines.Dali_map.create ~buckets:64 pm in
  prewarm pm 32;
  let s0 = Nvm.Region.stats region in
  for i = 0 to 49 do
    ignore (Baselines.Dali_map.put m ~tid:0 (string_of_int i) "v")
  done;
  let s1 = Nvm.Region.stats region in
  Alcotest.(check int) "no per-op fences" s0.Nvm.Region.fences s1.Nvm.Region.fences;
  Baselines.Dali_map.persist_all m ~tid:0;
  let s2 = Nvm.Region.stats region in
  Alcotest.(check bool) "periodic persist fences once" true (s2.Nvm.Region.fences = s1.Nvm.Region.fences + 1);
  Alcotest.(check bool) "and wrote the dirty data back" true
    (s2.Nvm.Region.writebacks - s1.Nvm.Region.writebacks >= 50)

let test_dali_many_keys () =
  let _, pm = make_pm () in
  let m = Baselines.Dali_map.create ~buckets:16 pm in
  for i = 0 to 199 do
    ignore (Baselines.Dali_map.put m ~tid:0 (Printf.sprintf "key%d" i) (Printf.sprintf "val%d" i))
  done;
  Alcotest.(check int) "size" 200 (Baselines.Dali_map.size m);
  let ok = ref true in
  for i = 0 to 199 do
    if Baselines.Dali_map.get m ~tid:0 (Printf.sprintf "key%d" i) <> Some (Printf.sprintf "val%d" i)
    then ok := false
  done;
  Alcotest.(check bool) "all present" true !ok

(* ---- SOFT ---- *)

let test_soft_insert_only_semantics () =
  let _, pm = make_pm () in
  let m = Baselines.Soft_map.create ~buckets:64 pm in
  Alcotest.(check bool) "insert" true (Baselines.Soft_map.put m ~tid:0 "k" "v1");
  Alcotest.(check bool) "no atomic update" false (Baselines.Soft_map.put m ~tid:0 "k" "v2");
  Alcotest.(check (option string)) "original value" (Some "v1") (Baselines.Soft_map.get m ~tid:0 "k");
  Alcotest.(check (option string)) "remove" (Some "v1") (Baselines.Soft_map.remove m ~tid:0 "k");
  Alcotest.(check bool) "reinsert after remove" true (Baselines.Soft_map.put m ~tid:0 "k" "v2")

let test_soft_strict_persistence_per_update () =
  let region, pm = make_pm () in
  let m = Baselines.Soft_map.create ~buckets:64 pm in
  let s0 = Nvm.Region.stats region in
  ignore (Baselines.Soft_map.put m ~tid:0 "k" "v");
  let s1 = Nvm.Region.stats region in
  Alcotest.(check bool) "insert fences" true (s1.Nvm.Region.fences > s0.Nvm.Region.fences);
  let f1 = s1.Nvm.Region.fences in
  ignore (Baselines.Soft_map.get m ~tid:0 "k");
  let s2 = Nvm.Region.stats region in
  Alcotest.(check int) "reads are NVM-free" f1 s2.Nvm.Region.fences

(* ---- NVTraverse ---- *)

let test_nvtraverse_basic () =
  let _, pm = make_pm () in
  let m = Baselines.Nvtraverse_map.create ~buckets:64 pm in
  Alcotest.(check (option string)) "put" None (Baselines.Nvtraverse_map.put m ~tid:0 "a" "1");
  Alcotest.(check (option string)) "get" (Some "1") (Baselines.Nvtraverse_map.get m ~tid:0 "a");
  Alcotest.(check (option string)) "update" (Some "1") (Baselines.Nvtraverse_map.put m ~tid:0 "a" "22");
  Alcotest.(check (option string)) "remove" (Some "22") (Baselines.Nvtraverse_map.remove m ~tid:0 "a")

let test_nvtraverse_reads_fence_too () =
  let region, pm = make_pm () in
  let m = Baselines.Nvtraverse_map.create ~buckets:64 pm in
  ignore (Baselines.Nvtraverse_map.put m ~tid:0 "k" "v");
  let s0 = Nvm.Region.stats region in
  ignore (Baselines.Nvtraverse_map.get m ~tid:0 "k");
  let s1 = Nvm.Region.stats region in
  Alcotest.(check bool) "read pays a fence" true (s1.Nvm.Region.fences > s0.Nvm.Region.fences)

(* ---- MOD ---- *)

let test_mod_queue_fifo () =
  let _, pm = make_pm () in
  let q = Baselines.Mod_structs.Queue.create pm in
  for i = 1 to 6 do
    Baselines.Mod_structs.Queue.enqueue q ~tid:0 (string_of_int i)
  done;
  Alcotest.(check int) "length" 6 (Baselines.Mod_structs.Queue.length q);
  let order = List.init 6 (fun _ -> Option.get (Baselines.Mod_structs.Queue.dequeue q ~tid:0)) in
  Alcotest.(check (list string)) "FIFO through reversal" [ "1"; "2"; "3"; "4"; "5"; "6" ] order;
  Alcotest.(check (option string)) "empty" None (Baselines.Mod_structs.Queue.dequeue q ~tid:0)

let test_mod_queue_interleaved () =
  let _, pm = make_pm () in
  let q = Baselines.Mod_structs.Queue.create pm in
  Baselines.Mod_structs.Queue.enqueue q ~tid:0 "a";
  Baselines.Mod_structs.Queue.enqueue q ~tid:0 "b";
  Alcotest.(check (option string)) "a" (Some "a") (Baselines.Mod_structs.Queue.dequeue q ~tid:0);
  Baselines.Mod_structs.Queue.enqueue q ~tid:0 "c";
  Alcotest.(check (option string)) "b" (Some "b") (Baselines.Mod_structs.Queue.dequeue q ~tid:0);
  Alcotest.(check (option string)) "c" (Some "c") (Baselines.Mod_structs.Queue.dequeue q ~tid:0)

let test_mod_queue_two_fences_per_enqueue () =
  let region, pm = make_pm () in
  let q = Baselines.Mod_structs.Queue.create pm in
  prewarm pm 16;
  let s0 = Nvm.Region.stats region in
  Baselines.Mod_structs.Queue.enqueue q ~tid:0 "x";
  let s1 = Nvm.Region.stats region in
  Alcotest.(check int) "two ordering points" 2 (s1.Nvm.Region.fences - s0.Nvm.Region.fences)

let test_mod_map_basic () =
  let _, pm = make_pm () in
  let m = Baselines.Mod_structs.Map.create ~buckets:16 pm in
  Alcotest.(check (option string)) "put" None (Baselines.Mod_structs.Map.put m ~tid:0 "a" "1");
  Alcotest.(check (option string)) "get" (Some "1") (Baselines.Mod_structs.Map.get m ~tid:0 "a");
  Alcotest.(check (option string)) "update" (Some "1") (Baselines.Mod_structs.Map.put m ~tid:0 "a" "2");
  Alcotest.(check (option string)) "get2" (Some "2") (Baselines.Mod_structs.Map.get m ~tid:0 "a");
  Alcotest.(check (option string)) "remove" (Some "2") (Baselines.Mod_structs.Map.remove m ~tid:0 "a");
  Alcotest.(check (option string)) "gone" None (Baselines.Mod_structs.Map.get m ~tid:0 "a")

let test_mod_map_many () =
  let _, pm = make_pm () in
  let m = Baselines.Mod_structs.Map.create ~buckets:64 pm in
  for i = 0 to 99 do
    ignore (Baselines.Mod_structs.Map.put m ~tid:0 (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i))
  done;
  Alcotest.(check int) "size" 100 (Baselines.Mod_structs.Map.size m);
  ignore (Baselines.Mod_structs.Map.remove m ~tid:0 "k50");
  Alcotest.(check (option string)) "removed" None (Baselines.Mod_structs.Map.get m ~tid:0 "k50");
  Alcotest.(check (option string)) "others intact" (Some "v51") (Baselines.Mod_structs.Map.get m ~tid:0 "k51")

(* ---- Pronto ---- *)

let test_pronto_sync_basic () =
  let region = make_region ~capacity:(1 lsl 26) () in
  let pm = Baselines.Pmem.create region in
  let p = Baselines.Pronto.create ~buckets:64 ~threads:2 ~mode:Baselines.Pronto.Sync pm in
  Alcotest.(check (option string)) "put" None (Baselines.Pronto.put p ~tid:0 "a" "1");
  Alcotest.(check (option string)) "get" (Some "1") (Baselines.Pronto.get p ~tid:0 "a");
  Alcotest.(check (option string)) "update" (Some "1") (Baselines.Pronto.put p ~tid:0 "a" "2");
  Alcotest.(check (option string)) "remove" (Some "2") (Baselines.Pronto.remove p ~tid:0 "a")

let test_pronto_sync_fences_per_op () =
  let region = make_region ~capacity:(1 lsl 26) () in
  let pm = Baselines.Pmem.create region in
  let p = Baselines.Pronto.create ~buckets:64 ~threads:2 ~mode:Baselines.Pronto.Sync pm in
  let s0 = Nvm.Region.stats region in
  ignore (Baselines.Pronto.put p ~tid:0 "k" "v");
  let s1 = Nvm.Region.stats region in
  Alcotest.(check bool) "log persisted synchronously" true (s1.Nvm.Region.fences > s0.Nvm.Region.fences)

let test_pronto_recovery_from_log () =
  let region = make_region ~capacity:(1 lsl 26) () in
  let pm = Baselines.Pmem.create region in
  let p = Baselines.Pronto.create ~buckets:64 ~threads:2 ~mode:Baselines.Pronto.Sync pm in
  for i = 0 to 19 do
    ignore (Baselines.Pronto.put p ~tid:0 (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i))
  done;
  ignore (Baselines.Pronto.remove p ~tid:0 "k5");
  ignore (Baselines.Pronto.put p ~tid:0 "k6" "updated");
  Nvm.Region.crash region;
  let pm2 = Baselines.Pmem.create region in
  let p2 = Baselines.Pronto.recover ~buckets:64 ~threads:2 ~mode:Baselines.Pronto.Sync pm2 in
  Alcotest.(check (option string)) "survives" (Some "v3") (Baselines.Pronto.get p2 ~tid:0 "k3");
  Alcotest.(check (option string)) "remove replayed" None (Baselines.Pronto.get p2 ~tid:0 "k5");
  Alcotest.(check (option string)) "update replayed" (Some "updated") (Baselines.Pronto.get p2 ~tid:0 "k6");
  Alcotest.(check int) "size" 19 (Baselines.Pronto.size p2)

let test_pronto_recovery_with_checkpoint () =
  let region = make_region ~capacity:(1 lsl 26) () in
  let pm = Baselines.Pmem.create region in
  let p = Baselines.Pronto.create ~buckets:64 ~threads:2 ~ckpt_every:10 ~mode:Baselines.Pronto.Sync pm in
  for i = 0 to 24 do
    ignore (Baselines.Pronto.put p ~tid:0 (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i))
  done;
  Nvm.Region.crash region;
  let pm2 = Baselines.Pmem.create region in
  let p2 = Baselines.Pronto.recover ~buckets:64 ~threads:2 ~mode:Baselines.Pronto.Sync pm2 in
  Alcotest.(check int) "checkpoint + log replay complete" 25 (Baselines.Pronto.size p2);
  Alcotest.(check (option string)) "spot check" (Some "v20") (Baselines.Pronto.get p2 ~tid:0 "k20")

let test_pronto_full_mode () =
  let region = make_region ~capacity:(1 lsl 26) () in
  let pm = Baselines.Pmem.create region in
  let p = Baselines.Pronto.create ~buckets:64 ~threads:2 ~mode:Baselines.Pronto.Full pm in
  for i = 0 to 9 do
    ignore (Baselines.Pronto.put p ~tid:0 (string_of_int i) "v")
  done;
  Alcotest.(check int) "all inserted" 10 (Baselines.Pronto.size p)

(* ---- Mnemosyne ---- *)

let test_mnemosyne_stm_basic () =
  let region = make_region ~capacity:(1 lsl 25) () in
  let stm = Baselines.Mnemosyne.create ~words:1024 ~threads:2 region in
  Baselines.Mnemosyne.atomically stm ~tid:0 (fun tx ->
      Baselines.Mnemosyne.tx_write stm tx 0 42;
      Baselines.Mnemosyne.tx_write stm tx 1 43);
  let v =
    Baselines.Mnemosyne.atomically stm ~tid:0 (fun tx ->
        Baselines.Mnemosyne.tx_read stm tx 0 + Baselines.Mnemosyne.tx_read stm tx 1)
  in
  Alcotest.(check int) "transactional read" 85 v

let test_mnemosyne_commit_persists_home () =
  let region = make_region ~capacity:(1 lsl 25) () in
  let stm = Baselines.Mnemosyne.create ~words:1024 ~threads:2 region in
  Baselines.Mnemosyne.atomically stm ~tid:0 (fun tx -> Baselines.Mnemosyne.tx_write stm tx 7 99);
  (* the home location (cell_base + 8*7) must be durable after commit *)
  Nvm.Region.crash region;
  Alcotest.(check int) "word durable in home slot" 99 (Nvm.Region.get_i64 region ~off:(65536 + 56))

let test_mnemosyne_two_fences_per_tx () =
  let region = make_region ~capacity:(1 lsl 25) () in
  let stm = Baselines.Mnemosyne.create ~words:1024 ~threads:2 region in
  let s0 = Nvm.Region.stats region in
  Baselines.Mnemosyne.atomically stm ~tid:0 (fun tx -> Baselines.Mnemosyne.tx_write stm tx 0 1);
  let s1 = Nvm.Region.stats region in
  Alcotest.(check int) "log fence + home fence" 2 (s1.Nvm.Region.fences - s0.Nvm.Region.fences)

(* Repeated: a read that pairs an old value with a new version loses
   an increment only now and then, so one round rarely shows it. *)
let test_mnemosyne_conflict_aborts_and_retries () =
  for round = 1 to 10 do
    let region = make_region ~capacity:(1 lsl 25) () in
    let stm = Baselines.Mnemosyne.create ~words:64 ~threads:4 region in
    let domains =
      Array.init 4 (fun tid ->
          Domain.spawn (fun () ->
              for _ = 1 to 500 do
                Baselines.Mnemosyne.atomically stm ~tid (fun tx ->
                    let v = Baselines.Mnemosyne.tx_read stm tx 0 in
                    Baselines.Mnemosyne.tx_write stm tx 0 (v + 1))
              done))
    in
    Array.iter Domain.join domains;
    let v =
      Baselines.Mnemosyne.atomically stm ~tid:0 (fun tx -> Baselines.Mnemosyne.tx_read stm tx 0)
    in
    Alcotest.(check int) (Printf.sprintf "atomic counter (round %d)" round) 2000 v
  done

let test_mnemosyne_map () =
  let region = make_region ~capacity:(1 lsl 25) () in
  let stm = Baselines.Mnemosyne.create ~words:(1 lsl 16) ~threads:2 region in
  let m = Baselines.Mnemosyne.Map.create ~buckets:64 stm in
  Alcotest.(check (option string)) "put" None (Baselines.Mnemosyne.Map.put m ~tid:0 "a" "1");
  Alcotest.(check (option string)) "get" (Some "1") (Baselines.Mnemosyne.Map.get m ~tid:0 "a");
  Alcotest.(check (option string)) "update" (Some "1") (Baselines.Mnemosyne.Map.put m ~tid:0 "a" "2");
  Alcotest.(check (option string)) "remove" (Some "2") (Baselines.Mnemosyne.Map.remove m ~tid:0 "a");
  Alcotest.(check (option string)) "gone" None (Baselines.Mnemosyne.Map.get m ~tid:0 "a");
  for i = 0 to 49 do
    ignore (Baselines.Mnemosyne.Map.put m ~tid:0 (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i))
  done;
  Alcotest.(check int) "bulk size" 50 (Baselines.Mnemosyne.Map.size m);
  Alcotest.(check (option string)) "bulk get" (Some "v31") (Baselines.Mnemosyne.Map.get m ~tid:0 "k31")

let () =
  Alcotest.run "baselines"
    [
      ( "transient",
        [
          Alcotest.test_case "DRAM map" `Quick test_transient_map_dram;
          Alcotest.test_case "NVM map no persistence" `Quick test_transient_map_nvm_no_persistence_ops;
          Alcotest.test_case "queues" `Quick test_transient_queue;
        ] );
      ( "friedman",
        [
          Alcotest.test_case "FIFO" `Quick test_friedman_fifo;
          Alcotest.test_case "persists every op" `Quick test_friedman_persists_every_op;
          Alcotest.test_case "crash recovery" `Quick test_friedman_crash_recovery;
          Alcotest.test_case "concurrent" `Quick test_friedman_concurrent;
        ] );
      ( "dali",
        [
          Alcotest.test_case "basic ops" `Quick test_dali_basic;
          Alcotest.test_case "buffered persistence" `Quick test_dali_buffered_no_fence_per_op;
          Alcotest.test_case "many keys" `Quick test_dali_many_keys;
        ] );
      ( "soft",
        [
          Alcotest.test_case "insert-only semantics" `Quick test_soft_insert_only_semantics;
          Alcotest.test_case "strict persistence" `Quick test_soft_strict_persistence_per_update;
        ] );
      ( "nvtraverse",
        [
          Alcotest.test_case "basic ops" `Quick test_nvtraverse_basic;
          Alcotest.test_case "reads fence" `Quick test_nvtraverse_reads_fence_too;
        ] );
      ( "mod",
        [
          Alcotest.test_case "queue FIFO" `Quick test_mod_queue_fifo;
          Alcotest.test_case "queue interleaved" `Quick test_mod_queue_interleaved;
          Alcotest.test_case "two fences per enqueue" `Quick test_mod_queue_two_fences_per_enqueue;
          Alcotest.test_case "map basic" `Quick test_mod_map_basic;
          Alcotest.test_case "map many" `Quick test_mod_map_many;
        ] );
      ( "pronto",
        [
          Alcotest.test_case "sync basic" `Quick test_pronto_sync_basic;
          Alcotest.test_case "sync fences per op" `Quick test_pronto_sync_fences_per_op;
          Alcotest.test_case "recovery from log" `Quick test_pronto_recovery_from_log;
          Alcotest.test_case "recovery with checkpoint" `Quick test_pronto_recovery_with_checkpoint;
          Alcotest.test_case "full mode" `Quick test_pronto_full_mode;
        ] );
      ( "mnemosyne",
        [
          Alcotest.test_case "stm basic" `Quick test_mnemosyne_stm_basic;
          Alcotest.test_case "commit persists home" `Quick test_mnemosyne_commit_persists_home;
          Alcotest.test_case "two fences per tx" `Quick test_mnemosyne_two_fences_per_tx;
          Alcotest.test_case "conflicts retry" `Quick test_mnemosyne_conflict_aborts_and_retries;
          Alcotest.test_case "map" `Quick test_mnemosyne_map;
        ] );
    ]
