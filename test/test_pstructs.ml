(* Tests for the Montage data structures: hashmap, queue, stack,
   nonblocking stack/queue, and graph — functional behaviour,
   concurrency, and crash recovery. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config

let testing_cfg = { Cfg.testing with max_threads = 6 }

let make_esys ?(capacity = 1 lsl 24) () =
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity () in
  (region, E.create ~config:testing_cfg region)

(* ---- hashmap ---- *)

let test_map_put_get_remove () =
  let _, esys = make_esys () in
  let m = Pstructs.Mhashmap.create ~buckets:64 esys in
  Alcotest.(check (option string)) "empty get" None (Pstructs.Mhashmap.get m ~tid:0 "k1");
  Alcotest.(check (option string)) "fresh put" None (Pstructs.Mhashmap.put m ~tid:0 "k1" "v1");
  Alcotest.(check (option string)) "get back" (Some "v1") (Pstructs.Mhashmap.get m ~tid:0 "k1");
  Alcotest.(check (option string)) "update returns old" (Some "v1") (Pstructs.Mhashmap.put m ~tid:0 "k1" "v2");
  Alcotest.(check (option string)) "updated" (Some "v2") (Pstructs.Mhashmap.get m ~tid:0 "k1");
  Alcotest.(check (option string)) "remove returns value" (Some "v2") (Pstructs.Mhashmap.remove m ~tid:0 "k1");
  Alcotest.(check (option string)) "gone" None (Pstructs.Mhashmap.get m ~tid:0 "k1");
  Alcotest.(check (option string)) "remove missing" None (Pstructs.Mhashmap.remove m ~tid:0 "k1")

let test_map_put_if_absent () =
  let _, esys = make_esys () in
  let m = Pstructs.Mhashmap.create ~buckets:64 esys in
  Alcotest.(check bool) "first wins" true (Pstructs.Mhashmap.put_if_absent m ~tid:0 "k" "a");
  Alcotest.(check bool) "second loses" false (Pstructs.Mhashmap.put_if_absent m ~tid:0 "k" "b");
  Alcotest.(check (option string)) "value is first" (Some "a") (Pstructs.Mhashmap.get m ~tid:0 "k")

let test_map_size_and_collisions () =
  let _, esys = make_esys () in
  (* 4 buckets: guaranteed collisions exercise chain order *)
  let m = Pstructs.Mhashmap.create ~buckets:4 esys in
  for i = 0 to 99 do
    ignore (Pstructs.Mhashmap.put m ~tid:0 (Pstruct_gen.key3 i) (string_of_int i))
  done;
  Alcotest.(check int) "size" 100 (Pstructs.Mhashmap.size m);
  let ok = ref true in
  for i = 0 to 99 do
    if Pstructs.Mhashmap.get m ~tid:0 (Pstruct_gen.key3 i) <> Some (string_of_int i) then
      ok := false
  done;
  Alcotest.(check bool) "all retrievable" true !ok

let test_map_concurrent_disjoint_keys () =
  let _, esys = make_esys () in
  let m = Pstructs.Mhashmap.create ~buckets:256 esys in
  let per = 300 in
  let domains =
    Array.init 4 (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore (Pstructs.Mhashmap.put m ~tid (Pstruct_gen.tid_key tid i) "x")
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "all inserted" (4 * per) (Pstructs.Mhashmap.size m)

let test_map_concurrent_same_key_last_writer () =
  let _, esys = make_esys () in
  let m = Pstructs.Mhashmap.create ~buckets:16 esys in
  let domains =
    Array.init 4 (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to 200 do
              ignore (Pstructs.Mhashmap.put m ~tid "hot" (Printf.sprintf "%d:%d" tid i))
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "single key" 1 (Pstructs.Mhashmap.size m);
  Alcotest.(check bool) "some value present" true (Pstructs.Mhashmap.get m ~tid:0 "hot" <> None)

let test_map_crash_recovery_preserves_synced () =
  let region, esys = make_esys () in
  let m = Pstructs.Mhashmap.create ~buckets:64 esys in
  for i = 0 to 49 do
    ignore (Pstructs.Mhashmap.put m ~tid:0 (Pstruct_gen.k i) (Pstruct_gen.v i))
  done;
  E.sync esys ~tid:0;
  (* post-sync writes are lost by the crash *)
  ignore (Pstructs.Mhashmap.put m ~tid:0 "late" "update");
  ignore (Pstructs.Mhashmap.remove m ~tid:0 "k0");
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let m2 = Pstructs.Mhashmap.recover ~buckets:64 esys2 payloads in
  Alcotest.(check int) "synced contents recovered" 50 (Pstructs.Mhashmap.size m2);
  Alcotest.(check (option string)) "k0 still there (remove rolled back)" (Some "v0")
    (Pstructs.Mhashmap.get m2 ~tid:0 "k0");
  Alcotest.(check (option string)) "late insert lost" None (Pstructs.Mhashmap.get m2 ~tid:0 "late")

let test_map_parallel_recovery_matches () =
  let region, esys = make_esys () in
  let m = Pstructs.Mhashmap.create ~buckets:64 esys in
  for i = 0 to 199 do
    ignore (Pstructs.Mhashmap.put m ~tid:0 (Pstruct_gen.k3 i) (string_of_int (i * i)))
  done;
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let m2 = Pstructs.Mhashmap.recover ~buckets:64 ~threads:4 esys2 payloads in
  Alcotest.(check int) "all pairs" 200 (Pstructs.Mhashmap.size m2);
  let sorted = List.sort compare (Pstructs.Mhashmap.to_alist m2 ~tid:0) in
  let expected = List.init 200 (fun i -> (Pstruct_gen.k3 i, string_of_int (i * i))) in
  Alcotest.(check bool) "contents identical" true (sorted = expected)

(* [buckets] is a mask width: anything but a positive power of two is
   refused when the map is built, not at its first operation. *)
let test_map_buckets_power_of_two () =
  let region, esys = make_esys ~capacity:(1 lsl 20) () in
  List.iter
    (fun buckets ->
      Alcotest.check_raises (Printf.sprintf "create ~buckets:%d" buckets)
        (Invalid_argument
           (Printf.sprintf "Mhashmap: buckets = %d is not a positive power of two" buckets))
        (fun () -> ignore (Pstructs.Mhashmap.create ~buckets esys)))
    [ 0; -4; 3; 100; 1000 ];
  ignore (Pstructs.Mhashmap.put (Pstructs.Mhashmap.create ~buckets:1 esys) ~tid:0 "k" "v");
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  Alcotest.check_raises "recover ~buckets:48"
    (Invalid_argument "Mhashmap: buckets = 48 is not a positive power of two") (fun () ->
      ignore (Pstructs.Mhashmap.recover ~buckets:48 esys2 payloads))

(* four buckets per lock *)
let alias_buckets = 4 * Pstructs.Mhashmap.stripes

let test_map_stripe_aliasing_modify () =
  let _, esys = make_esys () in
  let m = Pstructs.Mhashmap.create ~buckets:alias_buckets esys in
  let keys = Pstruct_gen.stripe_aliased_keys ~buckets:alias_buckets 4 in
  let rounds = 300 in
  let incr cur =
    let n =
      match cur with
      | None -> 0
      | Some v -> int_of_string (Montage.Payload.View.to_string v)
    in
    Some (Montage.Payload.fill_string (string_of_int (n + 1)))
  in
  let domains =
    Array.init 2 (fun tid ->
        Domain.spawn (fun () ->
            for _ = 1 to rounds do
              List.iter (fun k -> Pstructs.Mhashmap.modify m ~tid k incr) keys
            done))
  in
  Array.iter Domain.join domains;
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        k
        (Some (string_of_int (2 * rounds)))
        (Pstructs.Mhashmap.get m ~tid:0 k))
    keys

(* The parallel rebuild splices two slices' records into chains that
   share locks; the result must be the sequential rebuild, in the same
   chain order. *)
let test_map_stripe_aliasing_recovery () =
  let region, esys = make_esys () in
  let m = Pstructs.Mhashmap.create ~buckets:alias_buckets esys in
  let n = 3000 in
  for i = 0 to n - 1 do
    ignore (Pstructs.Mhashmap.put m ~tid:0 (Pstruct_gen.k3 i) (string_of_int i))
  done;
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let rebuild threads =
    let m2 = Pstructs.Mhashmap.recover ~buckets:alias_buckets ~threads esys2 payloads in
    Pstructs.Mhashmap.to_alist m2 ~tid:0
  in
  let seq = rebuild 1 in
  Alcotest.(check int) "all pairs" n (List.length seq);
  Alcotest.(check bool) "threads:2 = threads:1" true (rebuild 2 = seq)

(* model-based property: the map behaves like a sequential assoc map *)
let qcheck_map_vs_model =
  QCheck.Test.make ~name:"hashmap matches model under random ops" ~count:30
    Pstruct_gen.script_arb
    (fun script ->
      let _, esys = make_esys ~capacity:(1 lsl 22) () in
      let m = Pstructs.Mhashmap.create ~buckets:8 esys in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, v) ->
          let key = Pstruct_gen.num_key k in
          if String.length v mod 3 = 0 then begin
            (* remove *)
            let expected = Hashtbl.find_opt model key in
            Hashtbl.remove model key;
            Pstructs.Mhashmap.remove m ~tid:0 key = expected
          end
          else begin
            let expected = Hashtbl.find_opt model key in
            Hashtbl.replace model key v;
            Pstructs.Mhashmap.put m ~tid:0 key v = expected
          end)
        script
      && Hashtbl.fold
           (fun k v acc -> acc && Pstructs.Mhashmap.get m ~tid:0 k = Some v)
           model true)

(* ---- queue ---- *)

let test_queue_fifo () =
  let _, esys = make_esys () in
  let q = Pstructs.Mqueue.create esys in
  List.iter (Pstructs.Mqueue.enqueue q ~tid:0) [ "a"; "b"; "c" ];
  Alcotest.(check (option string)) "peek" (Some "a") (Pstructs.Mqueue.peek q ~tid:0);
  Alcotest.(check (option string)) "a" (Some "a") (Pstructs.Mqueue.dequeue q ~tid:0);
  Alcotest.(check (option string)) "b" (Some "b") (Pstructs.Mqueue.dequeue q ~tid:0);
  Pstructs.Mqueue.enqueue q ~tid:0 "d";
  Alcotest.(check (option string)) "c" (Some "c") (Pstructs.Mqueue.dequeue q ~tid:0);
  Alcotest.(check (option string)) "d" (Some "d") (Pstructs.Mqueue.dequeue q ~tid:0);
  Alcotest.(check (option string)) "empty" None (Pstructs.Mqueue.dequeue q ~tid:0)

let test_queue_crash_recovery_order () =
  let region, esys = make_esys () in
  let q = Pstructs.Mqueue.create esys in
  for i = 1 to 10 do
    Pstructs.Mqueue.enqueue q ~tid:0 (Printf.sprintf "item%02d" i)
  done;
  (* consume three, then sync: recovered queue = items 4..10 *)
  for _ = 1 to 3 do
    ignore (Pstructs.Mqueue.dequeue q ~tid:0)
  done;
  E.sync esys ~tid:0;
  Pstructs.Mqueue.enqueue q ~tid:0 "lost";
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let q2 = Pstructs.Mqueue.recover esys2 payloads in
  Alcotest.(check int) "seven left" 7 (Pstructs.Mqueue.length q2);
  let order = List.init 7 (fun _ -> Option.get (Pstructs.Mqueue.dequeue q2 ~tid:0)) in
  Alcotest.(check (list string)) "FIFO order preserved"
    [ "item04"; "item05"; "item06"; "item07"; "item08"; "item09"; "item10" ]
    order

let test_queue_concurrent_producers_consumers () =
  let _, esys = make_esys () in
  let q = Pstructs.Mqueue.create esys in
  let produced = 400 and consumers_got = Atomic.make 0 in
  let producers =
    Array.init 2 (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to (produced / 2) - 1 do
              Pstructs.Mqueue.enqueue q ~tid (Printf.sprintf "p%d-%d" tid i)
            done))
  in
  let consumers =
    Array.init 2 (fun i ->
        Domain.spawn (fun () ->
            let tid = i + 2 in
            let got = ref 0 in
            while Atomic.get consumers_got + 50 < produced do
              match Pstructs.Mqueue.dequeue q ~tid with
              | Some _ ->
                  incr got;
                  ignore (Atomic.fetch_and_add consumers_got 1)
              | None -> Domain.cpu_relax () (* empty poll: producers still filling *)
            done;
            !got))
  in
  Array.iter Domain.join producers;
  let from_consumers = Array.fold_left (fun acc d -> acc + Domain.join d) 0 consumers in
  let leftover = Pstructs.Mqueue.length q in
  Alcotest.(check int) "nothing lost or duplicated" produced (from_consumers + leftover)

(* ---- stack ---- *)

let test_stack_lifo () =
  let _, esys = make_esys () in
  let s = Pstructs.Mstack.create esys in
  List.iter (Pstructs.Mstack.push s ~tid:0) [ "x"; "y"; "z" ];
  Alcotest.(check (option string)) "top" (Some "z") (Pstructs.Mstack.top s ~tid:0);
  Alcotest.(check (option string)) "z" (Some "z") (Pstructs.Mstack.pop s ~tid:0);
  Alcotest.(check (option string)) "y" (Some "y") (Pstructs.Mstack.pop s ~tid:0);
  Alcotest.(check (option string)) "x" (Some "x") (Pstructs.Mstack.pop s ~tid:0);
  Alcotest.(check (option string)) "empty" None (Pstructs.Mstack.pop s ~tid:0)

let test_stack_crash_recovery () =
  let region, esys = make_esys () in
  let s = Pstructs.Mstack.create esys in
  List.iter (Pstructs.Mstack.push s ~tid:0) [ "bottom"; "middle"; "top" ];
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let s2 = Pstructs.Mstack.recover esys2 payloads in
  Alcotest.(check (option string)) "top first" (Some "top") (Pstructs.Mstack.pop s2 ~tid:0);
  Alcotest.(check (option string)) "then middle" (Some "middle") (Pstructs.Mstack.pop s2 ~tid:0);
  Alcotest.(check (option string)) "then bottom" (Some "bottom") (Pstructs.Mstack.pop s2 ~tid:0)

(* ---- nonblocking stack ---- *)

let test_nb_stack_sequential () =
  let _, esys = make_esys () in
  let s = Pstructs.Nb_stack.create esys in
  Pstructs.Nb_stack.push s ~tid:0 "1";
  Pstructs.Nb_stack.push s ~tid:0 "2";
  Alcotest.(check (option string)) "peek" (Some "2") (Pstructs.Nb_stack.top_value s);
  Alcotest.(check (option string)) "pop 2" (Some "2") (Pstructs.Nb_stack.pop s ~tid:0);
  Alcotest.(check (option string)) "pop 1" (Some "1") (Pstructs.Nb_stack.pop s ~tid:0);
  Alcotest.(check (option string)) "empty" None (Pstructs.Nb_stack.pop s ~tid:0)

let test_nb_stack_concurrent_balance () =
  let _, esys = make_esys () in
  let s = Pstructs.Nb_stack.create esys in
  let per = 300 in
  let pushers =
    Array.init 2 (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Pstructs.Nb_stack.push s ~tid (Printf.sprintf "%d-%d" tid i)
            done))
  in
  Array.iter Domain.join pushers;
  let popped = Atomic.make 0 in
  let poppers =
    Array.init 2 (fun i ->
        Domain.spawn (fun () ->
            let tid = i + 2 in
            let continue = ref true in
            while !continue do
              match Pstructs.Nb_stack.pop s ~tid with
              | Some _ -> ignore (Atomic.fetch_and_add popped 1)
              | None -> continue := false
            done))
  in
  Array.iter Domain.join poppers;
  Alcotest.(check int) "all pushes popped" (2 * per) (Atomic.get popped)

let test_nb_stack_survives_epoch_advances () =
  let _, esys = make_esys () in
  let s = Pstructs.Nb_stack.create esys in
  let stop = Atomic.make false in
  let ops = Atomic.make 0 in
  (* progress-paced clock: tick once per observed batch of operations,
     never on wall time — epoch churn scales with the work instead of
     depending on a sleep racing the worker *)
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
  for i = 0 to 500 do
    Pstructs.Nb_stack.push s ~tid:0 (string_of_int i);
    Atomic.incr ops
  done;
  let count = ref 0 in
  while Pstructs.Nb_stack.pop s ~tid:0 <> None do
    incr count;
    Atomic.incr ops
  done;
  Atomic.set stop true;
  Domain.join ticker;
  Alcotest.(check int) "all pushed under epoch churn" 501 !count

let test_nb_stack_crash_recovery () =
  let region, esys = make_esys () in
  let s = Pstructs.Nb_stack.create esys in
  List.iter (Pstructs.Nb_stack.push s ~tid:0) [ "a"; "b"; "c" ];
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let s2 = Pstructs.Nb_stack.recover esys2 payloads in
  Alcotest.(check (option string)) "LIFO after crash" (Some "c") (Pstructs.Nb_stack.pop s2 ~tid:0);
  Alcotest.(check (option string)) "then b" (Some "b") (Pstructs.Nb_stack.pop s2 ~tid:0);
  Alcotest.(check (option string)) "then a" (Some "a") (Pstructs.Nb_stack.pop s2 ~tid:0)

(* ---- nonblocking queue ---- *)

let test_nb_queue_sequential () =
  let _, esys = make_esys () in
  let q = Pstructs.Nb_queue.create esys in
  Alcotest.(check bool) "starts empty" true (Pstructs.Nb_queue.is_empty q);
  Pstructs.Nb_queue.enqueue q ~tid:0 "a";
  Pstructs.Nb_queue.enqueue q ~tid:0 "b";
  Alcotest.(check (option string)) "peek" (Some "a") (Pstructs.Nb_queue.peek q);
  Alcotest.(check (option string)) "a" (Some "a") (Pstructs.Nb_queue.dequeue q ~tid:0);
  Alcotest.(check (option string)) "b" (Some "b") (Pstructs.Nb_queue.dequeue q ~tid:0);
  Alcotest.(check (option string)) "empty" None (Pstructs.Nb_queue.dequeue q ~tid:0)

let test_nb_queue_concurrent_no_loss () =
  let _, esys = make_esys () in
  let q = Pstructs.Nb_queue.create esys in
  let per = 250 in
  let producers =
    Array.init 2 (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Pstructs.Nb_queue.enqueue q ~tid (Printf.sprintf "%d-%d" tid i)
            done))
  in
  Array.iter Domain.join producers;
  let seen = Hashtbl.create 64 in
  let rec drain () =
    match Pstructs.Nb_queue.dequeue q ~tid:2 with
    | Some v ->
        Alcotest.(check bool) "no duplicates" false (Hashtbl.mem seen v);
        Hashtbl.replace seen v ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all delivered" (2 * per) (Hashtbl.length seen)

let test_nb_queue_per_producer_order () =
  let _, esys = make_esys () in
  let q = Pstructs.Nb_queue.create esys in
  let per = 200 in
  let producers =
    Array.init 2 (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Pstructs.Nb_queue.enqueue q ~tid (Printf.sprintf "%d:%d" tid i)
            done))
  in
  Array.iter Domain.join producers;
  (* FIFO implies each producer's items come out in order *)
  let last = Array.make 2 (-1) in
  let ok = ref true in
  let rec drain () =
    match Pstructs.Nb_queue.dequeue q ~tid:2 with
    | Some v ->
        Scanf.sscanf v "%d:%d" (fun tid i ->
            if i <= last.(tid) then ok := false;
            last.(tid) <- i);
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check bool) "per-producer order" true !ok

let test_nb_queue_crash_recovery () =
  let region, esys = make_esys () in
  let q = Pstructs.Nb_queue.create esys in
  for i = 1 to 5 do
    Pstructs.Nb_queue.enqueue q ~tid:0 (string_of_int i)
  done;
  ignore (Pstructs.Nb_queue.dequeue q ~tid:0);
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let q2 = Pstructs.Nb_queue.recover esys2 payloads in
  let order = List.init 4 (fun _ -> Option.get (Pstructs.Nb_queue.dequeue q2 ~tid:0)) in
  Alcotest.(check (list string)) "order after crash" [ "2"; "3"; "4"; "5" ] order

(* ---- adversarial crash injection on a structure ---- *)

(* The map must recover to the exact synced state even when the crash
   randomly persists unfenced write-backs and evicts dirty lines —
   real hardware's full nondeterminism. *)
let qcheck_map_recovery_under_injection =
  QCheck.Test.make ~name:"map recovery exact under write-back nondeterminism" ~count:25
    QCheck.(pair small_int (int_range 1 60))
    (fun (seed, ops) ->
      let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 22) () in
      let esys = E.create ~config:testing_cfg region in
      let m = Pstructs.Mhashmap.create ~buckets:32 esys in
      let rng = Util.Xoshiro.create seed in
      let model = Hashtbl.create 16 in
      for i = 1 to ops do
        let k = Pstruct_gen.rand_k2 rng in
        if Util.Xoshiro.bool rng then begin
          let v = Printf.sprintf "v%d" i in
          ignore (Pstructs.Mhashmap.put m ~tid:0 k v);
          Hashtbl.replace model k v
        end
        else begin
          ignore (Pstructs.Mhashmap.remove m ~tid:0 k);
          Hashtbl.remove model k
        end
      done;
      E.sync esys ~tid:0;
      (* noise after the sync, then an adversarial crash *)
      ignore (Pstructs.Mhashmap.put m ~tid:0 "noise" "x");
      ignore (Pstructs.Mhashmap.remove m ~tid:0 "k00");
      Nvm.Region.crash
        ~persist_unfenced:(Util.Xoshiro.float rng)
        ~evict_dirty:(Util.Xoshiro.float rng) ~rng region;
      let esys2, payloads = E.recover ~config:testing_cfg region in
      let m2 = Pstructs.Mhashmap.recover ~buckets:32 esys2 payloads in
      let expected = Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare in
      List.sort compare (Pstructs.Mhashmap.to_alist m2 ~tid:0) = expected)

(* ---- index-field recovery ---- *)

(* Two live payloads carrying one key cannot come from a well-formed
   map.  Splicing both would let [get] answer with whichever comes first,
   so the rebuild must refuse, naming both uids. *)
let test_map_recovery_rejects_duplicate_key () =
  let region, esys = make_esys ~capacity:(1 lsl 22) () in
  let p1, p2 =
    E.with_op esys ~tid:0 (fun () ->
        let p1 = Montage.Payload.Kv.pnew esys ~tid:0 ("dup", "first") in
        (p1, Montage.Payload.Kv.pnew esys ~tid:0 ("dup", "second")))
  in
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  Alcotest.(check int) "both payloads survive" 2 (Array.length payloads);
  match Pstructs.Mhashmap.recover ~buckets:64 esys2 payloads with
  | m -> Alcotest.failf "recovered a map of size %d from one key" (Pstructs.Mhashmap.size m)
  | exception Montage.Errors.Corrupt msg ->
      List.iter
        (fun (p : E.pblk) ->
          Alcotest.(check bool) (Printf.sprintf "names uid %d" p.uid) true
            (Substring.contains msg (Printf.sprintf "uid %d" p.uid)))
        [ p1; p2 ]

(* The check spans slices: with two threads the two payloads carrying
   "dup" are rebuilt in different domains, into the same chains.  The
   failing slice releases its bucket lock before raising, so the main
   domain can still use that bucket afterwards. *)
let test_map_recovery_rejects_duplicate_key_across_slices () =
  let region, esys = make_esys ~capacity:(1 lsl 22) () in
  let p1, p2 =
    E.with_op esys ~tid:0 (fun () ->
        let p1 = Montage.Payload.Kv.pnew esys ~tid:0 ("dup", "first") in
        (p1, Montage.Payload.Kv.pnew esys ~tid:0 ("dup", "second")))
  in
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let slices = E.slices payloads ~k:2 in
  Alcotest.(check (list int)) "one payload per slice" [ 1; 1 ]
    (Array.to_list (Array.map Array.length slices));
  let names_both what msg =
    List.iter
      (fun (p : E.pblk) ->
        Alcotest.(check bool) (Printf.sprintf "%s names uid %d" what p.uid) true
          (Substring.contains msg (Printf.sprintf "uid %d" p.uid)))
      [ p1; p2 ]
  in
  (match Pstructs.Mhashmap.recover ~buckets:64 ~threads:2 esys2 payloads with
  | m -> Alcotest.failf "recovered a map of size %d from one key" (Pstructs.Mhashmap.size m)
  | exception Montage.Errors.Corrupt msg -> names_both "recover" msg);
  let m = Pstructs.Mhashmap.create ~buckets:64 esys2 in
  let outcomes =
    Array.map
      (fun s ->
        Domain.spawn (fun () ->
            match Pstructs.Mhashmap.recover_slice m s with
            | () -> None
            | exception Montage.Errors.Corrupt msg -> Some msg))
      slices
    |> Array.map Domain.join |> Array.to_list |> List.filter_map Fun.id
  in
  (match outcomes with
  | [ msg ] -> names_both "recover_slice" msg
  | l -> Alcotest.failf "%d slices raised, expected 1" (List.length l));
  Alcotest.(check bool) "bucket usable from the main domain" true
    (Pstructs.Mhashmap.get m ~tid:0 "dup" <> None);
  Alcotest.(check bool) "and writable" true
    (Pstructs.Mhashmap.put m ~tid:0 "dup" "third" <> None)

(* The rebuilds read only each payload's index field (a key or a seq).
   Each property runs a random script, syncs, crashes and recovers, then
   requires the structure to hold exactly what a full [get_unsafe]
   decode of the same recovered payloads says, and what the script
   left; a map must also find every key through its rebuilt index.
   Keys run 1–300 bytes, so many span several NVM lines. *)

let rand_string rng ~lo ~hi =
  String.init (lo + Util.Xoshiro.int rng (hi - lo + 1)) (fun _ ->
      Char.chr (32 + Util.Xoshiro.int rng 95))

let script_arb = QCheck.(pair small_nat (int_range 1 80))

(* [script esys rng] runs on a fresh system and returns its model;
   [check model esys payloads] sees the synced, crashed and recovered
   state. *)
let synced_crash ~seed script check =
  let region, esys = make_esys ~capacity:(1 lsl 22) () in
  let model = script esys (Util.Xoshiro.create seed) in
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  check model esys2 payloads

(* Random puts (overwrites included) and removes over a pool of keys;
   [halfway] is called once, halfway through.  Returns the sorted model. *)
let map_script ~put ~remove ?(halfway = ignore) ~ops rng =
  let keys = Array.init 12 (fun _ -> rand_string rng ~lo:1 ~hi:300) in
  let model = Hashtbl.create 16 in
  for i = 1 to ops do
    if i = ops / 2 then halfway ();
    let k = keys.(Util.Xoshiro.int rng (Array.length keys)) in
    if Util.Xoshiro.int rng 3 = 0 then begin
      remove k;
      Hashtbl.remove model k
    end
    else begin
      let v = rand_string rng ~lo:0 ~hi:200 in
      put k v;
      Hashtbl.replace model k v
    end
  done;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])

let map_differential ~name ~create ~recover =
  QCheck.Test.make ~name ~count:20 script_arb (fun (seed, ops) ->
      synced_crash ~seed
        (fun esys rng ->
          let put, remove = create esys in
          map_script ~put ~remove ~ops rng)
        (fun model esys payloads ->
          let to_alist, get = recover esys payloads in
          let got = List.sort compare to_alist in
          let full =
            List.sort compare
              (Array.to_list (Array.map (Montage.Payload.Kv.get_unsafe esys) payloads))
          in
          got = full && got = model && List.for_all (fun (k, v) -> get k = Some v) model))

let qcheck_mhashmap_key_only =
  map_differential ~name:"mhashmap key-only recovery = full decode"
    ~create:(fun esys ->
      let m = Pstructs.Mhashmap.create ~buckets:16 esys in
      ( (fun k v -> ignore (Pstructs.Mhashmap.put m ~tid:0 k v)),
        fun k -> ignore (Pstructs.Mhashmap.remove m ~tid:0 k) ))
    ~recover:(fun esys ps ->
      let m = Pstructs.Mhashmap.recover ~buckets:16 esys ps in
      (Pstructs.Mhashmap.to_alist m ~tid:0, Pstructs.Mhashmap.get m ~tid:0))

let qcheck_nb_hashmap_key_only =
  map_differential ~name:"nb_hashmap key-only recovery = full decode"
    ~create:(fun esys ->
      let m = Pstructs.Nb_hashmap.create ~buckets:16 esys in
      ( (fun k v ->
          ignore (Pstructs.Nb_hashmap.remove m ~tid:0 k);
          ignore (Pstructs.Nb_hashmap.add m ~tid:0 k v)),
        fun k -> ignore (Pstructs.Nb_hashmap.remove m ~tid:0 k) ))
    ~recover:(fun esys ps ->
      let m = Pstructs.Nb_hashmap.recover ~buckets:16 esys ps in
      (Pstructs.Nb_hashmap.to_alist m ~tid:0, Pstructs.Nb_hashmap.get m ~tid:0))

let qcheck_mskiplist_key_only threads =
  map_differential
    ~name:(Printf.sprintf "mskiplist (threads %d) key-only recovery = full decode" threads)
    ~create:(fun esys ->
      let m = Pstructs.Mskiplist.create esys in
      ( (fun k v -> ignore (Pstructs.Mskiplist.put m ~tid:0 k v)),
        fun k -> ignore (Pstructs.Mskiplist.remove m ~tid:0 k) ))
    ~recover:(fun esys ps ->
      let m = Pstructs.Mskiplist.recover ~threads esys ps in
      (Pstructs.Mskiplist.to_alist m ~tid:0, Pstructs.Mskiplist.get m ~tid:0))

(* A snapshot held from halfway on pins every record superseded or
   tombstoned after it, so the crash leaves several seqs per key. *)
let qcheck_mhamt_key_only =
  QCheck.Test.make ~name:"mhamt key-only recovery = full decode" ~count:20 script_arb
    (fun (seed, ops) ->
      synced_crash ~seed
        (fun esys rng ->
          let m = Pstructs.Mhamt.create esys in
          map_script ~ops rng
            ~halfway:(fun () -> ignore (Pstructs.Mhamt.snapshot m))
            ~put:(fun k v -> ignore (Pstructs.Mhamt.put m ~tid:0 k v))
            ~remove:(fun k -> ignore (Pstructs.Mhamt.remove m ~tid:0 k)))
        (fun model esys payloads ->
          let m = Pstructs.Mhamt.recover esys payloads in
          (* decode before the first listing, whose release reclaims the losers *)
          let best = Hashtbl.create 16 in
          Array.iter
            (fun p ->
              let k, s, v = Montage.Payload.read_unsafe esys p Pstructs.Mhamt.Rec_content.decode in
              match Hashtbl.find_opt best k with
              | Some (s0, _) when s0 >= s -> ()
              | _ -> Hashtbl.replace best k (s, v))
            payloads;
          let full =
            Hashtbl.fold
              (fun k (_, v) acc -> match v with Some v -> (k, v) :: acc | None -> acc)
              best []
          in
          let got = List.sort compare (Pstructs.Mhamt.to_alist m ~tid:0) in
          got = List.sort compare full && got = model
          && List.for_all (fun (k, v) -> Pstructs.Mhamt.get m ~tid:0 k = Some v) model))

let rec drain take = match take () with None -> [] | Some v -> v :: drain take

(* Seq-indexed structures: the full decode, ordered by seq. *)
let by_seq esys payloads =
  List.sort compare (Array.to_list (Array.map (Montage.Payload.Seq.get_unsafe esys) payloads))

let qcheck_mqueue_seq_only =
  QCheck.Test.make ~name:"mqueue seq-only recovery = full decode" ~count:20 script_arb
    (fun (seed, ops) ->
      synced_crash ~seed
        (fun esys rng ->
          let q = Pstructs.Mqueue.create esys in
          let model = Queue.create () in
          for _ = 1 to ops do
            if Util.Xoshiro.int rng 3 = 0 then begin
              ignore (Pstructs.Mqueue.dequeue q ~tid:0);
              ignore (Queue.take_opt model)
            end
            else begin
              let v = rand_string rng ~lo:0 ~hi:200 in
              Pstructs.Mqueue.enqueue q ~tid:0 v;
              Queue.push v model
            end
          done;
          List.of_seq (Queue.to_seq model))
        (fun model esys payloads ->
          let q = Pstructs.Mqueue.recover esys payloads in
          let full = List.map snd (by_seq esys payloads) in
          let got = drain (fun () -> Pstructs.Mqueue.dequeue q ~tid:0) in
          got = full && got = model))

let qcheck_mstack_seq_only =
  QCheck.Test.make ~name:"mstack seq-only recovery = full decode" ~count:20 script_arb
    (fun (seed, ops) ->
      synced_crash ~seed
        (fun esys rng ->
          let s = Pstructs.Mstack.create esys in
          let model = ref [] in
          for _ = 1 to ops do
            if Util.Xoshiro.int rng 3 = 0 then begin
              ignore (Pstructs.Mstack.pop s ~tid:0);
              model := (match !model with [] -> [] | _ :: rest -> rest)
            end
            else begin
              let v = rand_string rng ~lo:0 ~hi:200 in
              Pstructs.Mstack.push s ~tid:0 v;
              model := v :: !model
            end
          done;
          !model)
        (fun model esys payloads ->
          let s = Pstructs.Mstack.recover esys payloads in
          let full = List.rev_map snd (by_seq esys payloads) in
          let got = drain (fun () -> Pstructs.Mstack.pop s ~tid:0) in
          got = full && got = model))

(* ---- graph ---- *)

let test_graph_vertices_and_edges () =
  let _, esys = make_esys () in
  let g = Pstructs.Mgraph.create ~capacity:128 esys in
  Alcotest.(check bool) "add v1" true (Pstructs.Mgraph.add_vertex g ~tid:0 1 "alice");
  Alcotest.(check bool) "add v2" true (Pstructs.Mgraph.add_vertex g ~tid:0 2 "bob");
  Alcotest.(check bool) "duplicate vertex" false (Pstructs.Mgraph.add_vertex g ~tid:0 1 "dup");
  Alcotest.(check bool) "add edge" true (Pstructs.Mgraph.add_edge g ~tid:0 1 2 "friends");
  Alcotest.(check bool) "duplicate edge" false (Pstructs.Mgraph.add_edge g ~tid:0 2 1 "again");
  Alcotest.(check bool) "has edge both ways" true
    (Pstructs.Mgraph.has_edge g 1 2 && Pstructs.Mgraph.has_edge g 2 1);
  Alcotest.(check (option string)) "vertex attrs" (Some "alice") (Pstructs.Mgraph.vertex_attrs g ~tid:0 1);
  Alcotest.(check (option string)) "edge attrs" (Some "friends") (Pstructs.Mgraph.edge_attrs g ~tid:0 1 2);
  Alcotest.(check bool) "edge to missing vertex" false (Pstructs.Mgraph.add_edge g ~tid:0 1 99 "no");
  Alcotest.(check bool) "self edge rejected" false (Pstructs.Mgraph.add_edge g ~tid:0 1 1 "self");
  Alcotest.(check int) "counts" 2 (Pstructs.Mgraph.vertex_count g);
  Alcotest.(check int) "edges" 1 (Pstructs.Mgraph.edge_count g)

let test_graph_remove_vertex_clears_edges () =
  let _, esys = make_esys () in
  let g = Pstructs.Mgraph.create ~capacity:128 esys in
  for i = 0 to 4 do
    ignore (Pstructs.Mgraph.add_vertex g ~tid:0 i (string_of_int i))
  done;
  for i = 1 to 4 do
    ignore (Pstructs.Mgraph.add_edge g ~tid:0 0 i "spoke")
  done;
  Alcotest.(check int) "hub degree" 4 (Pstructs.Mgraph.degree g 0);
  Alcotest.(check bool) "remove hub" true (Pstructs.Mgraph.remove_vertex g ~tid:0 0);
  Alcotest.(check int) "no edges left" 0 (Pstructs.Mgraph.edge_count g);
  Alcotest.(check bool) "peer adjacency cleaned" false (Pstructs.Mgraph.has_edge g 1 0);
  Alcotest.(check int) "four vertices left" 4 (Pstructs.Mgraph.vertex_count g)

let test_graph_remove_edge () =
  let _, esys = make_esys () in
  let g = Pstructs.Mgraph.create ~capacity:16 esys in
  ignore (Pstructs.Mgraph.add_vertex g ~tid:0 1 "");
  ignore (Pstructs.Mgraph.add_vertex g ~tid:0 2 "");
  ignore (Pstructs.Mgraph.add_edge g ~tid:0 1 2 "e");
  Alcotest.(check bool) "remove" true (Pstructs.Mgraph.remove_edge g ~tid:0 2 1);
  Alcotest.(check bool) "gone" false (Pstructs.Mgraph.has_edge g 1 2);
  Alcotest.(check bool) "double remove" false (Pstructs.Mgraph.remove_edge g ~tid:0 1 2)

let test_graph_crash_recovery () =
  let region, esys = make_esys () in
  let g = Pstructs.Mgraph.create ~capacity:64 esys in
  for i = 0 to 9 do
    ignore (Pstructs.Mgraph.add_vertex g ~tid:0 i ("v" ^ string_of_int i))
  done;
  for i = 1 to 9 do
    ignore (Pstructs.Mgraph.add_edge g ~tid:0 0 i ("e" ^ string_of_int i))
  done;
  ignore (Pstructs.Mgraph.remove_edge g ~tid:0 0 5);
  E.sync esys ~tid:0;
  (* unsynced tail: must vanish *)
  ignore (Pstructs.Mgraph.remove_vertex g ~tid:0 0);
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let g2 = Pstructs.Mgraph.recover ~capacity:64 esys2 payloads in
  Alcotest.(check int) "vertices recovered" 10 (Pstructs.Mgraph.vertex_count g2);
  Alcotest.(check int) "edges recovered" 8 (Pstructs.Mgraph.edge_count g2);
  Alcotest.(check bool) "removed edge stays removed" false (Pstructs.Mgraph.has_edge g2 0 5);
  Alcotest.(check (option string)) "edge attrs intact" (Some "e3") (Pstructs.Mgraph.edge_attrs g2 ~tid:0 0 3);
  Alcotest.(check (option string)) "vertex attrs intact" (Some "v7")
    (Pstructs.Mgraph.vertex_attrs g2 ~tid:0 7)

let test_graph_parallel_recovery_matches_serial () =
  let region, esys = make_esys () in
  let g = Pstructs.Mgraph.create ~capacity:256 esys in
  let rng = Util.Xoshiro.create 99 in
  for i = 0 to 99 do
    ignore (Pstructs.Mgraph.add_vertex g ~tid:0 i "")
  done;
  for _ = 0 to 400 do
    let u = Util.Xoshiro.int rng 100 and v = Util.Xoshiro.int rng 100 in
    if u <> v then ignore (Pstructs.Mgraph.add_edge g ~tid:0 u v "")
  done;
  let edges_before = Pstructs.Mgraph.edge_count g in
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let g2 = Pstructs.Mgraph.recover ~capacity:256 ~threads:4 esys2 payloads in
  Alcotest.(check int) "vertices" 100 (Pstructs.Mgraph.vertex_count g2);
  Alcotest.(check int) "edges" edges_before (Pstructs.Mgraph.edge_count g2)

let test_graph_concurrent_edge_ops () =
  let _, esys = make_esys () in
  let g = Pstructs.Mgraph.create ~capacity:64 esys in
  for i = 0 to 31 do
    ignore (Pstructs.Mgraph.add_vertex g ~tid:0 i "")
  done;
  let domains =
    Array.init 4 (fun tid ->
        Domain.spawn (fun () ->
            let rng = Util.Xoshiro.create (tid * 7 + 1) in
            for _ = 0 to 500 do
              let u = Util.Xoshiro.int rng 32 and v = Util.Xoshiro.int rng 32 in
              if u <> v then
                if Util.Xoshiro.bool rng then ignore (Pstructs.Mgraph.add_edge g ~tid u v "")
                else ignore (Pstructs.Mgraph.remove_edge g ~tid u v)
            done))
  in
  Array.iter Domain.join domains;
  (* invariant: adjacency is symmetric *)
  let symmetric = ref true in
  for u = 0 to 31 do
    List.iter
      (fun v -> if not (Pstructs.Mgraph.has_edge g v u) then symmetric := false)
      (Pstructs.Mgraph.neighbors g u)
  done;
  Alcotest.(check bool) "adjacency symmetric" true !symmetric

let () =
  Alcotest.run "pstructs"
    [
      ( "hashmap",
        [
          Alcotest.test_case "put/get/remove" `Quick test_map_put_get_remove;
          Alcotest.test_case "put_if_absent" `Quick test_map_put_if_absent;
          Alcotest.test_case "collisions" `Quick test_map_size_and_collisions;
          Alcotest.test_case "concurrent disjoint" `Quick test_map_concurrent_disjoint_keys;
          Alcotest.test_case "concurrent same key" `Quick test_map_concurrent_same_key_last_writer;
          Alcotest.test_case "crash recovery" `Quick test_map_crash_recovery_preserves_synced;
          Alcotest.test_case "parallel recovery" `Quick test_map_parallel_recovery_matches;
          Alcotest.test_case "buckets power of two" `Quick test_map_buckets_power_of_two;
          Alcotest.test_case "stripe aliasing modify" `Quick test_map_stripe_aliasing_modify;
          Alcotest.test_case "stripe aliasing recovery" `Quick test_map_stripe_aliasing_recovery;
          QCheck_alcotest.to_alcotest qcheck_map_vs_model;
        ] );
      ( "queue",
        [
          Alcotest.test_case "FIFO" `Quick test_queue_fifo;
          Alcotest.test_case "crash recovery order" `Quick test_queue_crash_recovery_order;
          Alcotest.test_case "concurrent produce/consume" `Quick test_queue_concurrent_producers_consumers;
        ] );
      ( "stack",
        [
          Alcotest.test_case "LIFO" `Quick test_stack_lifo;
          Alcotest.test_case "crash recovery" `Quick test_stack_crash_recovery;
        ] );
      ( "nb_stack",
        [
          Alcotest.test_case "sequential" `Quick test_nb_stack_sequential;
          Alcotest.test_case "concurrent balance" `Quick test_nb_stack_concurrent_balance;
          Alcotest.test_case "epoch churn" `Quick test_nb_stack_survives_epoch_advances;
          Alcotest.test_case "crash recovery" `Quick test_nb_stack_crash_recovery;
        ] );
      ( "nb_queue",
        [
          Alcotest.test_case "sequential" `Quick test_nb_queue_sequential;
          Alcotest.test_case "concurrent no loss" `Quick test_nb_queue_concurrent_no_loss;
          Alcotest.test_case "per-producer order" `Quick test_nb_queue_per_producer_order;
          Alcotest.test_case "crash recovery" `Quick test_nb_queue_crash_recovery;
        ] );
      ( "injection",
        [ QCheck_alcotest.to_alcotest qcheck_map_recovery_under_injection ] );
      ( "reindex",
        [
          Alcotest.test_case "duplicate key is corruption" `Quick
            test_map_recovery_rejects_duplicate_key;
          Alcotest.test_case "duplicate key across slices" `Quick
            test_map_recovery_rejects_duplicate_key_across_slices;
          QCheck_alcotest.to_alcotest qcheck_mhashmap_key_only;
          QCheck_alcotest.to_alcotest qcheck_nb_hashmap_key_only;
          QCheck_alcotest.to_alcotest (qcheck_mskiplist_key_only 1);
          QCheck_alcotest.to_alcotest (qcheck_mskiplist_key_only 2);
          QCheck_alcotest.to_alcotest qcheck_mhamt_key_only;
          QCheck_alcotest.to_alcotest qcheck_mqueue_seq_only;
          QCheck_alcotest.to_alcotest qcheck_mstack_seq_only;
        ] );
      ( "graph",
        [
          Alcotest.test_case "vertices and edges" `Quick test_graph_vertices_and_edges;
          Alcotest.test_case "remove vertex clears edges" `Quick test_graph_remove_vertex_clears_edges;
          Alcotest.test_case "remove edge" `Quick test_graph_remove_edge;
          Alcotest.test_case "crash recovery" `Quick test_graph_crash_recovery;
          Alcotest.test_case "parallel recovery" `Quick test_graph_parallel_recovery_matches_serial;
          Alcotest.test_case "concurrent edge ops" `Quick test_graph_concurrent_edge_ops;
        ] );
    ]
