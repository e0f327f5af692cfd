(* Tests for the persistent HAMT: functional behaviour (including
   collision leaves under degenerate hashes), snapshot isolation,
   qcheck model comparison with live views, a Wing–Gong
   linearizability check over real concurrent histories with snapshot
   ops, crash recovery (tombstones, superseded chains, pinned
   retirees, parallel decode, adversarial write-back injection), a
   Pcheck crash matrix, and Dsched exhaustive + PCT legs racing
   writers against a snapshotter. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config
module M = Pstructs.Mhamt
module R = Nvm.Region
module P = Nvm.Pcheck
module D = Dsched

let testing_cfg = { Cfg.testing with max_threads = 6 }

let make_esys ?(capacity = 1 lsl 24) () =
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity () in
  (region, E.create ~config:testing_cfg region)

let sorted_alist m = List.sort compare (M.to_alist m ~tid:0)

(* ---- functional ---- *)

let test_put_get_remove () =
  let _, esys = make_esys () in
  let m = M.create esys in
  Alcotest.(check (option string)) "empty get" None (M.get m ~tid:0 "k1");
  Alcotest.(check (option string)) "fresh put" None (M.put m ~tid:0 "k1" "v1");
  Alcotest.(check (option string)) "get back" (Some "v1") (M.get m ~tid:0 "k1");
  Alcotest.(check (option string)) "overwrite returns old" (Some "v1") (M.put m ~tid:0 "k1" "v2");
  Alcotest.(check (option string)) "updated" (Some "v2") (M.get m ~tid:0 "k1");
  Alcotest.(check bool) "contains" true (M.contains m ~tid:0 "k1");
  Alcotest.(check (option string)) "remove returns value" (Some "v2") (M.remove m ~tid:0 "k1");
  Alcotest.(check (option string)) "gone" None (M.get m ~tid:0 "k1");
  Alcotest.(check (option string)) "remove missing" None (M.remove m ~tid:0 "k1");
  Alcotest.(check int) "empty again" 0 (M.size m)

(* [set] stores as [put] does but never reads the value it replaces:
   after a restart every handle is cold, so reading a replaced 1 KiB
   value would charge its lines. *)
let test_set_skips_old_value () =
  let region, esys = make_esys () in
  let m = M.create esys in
  let old = String.make 1024 'o' in
  ignore (M.put m ~tid:0 "a" old);
  ignore (M.put m ~tid:0 "b" old);
  E.sync esys ~tid:0;
  R.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let m2 = M.recover esys2 payloads in
  let charged f =
    let before = (R.stats region).R.lines_read in
    f ();
    (R.stats region).R.lines_read - before
  in
  let by_set = charged (fun () -> M.set m2 ~tid:0 "a" "new-a") in
  let by_put = charged (fun () -> ignore (M.put m2 ~tid:0 "b" "new-b")) in
  Alcotest.(check int) "set reads no line" 0 by_set;
  Alcotest.(check bool) "put reads the old value's lines" true (by_put >= 1024 / 64);
  Alcotest.(check (option string)) "set stored" (Some "new-a") (M.get m2 ~tid:0 "a");
  Alcotest.(check (option string)) "put stored" (Some "new-b") (M.get m2 ~tid:0 "b");
  Alcotest.(check int) "overwrites keep the size" 2 (M.size m2)

let test_put_if_absent_and_update () =
  let _, esys = make_esys () in
  let m = M.create esys in
  Alcotest.(check bool) "first wins" true (M.put_if_absent m ~tid:0 "k" "a");
  Alcotest.(check bool) "second loses" false (M.put_if_absent m ~tid:0 "k" "b");
  Alcotest.(check (option string)) "value is first" (Some "a") (M.get m ~tid:0 "k");
  Alcotest.(check (option string)) "update sees old" (Some "a")
    (M.update m ~tid:0 "k" (function Some s -> Some (s ^ "+") | None -> None));
  Alcotest.(check (option string)) "update applied" (Some "a+") (M.get m ~tid:0 "k");
  Alcotest.(check (option string)) "update absent no-insert" None
    (M.update m ~tid:0 "missing" (function Some _ -> Some "x" | None -> None));
  Alcotest.(check (option string)) "still absent" None (M.get m ~tid:0 "missing");
  Alcotest.(check (option string)) "update absent inserts" None
    (M.update m ~tid:0 "fresh" (fun _ -> Some "f"));
  Alcotest.(check (option string)) "inserted" (Some "f") (M.get m ~tid:0 "fresh")

let test_many_keys_deep_trie () =
  let _, esys = make_esys () in
  let m = M.create esys in
  for i = 0 to 299 do
    ignore (M.put m ~tid:0 (Pstruct_gen.key3 i) (string_of_int i))
  done;
  Alcotest.(check int) "size" 300 (M.size m);
  let ok = ref true in
  for i = 0 to 299 do
    if M.get m ~tid:0 (Pstruct_gen.key3 i) <> Some (string_of_int i) then ok := false
  done;
  Alcotest.(check bool) "all retrievable" true !ok;
  Alcotest.(check int) "listing complete" 300 (List.length (M.to_alist m ~tid:0))

(* Three hash values over 100 keys: every leaf is a collision leaf,
   and removes walk entry arrays rather than trie paths. *)
let test_collision_heavy () =
  let _, esys = make_esys () in
  let m = M.create ~hash:(Pstruct_gen.degenerate_hash 3) esys in
  for i = 0 to 99 do
    ignore (M.put m ~tid:0 (Pstruct_gen.key3 i) (string_of_int i))
  done;
  Alcotest.(check int) "size under collisions" 100 (M.size m);
  for i = 0 to 99 do
    if i mod 2 = 0 then
      Alcotest.(check (option string))
        ("remove " ^ Pstruct_gen.key3 i)
        (Some (string_of_int i))
        (M.remove m ~tid:0 (Pstruct_gen.key3 i))
  done;
  Alcotest.(check int) "half left" 50 (M.size m);
  let ok = ref true in
  for i = 0 to 99 do
    let expect = if i mod 2 = 0 then None else Some (string_of_int i) in
    if M.get m ~tid:0 (Pstruct_gen.key3 i) <> expect then ok := false
  done;
  Alcotest.(check bool) "survivors exact" true !ok

(* ---- snapshots ---- *)

let test_snapshot_isolation () =
  let _, esys = make_esys () in
  let m = M.create esys in
  for i = 0 to 4 do
    ignore (M.put m ~tid:0 (Pstruct_gen.k i) (Pstruct_gen.v i))
  done;
  let v = M.snapshot m in
  Alcotest.(check int) "view cardinal" 5 (M.View.cardinal v);
  for i = 0 to 4 do
    ignore (M.put m ~tid:0 (Pstruct_gen.k i) "new")
  done;
  ignore (M.remove m ~tid:0 "k0");
  ignore (M.put m ~tid:0 "extra" "e");
  (* the view is frozen at its version *)
  for i = 0 to 4 do
    Alcotest.(check (option string))
      ("view " ^ Pstruct_gen.k i)
      (Some (Pstruct_gen.v i))
      (M.View.find v ~tid:0 (Pstruct_gen.k i))
  done;
  Alcotest.(check (option string)) "view misses later insert" None (M.View.find v ~tid:0 "extra");
  Alcotest.(check bool) "view mem removed key" true (M.View.mem v "k0");
  (* the current map moved on *)
  Alcotest.(check (option string)) "current overwritten" (Some "new") (M.get m ~tid:0 "k1");
  Alcotest.(check (option string)) "current removed" None (M.get m ~tid:0 "k0");
  (* retired blocks are pinned until the view is released *)
  Alcotest.(check bool) "retired pinned" true (M.pending_reclaim m > 0);
  M.release m v ~tid:0;
  Alcotest.(check int) "released => reclaimed" 0 (M.pending_reclaim m);
  Alcotest.(check bool) "released view rejects reads" true
    (match M.View.find v ~tid:0 "k1" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* double release is a no-op *)
  M.release m v ~tid:0

let test_snapshots_pin_independently () =
  let _, esys = make_esys () in
  let m = M.create esys in
  ignore (M.put m ~tid:0 "k" "v1");
  let s1 = M.snapshot m in
  ignore (M.put m ~tid:0 "k" "v2");
  let s2 = M.snapshot m in
  ignore (M.put m ~tid:0 "k" "v3");
  Alcotest.(check (option string)) "s1 sees v1" (Some "v1") (M.View.find s1 ~tid:0 "k");
  Alcotest.(check (option string)) "s2 sees v2" (Some "v2") (M.View.find s2 ~tid:0 "k");
  Alcotest.(check (option string)) "current sees v3" (Some "v3") (M.get m ~tid:0 "k");
  Alcotest.(check bool) "two retirees pinned" true (M.pending_reclaim m >= 2);
  (* releasing the newer view alone keeps the older one's world intact *)
  M.release m s2 ~tid:0;
  Alcotest.(check (option string)) "s1 still sees v1" (Some "v1") (M.View.find s1 ~tid:0 "k");
  Alcotest.(check bool) "v1 still pinned" true (M.pending_reclaim m >= 1);
  M.release m s1 ~tid:0;
  Alcotest.(check int) "all reclaimed" 0 (M.pending_reclaim m);
  Alcotest.(check bool) "versions are ordered" true (M.View.version s1 < M.View.version s2)

(* snapshot <> sync: a held view must not stop the epoch clock, sync,
   or subsequent durability — it only defers physical reclamation. *)
let test_snapshot_never_blocks_advance () =
  let _, esys = make_esys () in
  let m = M.create esys in
  ignore (M.put m ~tid:0 "k" "v1");
  let v = M.snapshot m in
  let e0 = E.current_epoch esys in
  for _ = 1 to 10 do
    E.advance_epoch esys ~tid:0
  done;
  Alcotest.(check bool) "epochs advanced under a live view" true (E.current_epoch esys >= e0 + 10);
  ignore (M.put m ~tid:0 "k" "v2");
  E.sync esys ~tid:0;
  Alcotest.(check bool) "sync completed under a live view" true
    (E.persisted_epoch esys >= e0 + 10);
  Alcotest.(check (option string)) "view unaffected" (Some "v1") (M.View.find v ~tid:0 "k");
  M.release m v ~tid:0

(* ---- qcheck: model comparison with live views ---- *)

(* Random op streams against a Hashtbl model; snapshots freeze a copy
   of the model and every live view must keep matching its frozen copy
   while the run mutates on.  [collide] swaps in a 3-value hash so the
   same scripts drive collision leaves. *)
let qcheck_vs_model_with_snapshots =
  QCheck.Test.make ~name:"mhamt matches model; views match frozen copies" ~count:30
    QCheck.(pair bool (list (pair (int_range 0 20) small_string)))
    (fun (collide, script) ->
      let _, esys = make_esys ~capacity:(1 lsl 22) () in
      let hash = if collide then Pstruct_gen.degenerate_hash 3 else Hashtbl.hash in
      let m = M.create ~hash esys in
      let model = Hashtbl.create 16 in
      let views = ref [] in
      let step (k, v) =
        let key = Pstruct_gen.num_key k in
        match String.length v mod 4 with
        | 0 ->
            let expected = Hashtbl.find_opt model key in
            Hashtbl.remove model key;
            M.remove m ~tid:0 key = expected
        | 1 ->
            (* snapshot now; release the oldest once three are live *)
            let frozen = Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] in
            views := !views @ [ (M.snapshot m, List.sort compare frozen) ];
            (match !views with
            | (v, _) :: rest when List.length !views > 3 ->
                M.release m v ~tid:0;
                views := rest
            | _ -> ());
            true
        | _ ->
            let expected = Hashtbl.find_opt model key in
            Hashtbl.replace model key v;
            M.put m ~tid:0 key v = expected
      in
      let ops_ok = List.for_all step script in
      let views_ok =
        List.for_all
          (fun (v, frozen) -> List.sort compare (M.View.to_alist v ~tid:0) = frozen)
          !views
      in
      let final_ok =
        sorted_alist m
        = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      in
      List.iter (fun (v, _) -> M.release m v ~tid:0) !views;
      ops_ok && views_ok && final_ok && M.pending_reclaim m = 0)

(* ---- real concurrency ---- *)

let test_concurrent_disjoint_writers () =
  let _, esys = make_esys () in
  let m = M.create esys in
  let per = 200 in
  let domains =
    Array.init 4 (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore (M.put m ~tid (Pstruct_gen.tid_key tid i) "x")
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "all inserted" (4 * per) (M.size m)

(* The acceptance criterion: a view taken mid-run returns exactly the
   pre-snapshot value for every key while >= 2 writer domains mutate.
   Phase A writes known values and joins; the snapshot is taken; phase
   B overwrites the same keys from two domains while a checker domain
   folds the view over and over — every fold of every iteration must
   see the full phase-A state, nothing torn, nothing newer. *)
let test_view_exact_under_concurrent_writers () =
  let _, esys = make_esys () in
  let m = M.create esys in
  let keys = 64 in
  let a_writers =
    Array.init 2 (fun d ->
        Domain.spawn (fun () ->
            let tid = d + 1 in
            for i = 0 to (keys / 2) - 1 do
              let k = (d * keys / 2) + i in
              ignore (M.put m ~tid (Pstruct_gen.key3 k) ("A" ^ string_of_int k))
            done))
  in
  Array.iter Domain.join a_writers;
  let v = M.snapshot m in
  let stop = Atomic.make false in
  let checker =
    Domain.spawn (fun () ->
        let folds = ref 0 in
        let clean = ref true in
        while (not (Atomic.get stop)) || !folds = 0 do
          let seen = M.View.fold v ~tid:3 (fun acc k value -> (k, value) :: acc) [] in
          if
            List.length seen <> keys
            || not
                 (List.for_all
                    (fun (k, value) ->
                      String.length k = 6 && value = "A" ^ string_of_int (int_of_string (String.sub k 3 3)))
                    seen)
          then clean := false;
          incr folds
        done;
        (!folds, !clean))
  in
  let b_writers =
    Array.init 2 (fun d ->
        Domain.spawn (fun () ->
            let tid = d + 1 in
            for round = 0 to 19 do
              for i = 0 to keys - 1 do
                ignore (M.put m ~tid (Pstruct_gen.key3 i) (Printf.sprintf "B%d:%d:%d" d round i))
              done
            done))
  in
  Array.iter Domain.join b_writers;
  Atomic.set stop true;
  let folds, clean = Domain.join checker in
  Alcotest.(check bool) "checker folded at least once" true (folds > 0);
  Alcotest.(check bool) "every fold saw exactly the pre-snapshot state" true clean;
  Alcotest.(check bool) "current map moved to phase B" true
    (match M.get m ~tid:0 (Pstruct_gen.key3 0) with Some s -> s.[0] = 'B' | None -> false);
  M.release m v ~tid:0;
  Alcotest.(check int) "all retirees reclaimed after release" 0 (M.pending_reclaim m)

(* Wing–Gong check over a real concurrent history containing snapshot
   and view ops: two writer domains race a snapshotter; the recorded
   events must admit a linearization under the map-with-snapshot spec
   (satellite: no view may observe a torn path copy). *)
let test_linearizable_history_with_snapshots () =
  let _, esys = make_esys () in
  let m = M.create esys in
  Lin_check.reset_clock ();
  let events = Array.make 3 [] in
  let writer d =
    Domain.spawn (fun () ->
        let tid = d + 1 in
        let k = "shared" and mine = Pstruct_gen.k d in
        events.(d) <-
          [
            Lin_check.record (Lin_check.Mput (k, Pstruct_gen.v d)) (fun () ->
                M.put m ~tid k (Pstruct_gen.v d));
            Lin_check.record (Lin_check.Mput (mine, "x")) (fun () -> M.put m ~tid mine "x");
            Lin_check.record (Lin_check.Mget k) (fun () -> M.get m ~tid k);
            Lin_check.record (Lin_check.Mremove mine) (fun () -> M.remove m ~tid mine);
          ])
  in
  let snapper =
    Domain.spawn (fun () ->
        let tid = 3 in
        let sv = ref None in
        let ev0 =
          Lin_check.record (Lin_check.Msnapshot 0) (fun () ->
              sv := Some (M.snapshot m);
              None)
        in
        let v = Option.get !sv in
        let evs =
          List.map
            (fun k ->
              Lin_check.record (Lin_check.Mview_find (0, k)) (fun () -> M.View.find v ~tid k))
            [ "shared"; "k0"; "k1" ]
        in
        M.release m v ~tid;
        events.(2) <- ev0 :: evs)
  in
  let w0 = writer 0 and w1 = writer 1 in
  Domain.join w0;
  Domain.join w1;
  Domain.join snapper;
  let all = List.concat (Array.to_list events) in
  Alcotest.(check bool) "history linearizable under map+snapshot spec" true
    (Lin_check.check Lin_check.map_snap_spec all)

(* ---- crash recovery ---- *)

let test_crash_recovery_preserves_synced () =
  let region, esys = make_esys () in
  let m = M.create esys in
  for i = 0 to 49 do
    ignore (M.put m ~tid:0 (Pstruct_gen.k i) (Pstruct_gen.v i))
  done;
  ignore (M.remove m ~tid:0 "k7");
  E.sync esys ~tid:0;
  (* post-sync writes are lost by the crash *)
  ignore (M.put m ~tid:0 "late" "update");
  ignore (M.remove m ~tid:0 "k0");
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let m2 = M.recover esys2 payloads in
  Alcotest.(check int) "synced contents recovered" 49 (M.size m2);
  Alcotest.(check (option string)) "k0 still there (remove rolled back)" (Some "v0")
    (M.get m2 ~tid:0 "k0");
  Alcotest.(check (option string)) "synced remove durable (tombstone)" None (M.get m2 ~tid:0 "k7");
  Alcotest.(check (option string)) "late insert lost" None (M.get m2 ~tid:0 "late")

(* The superseded-version chain: only the largest synced seq wins. *)
let test_crash_recovery_overwrite_chain () =
  let region, esys = make_esys () in
  let m = M.create esys in
  ignore (M.put m ~tid:0 "k" "v1");
  E.sync esys ~tid:0;
  (* pin v1 so its block is still in media when the crash hits —
     without the pin the overwrite reclaims it immediately *)
  let _pin = M.snapshot m in
  ignore (M.put m ~tid:0 "k" "v2");
  E.sync esys ~tid:0;
  ignore (M.put m ~tid:0 "k" "v3");
  (* v3 buffered only *)
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let m2 = M.recover esys2 payloads in
  Alcotest.(check (option string)) "last synced version wins" (Some "v2") (M.get m2 ~tid:0 "k");
  Alcotest.(check int) "one live key" 1 (M.size m2);
  (* the losing v1 block was queued; the first mutation reclaims it *)
  Alcotest.(check bool) "superseded block queued" true (M.pending_reclaim m2 > 0);
  ignore (M.put m2 ~tid:0 "other" "x");
  Alcotest.(check int) "reclaimed on first mutation" 0 (M.pending_reclaim m2)

(* A snapshot pins the old version's bytes across sync and crash; the
   recovered map must still resolve the newest seq, and the view
   itself — transient by construction — died with the crash. *)
let test_crash_with_pinned_retirees () =
  let region, esys = make_esys () in
  let m = M.create esys in
  ignore (M.put m ~tid:0 "k" "v1");
  let v = M.snapshot m in
  ignore (M.put m ~tid:0 "k" "v2");
  Alcotest.(check (option string)) "view pins v1" (Some "v1") (M.View.find v ~tid:0 "k");
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let m2 = M.recover esys2 payloads in
  Alcotest.(check (option string)) "newest seq wins over pinned block" (Some "v2")
    (M.get m2 ~tid:0 "k");
  Alcotest.(check int) "one key" 1 (M.size m2)

let test_parallel_recovery_matches () =
  let region, esys = make_esys () in
  let m = M.create esys in
  for i = 0 to 199 do
    ignore (M.put m ~tid:0 (Pstruct_gen.k3 i) (string_of_int (i * i)))
  done;
  for i = 0 to 199 do
    if i mod 5 = 0 then ignore (M.remove m ~tid:0 (Pstruct_gen.k3 i))
  done;
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:testing_cfg region in
  let m2 = M.recover ~threads:4 esys2 payloads in
  Alcotest.(check int) "all pairs" 160 (M.size m2);
  let expected =
    List.filter_map
      (fun i -> if i mod 5 = 0 then None else Some (Pstruct_gen.k3 i, string_of_int (i * i)))
      (List.init 200 Fun.id)
  in
  Alcotest.(check bool) "contents identical" true (sorted_alist m2 = List.sort compare expected)

(* Exact recovery under adversarial write-back nondeterminism, with a
   live view pinning blocks at the crash instant. *)
let qcheck_recovery_under_injection =
  QCheck.Test.make ~name:"mhamt recovery exact under write-back nondeterminism" ~count:25
    QCheck.(pair small_int (int_range 1 60))
    (fun (seed, ops) ->
      let region =
        R.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 22) ()
      in
      let esys = E.create ~config:testing_cfg region in
      let m = M.create esys in
      let rng = Util.Xoshiro.create seed in
      let model = Hashtbl.create 16 in
      for i = 1 to ops do
        let k = Pstruct_gen.rand_k2 rng in
        if Util.Xoshiro.bool rng then begin
          let v = Pstruct_gen.v i in
          ignore (M.put m ~tid:0 k v);
          Hashtbl.replace model k v
        end
        else begin
          ignore (M.remove m ~tid:0 k);
          Hashtbl.remove model k
        end
      done;
      let _pin = M.snapshot m in
      E.sync esys ~tid:0;
      (* noise after the sync, then an adversarial crash *)
      ignore (M.put m ~tid:0 "noise" "x");
      ignore (M.remove m ~tid:0 "k00");
      Nvm.Region.crash
        ~persist_unfenced:(Util.Xoshiro.float rng)
        ~evict_dirty:(Util.Xoshiro.float rng) ~rng region;
      let esys2, payloads = E.recover ~config:testing_cfg region in
      let m2 = M.recover esys2 payloads in
      let expected = Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare in
      List.sort compare (M.to_alist m2 ~tid:0) = expected)

(* ---- Pcheck crash matrix ---- *)

let matrix_cfg = { Cfg.testing with max_threads = 4 }
let recover_cfg = { matrix_cfg with Cfg.pcheck = Cfg.Pcheck_off }

let logged_esys () =
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 18) () in
  let c = R.enable_pcheck ~mode:P.Enforce ~log_events:true region in
  (region, c, E.create ~config:matrix_cfg region)

(* [P.explore] enumerates fence-respecting media states at EVERY point
   of the run, so early cuts legitimately recover earlier (even empty)
   states.  The durability claim is conditional on the recovered clock:
   once an image's persisted clock has reached the value observed right
   after the ack ([E.sync]), recovery MUST reproduce the acked state
   exactly — inserts present, the acked remove absent (tombstone), the
   overwritten loser never resurrected.  Pre-ack cuts must still be
   internally consistent subsets of what was written. *)
let test_crash_matrix_acked_writes_durable () =
  let _, c, esys = logged_esys () in
  let m = M.create esys in
  for i = 0 to 5 do
    ignore (M.put m ~tid:0 (Pstruct_gen.k i) ("a" ^ string_of_int i))
  done;
  ignore (M.put m ~tid:0 "k2" "a2'");
  ignore (M.remove m ~tid:0 "k5");
  E.sync esys ~tid:0;
  let e_ack = E.current_epoch esys in
  E.advance_epoch esys ~tid:0;
  E.advance_epoch esys ~tid:0;
  let expected =
    List.sort compare
      [ ("k0", "a0"); ("k1", "a1"); ("k2", "a2'"); ("k3", "a3"); ("k4", "a4") ]
  in
  let valid (k, value) =
    match k with
    | "k2" -> value = "a2" || value = "a2'"
    | "k0" | "k1" | "k3" | "k4" | "k5" -> value = "a" ^ String.sub k 1 (String.length k - 1)
    | _ -> false
  in
  let exact_states = ref 0 in
  let report =
    P.explore ~max_states:400 c (fun image ->
        match
          E.recover ~config:recover_cfg (R.of_image ~latency:Nvm.Latency.zero ~max_threads:8 image)
        with
        | exception _ -> false
        | esys2, payloads ->
            let m2 = M.recover esys2 payloads in
            let listed = List.sort compare (M.to_alist m2 ~tid:0) in
            if E.current_epoch esys2 >= e_ack then begin
              if listed = expected then incr exact_states;
              listed = expected
            end
            else M.size m2 = List.length listed && List.for_all valid listed)
  in
  Alcotest.(check bool) "states explored" true (report.P.states > 0);
  Alcotest.(check int) "every crash state consistent; acked states exact" 0 report.P.failures;
  Alcotest.(check bool) "at least one post-ack state enumerated" true (!exact_states > 0)

(* Unsynced tail: every crash state recovers to SOME consistent cut —
   each key resolves to one of the values actually written to it (or
   absence where a remove ran), never a torn or invented value, and
   the synced prefix is always included.  A live view at the crash
   instant pins retired blocks in media; winners-by-seq must shrug
   them off.  "Views die with the crash": only payload records drive
   recovery, so the pinned v-old values may appear solely as a key's
   legitimate earlier value, never resurrect a removed key, and the
   recovered map starts with no view registry. *)
let test_crash_matrix_unsynced_tail_consistent () =
  let _, c, esys = logged_esys () in
  let m = M.create esys in
  for i = 0 to 5 do
    ignore (M.put m ~tid:0 (Pstruct_gen.k i) ("a" ^ string_of_int i))
  done;
  E.sync esys ~tid:0;
  let _pin = M.snapshot m in
  for i = 0 to 5 do
    ignore (M.put m ~tid:0 (Pstruct_gen.k i) ("b" ^ string_of_int i))
  done;
  ignore (M.remove m ~tid:0 "k5");
  let e_ack = E.current_epoch esys in
  E.advance_epoch esys ~tid:0;
  E.advance_epoch esys ~tid:0;
  let report =
    P.explore ~max_states:400 c (fun image ->
        match
          E.recover ~config:recover_cfg (R.of_image ~latency:Nvm.Latency.zero ~max_threads:8 image)
        with
        | exception _ -> false
        | esys2, payloads ->
            let m2 = M.recover esys2 payloads in
            let listed = List.sort compare (M.to_alist m2 ~tid:0) in
            let acked = E.current_epoch esys2 >= e_ack in
            M.size m2 = List.length listed
            && List.for_all
                 (fun i ->
                   let k = Pstruct_gen.k i in
                   match List.assoc_opt k listed with
                   | Some s -> s = "a" ^ string_of_int i || s = "b" ^ string_of_int i
                   | None ->
                       (* pre-ack cuts may miss keys; once the synced
                          prefix is durable only the removed key may go *)
                       (not acked) || i = 5)
                 [ 0; 1; 2; 3; 4; 5 ]
            && List.for_all (fun (k, _) -> List.mem k [ "k0"; "k1"; "k2"; "k3"; "k4"; "k5" ]) listed)
  in
  Alcotest.(check bool) "states explored" true (report.P.states > 0);
  Alcotest.(check int) "every crash state recovers consistently" 0 report.P.failures

(* ---- Dsched: racing writers and a snapshotter ---- *)

let sched_cfg =
  {
    Cfg.testing with
    max_threads = 2;
    pcheck = Cfg.Pcheck_off;
    mirror_max_bytes = 0;
    buffer_size = 16;
  }

type wop = Wput of string * string | Wremove of string | Wget of string

type mstate = {
  region : R.t;
  esys : E.t;
  m : M.t;
  hist : (Lin_check.map_op * string option * int) list ref array;
  inflight : Lin_check.map_op option array;
}

let durable_op op epoch cutoff =
  match op with
  | Lin_check.Mput _ | Lin_check.Mremove _ -> epoch <= cutoff
  | Lin_check.Mget _ | Lin_check.Msnapshot _ | Lin_check.Mview_find _ -> false

let dlin_spec =
  { Dlin.initial = Lin_check.map_snap_spec.Lin_check.initial;
    apply = Lin_check.map_snap_spec.Lin_check.apply }

(* Writer fibers run op scripts; the last fiber snapshots, reads the
   view twice, and releases (driving reclamation through the scheduler).
   After every op each fiber records (op, result, epoch) and advances
   the epoch, so crash branches cut through every buffering stage. *)
let mhamt_scenario scripts view_keys =
  let n = Array.length scripts in
  let total = n + 1 in
  let op_threads =
    Array.mapi
      (fun tid script st ->
        List.iter
          (fun op ->
            let lop, run =
              match op with
              | Wput (k, v) -> (Lin_check.Mput (k, v), fun () -> M.put st.m ~tid k v)
              | Wremove k -> (Lin_check.Mremove k, fun () -> M.remove st.m ~tid k)
              | Wget k -> (Lin_check.Mget k, fun () -> M.get st.m ~tid k)
            in
            st.inflight.(tid) <- Some lop;
            let res = run () in
            st.hist.(tid) := (lop, res, E.current_epoch st.esys) :: !(st.hist.(tid));
            st.inflight.(tid) <- None;
            E.advance_epoch st.esys ~tid)
          script)
      scripts
  in
  let snap_thread st =
    let tid = n in
    st.inflight.(tid) <- Some (Lin_check.Msnapshot 0);
    let v = M.snapshot st.m in
    st.hist.(tid) := (Lin_check.Msnapshot 0, None, E.current_epoch st.esys) :: !(st.hist.(tid));
    st.inflight.(tid) <- None;
    List.iter
      (fun k ->
        let lop = Lin_check.Mview_find (0, k) in
        st.inflight.(tid) <- Some lop;
        let res = M.View.find v ~tid k in
        st.hist.(tid) := (lop, res, E.current_epoch st.esys) :: !(st.hist.(tid));
        st.inflight.(tid) <- None)
      view_keys;
    M.release st.m v ~tid;
    E.advance_epoch st.esys ~tid
  in
  {
    D.init =
      (fun () ->
        let region =
          R.create ~latency:Nvm.Latency.zero ~max_threads:(total + 2) ~capacity:(1 lsl 18) ()
        in
        let esys = E.create ~config:{ sched_cfg with Cfg.max_threads = total } region in
        {
          region;
          esys;
          m = M.create esys;
          hist = Array.init total (fun _ -> ref []);
          inflight = Array.make total None;
        });
    threads = Array.append op_threads [| snap_thread |];
    check_crash =
      Some
        (fun st ->
          R.crash st.region;
          match E.recover ~config:{ sched_cfg with Cfg.max_threads = total } st.region with
          | exception _ -> false
          | esys2, payloads ->
              let recovered = List.sort compare (M.to_alist (M.recover esys2 payloads) ~tid:0) in
              let cutoff = E.current_epoch esys2 - 2 in
              let obs =
                Array.mapi
                  (fun i h ->
                    {
                      Dlin.completed =
                        List.rev_map (fun (op, res, e) -> (op, res, durable_op op e cutoff)) !h;
                      in_flight = st.inflight.(i);
                    })
                  st.hist
              in
              Dlin.durably_linearizable dlin_spec obs ~accept:(fun st ->
                  st.Lin_check.cur = recovered));
    check_done =
      Some
        (fun st ->
          let final = List.sort compare (M.to_alist st.m ~tid:0) in
          let hists = Array.map (fun h -> List.rev_map (fun (op, res, _) -> (op, res)) !h) st.hist in
          Dlin.linearizable dlin_spec hists ~accept:(fun st -> st.Lin_check.cur = final));
  }

(* two writers race on a shared key and disjoint keys; the snapshotter
   reads both *)
let wscripts = [| [ Wput ("s", "a"); Wput ("x", "1"); Wremove ("s") ]; [ Wput ("s", "b"); Wget "x" ] |]
let vkeys = [ "s"; "x" ]

let exhaustive ?(preemptions = 1) ?(max_attempts = 200_000) ?(crashes = true) () =
  D.Exhaustive { preemptions; max_attempts; crashes }

let check_report name r =
  (match r.D.failure with
  | Some f -> Alcotest.fail (name ^ ": " ^ D.failure_to_string f)
  | None -> ());
  Printf.eprintf "%s: schedules=%d crash_branches=%d max_points=%d\n%!" name r.D.schedules
    r.D.crash_branches r.D.max_points;
  Alcotest.(check bool) (name ^ ": schedules explored") true (r.D.schedules > 0);
  Alcotest.(check bool) (name ^ ": crash injected at every point") true
    (r.D.crash_branches >= r.D.max_points)

let test_dsched_exhaustive_nb () =
  check_report "mhamt nb arm"
    (D.explore (exhaustive ()) (mhamt_scenario wscripts vkeys))

(* The CI leg: MONTAGE_SCHED=random MONTAGE_SCHED_RUNS=N sweeps this
   scenario with seeded PCT; without the env a modest PCT pass runs. *)
let test_dsched_env_mode_sweep () =
  let mode =
    match D.mode_from_env () with
    | Some m -> m
    | None -> D.Pct { runs = 50; seed = 20260809; change_points = 3 }
  in
  match D.explore mode (mhamt_scenario wscripts vkeys) with
  | { D.failure = Some f; _ } -> Alcotest.fail (D.failure_to_string f)
  | _ -> ()

let () =
  Alcotest.run "mhamt"
    [
      ( "functional",
        [
          Alcotest.test_case "put/get/remove" `Quick test_put_get_remove;
          Alcotest.test_case "put_if_absent and update" `Quick test_put_if_absent_and_update;
          Alcotest.test_case "set reads no replaced value" `Quick test_set_skips_old_value;
          Alcotest.test_case "many keys, deep trie" `Quick test_many_keys_deep_trie;
          Alcotest.test_case "collision-heavy hash" `Quick test_collision_heavy;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "snapshots pin independently" `Quick test_snapshots_pin_independently;
          Alcotest.test_case "snapshot never blocks advance" `Quick
            test_snapshot_never_blocks_advance;
          QCheck_alcotest.to_alcotest qcheck_vs_model_with_snapshots;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "concurrent disjoint writers" `Quick test_concurrent_disjoint_writers;
          Alcotest.test_case "view exact under concurrent writers" `Quick
            test_view_exact_under_concurrent_writers;
          Alcotest.test_case "history with snapshots linearizable" `Quick
            test_linearizable_history_with_snapshots;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "synced contents preserved" `Quick
            test_crash_recovery_preserves_synced;
          Alcotest.test_case "overwrite chain" `Quick test_crash_recovery_overwrite_chain;
          Alcotest.test_case "pinned retirees" `Quick test_crash_with_pinned_retirees;
          Alcotest.test_case "parallel recovery" `Quick test_parallel_recovery_matches;
          QCheck_alcotest.to_alcotest qcheck_recovery_under_injection;
        ] );
      ( "crash matrix",
        [
          Alcotest.test_case "acked writes durable" `Quick test_crash_matrix_acked_writes_durable;
          Alcotest.test_case "unsynced tail consistent" `Quick
            test_crash_matrix_unsynced_tail_consistent;
        ] );
      ( "dsched",
        [
          Alcotest.test_case "exhaustive, nb arm" `Slow test_dsched_exhaustive_nb;
          Alcotest.test_case "env-mode sweep" `Quick test_dsched_env_mode_sweep;
        ] );
    ]
