(* Tests for the Montage epoch system: payload lifecycle, the two-epoch
   persistence rule, anti-payloads, sync, recovery, and the
   epoch-verified CAS primitives. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config

let testing_cfg = { Cfg.testing with max_threads = 4 }

let make ?(capacity = 1 lsl 22) ?(cfg = testing_cfg) () =
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity () in
  (region, E.create ~config:cfg region)

let bytes_of = Bytes.of_string
let string_of = Bytes.to_string

(* One full op creating a payload. *)
let insert esys v = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (bytes_of v))

(* Crash, recover, and return surviving payload contents sorted. *)
let crash_and_recover region =
  Nvm.Region.crash region;
  let esys, payloads = E.recover ~config:testing_cfg region in
  let contents =
    Array.to_list payloads |> List.map (fun p -> string_of (E.pget_unsafe esys p)) |> List.sort compare
  in
  (esys, payloads, contents)

(* ---- basic lifecycle ---- *)

let test_pnew_pget_roundtrip () =
  let _, esys = make () in
  let p = insert esys "payload-contents" in
  Alcotest.(check string) "get returns content" "payload-contents" (string_of (E.pget_unsafe esys p))

let test_mutation_requires_op () =
  let _, esys = make () in
  Alcotest.check_raises "pnew outside op rejected"
    (Invalid_argument "Montage: payload mutation outside BEGIN_OP/END_OP") (fun () ->
      ignore (E.pnew esys ~tid:0 (bytes_of "x")))

let test_set_in_same_epoch_is_in_place () =
  let _, esys = make () in
  E.with_op esys ~tid:0 (fun () ->
      let p = E.pnew esys ~tid:0 (bytes_of "aaaa") in
      let p' = E.pset esys ~tid:0 p (bytes_of "bbbb") in
      Alcotest.(check bool) "same handle" true (p == p');
      Alcotest.(check string) "updated" "bbbb" (string_of (E.pget esys ~tid:0 p')))

let test_set_across_epochs_copies () =
  let _, esys = make () in
  let p = insert esys "old-value" in
  E.advance_epoch esys ~tid:0;
  E.with_op esys ~tid:0 (fun () ->
      let p' = E.pset esys ~tid:0 p (bytes_of "new-value") in
      Alcotest.(check bool) "different handle" true (p != p');
      Alcotest.(check bool) "same uid" true (p.E.uid = p'.E.uid);
      Alcotest.(check string) "new content" "new-value" (string_of (E.pget esys ~tid:0 p')))

let test_stale_handle_detected_after_copy () =
  let _, esys = make () in
  let p = insert esys "v1" in
  E.advance_epoch esys ~tid:0;
  E.with_op esys ~tid:0 (fun () ->
      let _p' = E.pset esys ~tid:0 p (bytes_of "v2") in
      Alcotest.check_raises "old handle dead" Montage.Errors.Use_after_free (fun () ->
          ignore (E.pget esys ~tid:0 p)))

let test_old_see_new_raised () =
  let _, esys = make () in
  (* start an op, then advance the epoch from "another thread", then
     create a newer payload and let the stale op read it *)
  E.begin_op esys ~tid:0;
  E.advance_epoch esys ~tid:1;
  E.begin_op esys ~tid:1;
  let fresh = E.pnew esys ~tid:1 (bytes_of "newer") in
  Alcotest.check_raises "old op sees new payload" Montage.Errors.Old_see_new (fun () ->
      ignore (E.pget esys ~tid:0 fresh));
  E.end_op esys ~tid:1;
  E.end_op esys ~tid:0

let test_check_epoch_raises_after_advance () =
  let _, esys = make () in
  E.begin_op esys ~tid:0;
  E.check_epoch esys ~tid:0;
  E.advance_epoch esys ~tid:1;
  Alcotest.check_raises "epoch changed" Montage.Errors.Epoch_changed (fun () ->
      E.check_epoch esys ~tid:0);
  E.end_op esys ~tid:0

(* ---- the two-epoch persistence rule (§3.2) ---- *)

let test_crash_same_epoch_loses_payload () =
  let region, esys = make () in
  let _ = insert esys "too-fresh" in
  let _, _, contents = crash_and_recover region in
  Alcotest.(check (list string)) "epoch e discarded" [] contents

let test_crash_one_epoch_later_still_loses () =
  let region, esys = make () in
  let _ = insert esys "one-tick" in
  E.advance_epoch esys ~tid:0;
  let _, _, contents = crash_and_recover region in
  Alcotest.(check (list string)) "epoch e-1 discarded" [] contents

let test_crash_two_epochs_later_preserves () =
  let region, esys = make () in
  let _ = insert esys "durable-now" in
  E.advance_epoch esys ~tid:0;
  E.advance_epoch esys ~tid:0;
  let _, _, contents = crash_and_recover region in
  Alcotest.(check (list string)) "epoch e-2 preserved" [ "durable-now" ] contents

let test_sync_makes_latest_durable () =
  let region, esys = make () in
  let _ = insert esys "synced" in
  E.sync esys ~tid:0;
  let _, _, contents = crash_and_recover region in
  Alcotest.(check (list string)) "sync persists immediately" [ "synced" ] contents

let test_prefix_consistency_across_epochs () =
  let region, esys = make () in
  let _ = insert esys "epoch-A" in
  E.advance_epoch esys ~tid:0;
  let _ = insert esys "epoch-B" in
  E.advance_epoch esys ~tid:0;
  let _ = insert esys "epoch-C" in
  (* crash in epoch C's epoch: A is ≤ e−2, B is e−1, C is e *)
  let _, _, contents = crash_and_recover region in
  Alcotest.(check (list string)) "only the old prefix survives" [ "epoch-A" ] contents

(* ---- updates vs crash cuts ---- *)

let test_update_not_yet_durable_keeps_old_version () =
  let region, esys = make () in
  let p = insert esys "version-1" in
  E.sync esys ~tid:0;
  E.with_op esys ~tid:0 (fun () -> ignore (E.pset esys ~tid:0 p (bytes_of "version-2")));
  (* the update happened in the current epoch: a crash must roll back *)
  let _, _, contents = crash_and_recover region in
  Alcotest.(check (list string)) "old version restored" [ "version-1" ] contents

let test_update_durable_after_sync () =
  let region, esys = make () in
  let p = insert esys "version-1" in
  E.sync esys ~tid:0;
  E.with_op esys ~tid:0 (fun () -> ignore (E.pset esys ~tid:0 p (bytes_of "version-2")));
  E.sync esys ~tid:0;
  let _, _, contents = crash_and_recover region in
  Alcotest.(check (list string)) "new version wins" [ "version-2" ] contents

let test_many_updates_single_survivor () =
  let region, esys = make () in
  let p = ref (insert esys "v0") in
  for i = 1 to 10 do
    E.advance_epoch esys ~tid:0;
    E.with_op esys ~tid:0 (fun () -> p := E.pset esys ~tid:0 !p (bytes_of (Printf.sprintf "v%d" i)))
  done;
  E.sync esys ~tid:0;
  let _, _, contents = crash_and_recover region in
  Alcotest.(check (list string)) "exactly the newest version" [ "v10" ] contents

(* ---- deletion and anti-payloads ---- *)

let test_delete_not_yet_durable_resurrects () =
  let region, esys = make () in
  let p = insert esys "deleted-too-late" in
  E.sync esys ~tid:0;
  E.with_op esys ~tid:0 (fun () -> E.pdelete esys ~tid:0 p);
  (* anti-payload is in the crash-discarded window: item comes back *)
  let _, _, contents = crash_and_recover region in
  Alcotest.(check (list string)) "delete rolled back" [ "deleted-too-late" ] contents

let test_delete_durable_after_sync () =
  let region, esys = make () in
  let p = insert esys "gone-for-good" in
  E.sync esys ~tid:0;
  E.with_op esys ~tid:0 (fun () -> E.pdelete esys ~tid:0 p);
  E.sync esys ~tid:0;
  let _, _, contents = crash_and_recover region in
  Alcotest.(check (list string)) "anti-payload kills it" [] contents

let test_delete_same_epoch_alloc_invisible () =
  let region, esys = make () in
  E.with_op esys ~tid:0 (fun () ->
      let p = E.pnew esys ~tid:0 (bytes_of "blink") in
      E.pdelete esys ~tid:0 p);
  E.sync esys ~tid:0;
  let _, _, contents = crash_and_recover region in
  Alcotest.(check (list string)) "create+delete in one epoch leaves nothing" [] contents

let test_delete_same_epoch_update () =
  let region, esys = make () in
  let p = insert esys "touch-then-kill" in
  E.sync esys ~tid:0;
  (* update (copies into current epoch), then delete in the same op *)
  E.with_op esys ~tid:0 (fun () ->
      let p' = E.pset esys ~tid:0 p (bytes_of "touched") in
      E.pdelete esys ~tid:0 p');
  E.sync esys ~tid:0;
  let _, _, contents = crash_and_recover region in
  Alcotest.(check (list string)) "in-place anti-payload wins" [] contents

let test_use_after_delete_detected () =
  let _, esys = make () in
  let p = insert esys "x" in
  E.with_op esys ~tid:0 (fun () -> E.pdelete esys ~tid:0 p);
  Alcotest.check_raises "deleted handle" Montage.Errors.Use_after_free (fun () ->
      ignore (E.pget_unsafe esys p))

let test_blocks_reclaimed_after_delete () =
  (* deleted payloads must eventually return to the allocator *)
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 20) () in
  let esys = E.create ~config:testing_cfg region in
  (* heap ≈ 1 MB − 64 KB; each 1 KB payload uses a 2 KB block (header
     pushes it over 1 KB); without reclamation ~450 inserts would
     exhaust it, so 3000 insert+delete rounds prove reuse *)
  for i = 0 to 2999 do
    let p = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (Bytes.make 1024 'x')) in
    E.with_op esys ~tid:0 (fun () -> E.pdelete esys ~tid:0 p);
    if i mod 10 = 0 then E.advance_epoch esys ~tid:0
  done;
  Alcotest.(check bool) "no heap exhaustion" true true

(* ---- recovery details ---- *)

let test_recovered_handles_are_usable () =
  let region, esys = make () in
  let _ = insert esys "reusable" in
  E.sync esys ~tid:0;
  let esys2, payloads, _ = crash_and_recover region in
  Alcotest.(check int) "one survivor" 1 (Array.length payloads);
  let p = payloads.(0) in
  (* mutate the recovered payload through the new epoch system *)
  E.with_op esys2 ~tid:0 (fun () -> ignore (E.pset esys2 ~tid:0 p (bytes_of "after-recovery")));
  E.sync esys2 ~tid:0;
  Nvm.Region.crash region;
  let esys3, payloads3 = E.recover ~config:testing_cfg region in
  Alcotest.(check int) "still one payload" 1 (Array.length payloads3);
  Alcotest.(check string) "second-generation update survived" "after-recovery"
    (string_of (E.pget_unsafe esys3 payloads3.(0)))

let test_uids_not_reused_after_recovery () =
  let region, esys = make () in
  let p = insert esys "a" in
  E.sync esys ~tid:0;
  let uid_before = p.E.uid in
  let esys2, _, _ = crash_and_recover region in
  let q = E.with_op esys2 ~tid:0 (fun () -> E.pnew esys2 ~tid:0 (bytes_of "b")) in
  Alcotest.(check bool) "fresh uid larger" true (q.E.uid > uid_before)

let test_double_crash_is_stable () =
  let region, esys = make () in
  let _ = insert esys "stable" in
  E.sync esys ~tid:0;
  let _, _, contents1 = crash_and_recover region in
  let _, _, contents2 = crash_and_recover region in
  Alcotest.(check (list string)) "first recovery" [ "stable" ] contents1;
  Alcotest.(check (list string)) "second recovery identical" [ "stable" ] contents2

let test_parallel_recovery_matches_sequential () =
  let region, esys = make ~capacity:(1 lsl 23) () in
  for i = 0 to 299 do
    ignore (insert esys (Printf.sprintf "p%03d" i))
  done;
  (* delete a third, update a third *)
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let _, seq_payloads = E.recover ~config:testing_cfg region in
  let seq =
    Array.to_list seq_payloads
    |> List.map (fun p -> p.E.uid)
    |> List.sort compare
  in
  (* recover the same image again, in parallel: identical survivors *)
  Nvm.Region.crash region;
  let esys3, par_payloads = E.recover ~config:testing_cfg ~threads:4 region in
  let par =
    Array.to_list par_payloads
    |> List.map (fun p -> p.E.uid)
    |> List.sort compare
  in
  Alcotest.(check int) "same survivor count" (List.length seq) (List.length par);
  Alcotest.(check bool) "same uids" true (seq = par);
  (* and the parallel-recovered system is fully functional *)
  let q = E.with_op esys3 ~tid:0 (fun () -> E.pnew esys3 ~tid:0 (bytes_of "fresh")) in
  Alcotest.(check string) "usable" "fresh" (string_of (E.pget_unsafe esys3 q))

let test_slices_partition () =
  let region, esys = make () in
  for i = 0 to 19 do
    ignore (insert esys (Printf.sprintf "p%02d" i))
  done;
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let _, payloads = E.recover ~config:testing_cfg region in
  let slices = E.slices payloads ~k:3 in
  let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 slices in
  Alcotest.(check int) "slices cover all" (Array.length payloads) total;
  Alcotest.(check int) "three slices" 3 (Array.length slices)

let test_montage_transient_mode () =
  (* Montage (T): everything works, nothing persists, no flushes *)
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 20) () in
  let esys = E.create ~config:{ Cfg.transient with max_threads = 4 } region in
  (* setup (clock init, superblock headers) may flush; operations must
     not.  Pre-warm the size class so the first pnew does not carve. *)
  let warm = Ralloc.alloc (E.allocator esys) ~tid:0 ~size:64 in
  Ralloc.free (E.allocator esys) ~tid:0 warm;
  let s0 = Nvm.Region.stats region in
  let p = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (bytes_of "fast")) in
  E.with_op esys ~tid:0 (fun () -> ignore (E.pset esys ~tid:0 p (bytes_of "path")));
  E.with_op esys ~tid:0 (fun () -> E.pdelete esys ~tid:0 p);
  let s1 = Nvm.Region.stats region in
  Alcotest.(check int) "no writebacks" s0.Nvm.Region.writebacks s1.Nvm.Region.writebacks;
  Alcotest.(check int) "no fences" s0.Nvm.Region.fences s1.Nvm.Region.fences

let test_direct_writeback_mode () =
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 20) () in
  let cfg = { testing_cfg with writeback = Cfg.Direct } in
  let esys = E.create ~config:cfg region in
  ignore (E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (bytes_of "now")));
  let s = Nvm.Region.stats region in
  Alcotest.(check bool) "payload flushed synchronously" true (s.Nvm.Region.fences >= 1)

let test_worker_reclamation_mode () =
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 20) () in
  let cfg = { testing_cfg with reclaim = Cfg.Workers } in
  let esys = E.create ~config:cfg region in
  for _ = 1 to 1500 do
    let p = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (Bytes.make 1024 'y')) in
    E.with_op esys ~tid:0 (fun () -> E.pdelete esys ~tid:0 p);
    E.advance_epoch esys ~tid:1
  done;
  Alcotest.(check bool) "workers reclaim their garbage" true true

(* ---- incremental write-back (buffer overflow) ---- *)

let test_buffer_overflow_incremental_writeback () =
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 22) () in
  let cfg = { testing_cfg with buffer_size = 4 } in
  let esys = E.create ~config:cfg region in
  (* create many payloads in one epoch: the 4-entry ring must spill *)
  E.with_op esys ~tid:0 (fun () ->
      for _ = 1 to 64 do
        ignore (E.pnew esys ~tid:0 (bytes_of "spill"))
      done);
  let s = Nvm.Region.stats region in
  Alcotest.(check bool) "spills wrote back early" true (s.Nvm.Region.writebacks > 0);
  (* and correctness still holds after the usual two advances *)
  E.advance_epoch esys ~tid:0;
  E.advance_epoch esys ~tid:0;
  Nvm.Region.crash region;
  let _, payloads = E.recover ~config:cfg region in
  Alcotest.(check int) "all 64 survive" 64 (Array.length payloads)

(* ---- concurrent smoke test ---- *)

let test_concurrent_inserts_recover_cleanly () =
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 24) () in
  let esys = E.create ~config:testing_cfg region in
  let per_thread = 500 in
  let domains =
    Array.init 3 (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to per_thread do
              ignore
                (E.with_op esys ~tid (fun () ->
                     E.pnew esys ~tid (bytes_of (Printf.sprintf "t%d-%d" tid i))))
            done))
  in
  Array.iter Domain.join domains;
  E.sync esys ~tid:3;
  Nvm.Region.crash region;
  let _, payloads = E.recover ~config:testing_cfg region in
  Alcotest.(check int) "all inserts durable after sync" (3 * per_thread) (Array.length payloads)

(* ---- property: random op/crash interleavings are prefix-consistent ---- *)

(* Single-threaded model execution: maintain the expected surviving set
   per epoch boundary and compare against recovery at a random crash
   point.  This is the buffered-durable-linearizability contract in
   miniature: recovery must equal the model state at the end of epoch
   crash_epoch − 2. *)
let qcheck_prefix_consistency =
  QCheck.Test.make ~name:"recovery equals the two-epochs-ago model state" ~count:60
    QCheck.(pair small_int (list (int_range 0 5)))
    (fun (seed, script) ->
      QCheck.assume (List.length script > 0);
      let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 22) () in
      let esys = E.create ~config:testing_cfg region in
      let rng = Util.Xoshiro.create seed in
      (* model: per-epoch snapshots of the abstract set of strings *)
      let live : (string, E.pblk) Hashtbl.t = Hashtbl.create 16 in
      let snapshots = Hashtbl.create 16 in
      let snapshot () = Hashtbl.fold (fun k _ acc -> k :: acc) live [] |> List.sort compare in
      let epoch = ref (E.current_epoch esys) in
      let counter = ref 0 in
      List.iter
        (fun cmd ->
          (match cmd with
          | 0 | 1 | 2 ->
              (* insert *)
              incr counter;
              let v = Printf.sprintf "item-%d" !counter in
              let p = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (bytes_of v)) in
              Hashtbl.replace live v p
          | 3 ->
              (* delete a random live item *)
              let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
              if keys <> [] then begin
                let k = List.nth keys (Util.Xoshiro.int rng (List.length keys)) in
                let p = Hashtbl.find live k in
                E.with_op esys ~tid:0 (fun () -> E.pdelete esys ~tid:0 p);
                Hashtbl.remove live k
              end
          | 4 ->
              (* update a random live item (same abstract value set:
                 we rename to a fresh string to observe the change) *)
              let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
              if keys <> [] then begin
                let k = List.nth keys (Util.Xoshiro.int rng (List.length keys)) in
                let p = Hashtbl.find live k in
                incr counter;
                let v' = Printf.sprintf "item-%d" !counter in
                let p' = E.with_op esys ~tid:0 (fun () -> E.pset esys ~tid:0 p (bytes_of v')) in
                Hashtbl.remove live k;
                Hashtbl.replace live v' p'
              end
          | _ ->
              (* epoch tick *)
              E.advance_epoch esys ~tid:1);
          (* record the model state once per epoch boundary, as the
             epoch is left: only the tick moves the clock, and it leaves
             the set as the epoch's last command did *)
          let e = E.current_epoch esys in
          if e <> !epoch then begin
            Hashtbl.replace snapshots !epoch (snapshot ());
            epoch := e
          end)
        script;
      Hashtbl.replace snapshots !epoch (snapshot ());
      let crash_epoch = E.current_epoch esys in
      Nvm.Region.crash region;
      let esys2, payloads = E.recover ~config:testing_cfg region in
      let recovered =
        Array.to_list payloads |> List.map (fun p -> string_of (E.pget_unsafe esys2 p)) |> List.sort compare
      in
      (* expected: the newest snapshot at an epoch ≤ crash_epoch − 2 *)
      let expected = ref [] in
      for e = 1 to crash_epoch - 2 do
        match Hashtbl.find_opt snapshots e with Some s -> expected := s | None -> ()
      done;
      recovered = !expected)

(* ---- recovery spec: the scan's grouping against a reference ---- *)

(* The recovery rule, written from the media layout alone: walk every
   block of every bound superblock in a crash image, parse each header
   (magic, type, epoch, uid, size at +0/+4/+8/+16/+24), and per uid
   keep the newest version with epoch <= clock - 2; drop the uid when
   that version is a DELETE.  Two candidates at the newest epoch would
   leave the winner to scan order, so the reference refuses them.
   Returns the sorted (uid, off, epoch, size) survivors and the number
   of DELETE winners. *)
let reference_survivors image =
  let i32 off = Int32.to_int (String.get_int32_le image off) land 0xFFFFFFFF in
  let i64 off = Int64.to_int (String.get_int64_le image off) in
  let cutoff = i64 0 - 2 in
  let blocks = Nvm.Region.of_image ~latency:Nvm.Latency.zero ~max_threads:8 image in
  let heap = Ralloc.create blocks ~heap_base:Ralloc.superblock_size in
  Ralloc.rescan heap;
  (* uid -> (epoch, [(off, type, size)]) of the newest qualifying versions *)
  let best = Hashtbl.create 64 in
  Ralloc.iter_blocks heap (fun ~off ~size:block ->
      let ty = Char.code image.[off + 4] in
      let epoch = i64 (off + 8) and uid = i64 (off + 16) and size = i32 (off + 24) in
      if
        i32 off = Montage.Payload_hdr.magic
        && ty <= 2 && epoch > 0 && uid > 0
        && Montage.Payload_hdr.header_size + size <= block
        && epoch <= cutoff
      then
        match Hashtbl.find_opt best uid with
        | Some (e, _) when e > epoch -> ()
        | Some (e, vs) when e = epoch -> Hashtbl.replace best uid (e, (off, ty, size) :: vs)
        | _ -> Hashtbl.replace best uid (epoch, [ (off, ty, size) ]));
  let live, deletes =
    Hashtbl.fold
      (fun uid (epoch, versions) (live, deletes) ->
        match versions with
        | [ (_, 2, _) ] -> (live, deletes + 1)
        | [ (off, _, size) ] -> ((uid, off, epoch, size) :: live, deletes)
        | _ -> Alcotest.failf "uid %d: %d versions at epoch %d" uid (List.length versions) epoch)
      best ([], 0)
  in
  (List.sort compare live, deletes)

let show_survivors l =
  List.map (fun (uid, off, epoch, size) -> Printf.sprintf "uid %d at %d, epoch %d, %d bytes" uid off epoch size) l

let recovered_set (payloads : E.pblk array) =
  Array.to_list payloads |> List.map (fun (p : E.pblk) -> (p.uid, p.off, p.epoch, p.size)) |> List.sort compare

(* Recover one crash image at 1, 2 and 3 threads; each must return the
   reference's survivors exactly.  Returns the DELETE winner count. *)
let check_recovery_spec image =
  let expected, deletes = reference_survivors image in
  List.iter
    (fun threads ->
      let region = Nvm.Region.of_image ~latency:Nvm.Latency.zero ~max_threads:8 image in
      let _, payloads = E.recover ~config:testing_cfg ~threads region in
      Alcotest.(check (list string))
        (Printf.sprintf "threads %d = reference" threads)
        (show_survivors expected)
        (show_survivors (recovered_set payloads)))
    [ 1; 2; 3 ];
  deletes

(* A DELETE winner whose block the sweep frees: an update copied into
   a new block and deleted in the same epoch turns that block into its
   own anti-payload (DELETE in place), newer than the original.  The
   sweep scrubs the winner and threads the free list through its first
   8 bytes, so only the scan's record of its type keeps the uid dead. *)
let test_recovery_spec_delete_winner () =
  let region, esys = make () in
  let doomed = insert esys "doomed" and kept = insert esys "kept" in
  E.advance_epoch esys ~tid:0;
  E.with_op esys ~tid:0 (fun () ->
      let doomed' = E.pset esys ~tid:0 doomed (bytes_of "doomed, updated") in
      E.pdelete esys ~tid:0 doomed');
  E.sync esys ~tid:0;
  Nvm.Region.crash region;
  let image = Nvm.Region.media_image region in
  Alcotest.(check int) "one DELETE winner" 1 (check_recovery_spec image);
  let esys2, payloads = E.recover ~config:testing_cfg ~threads:2 (Nvm.Region.of_image image) in
  Alcotest.(check (list string)) "only the kept payload" [ "kept" ]
    (Array.to_list payloads |> List.map (fun p -> string_of (E.pget_unsafe esys2 p)));
  Alcotest.(check bool) "doomed uid gone" true
    (Array.for_all (fun (p : E.pblk) -> p.uid <> doomed.uid && p.uid = kept.uid) payloads)

(* Random scripts over the epoch system: creates, cross-epoch updates
   (copying), same-epoch updates (in place, or copying when the content
   outgrows its block), deletes of older payloads (anti-payloads),
   same-epoch update-then-delete (DELETE in place), epoch ticks and
   syncs; then a crash that may persist unfenced write-backs and evict
   dirty lines. *)
let qcheck_recovery_spec =
  QCheck.Test.make ~name:"recovery scan = reference grouping, 1-3 threads" ~count:40
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 60) (int_range 0 9)))
    (fun (seed, script) ->
      let region, esys = make () in
      let rng = Util.Xoshiro.create seed in
      let live = ref [||] in
      let content () = Bytes.make (Util.Xoshiro.int rng 300) (Char.chr (97 + Util.Xoshiro.int rng 26)) in
      let pick () = Util.Xoshiro.int rng (Array.length !live) in
      let drop i = live := Array.append (Array.sub !live 0 i) (Array.sub !live (i + 1) (Array.length !live - i - 1)) in
      List.iter
        (fun cmd ->
          match cmd with
          | 0 | 1 | 2 ->
              let p = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (content ())) in
              live := Array.append !live [| p |]
          | (3 | 4) when !live <> [||] ->
              let i = pick () in
              !live.(i) <- E.with_op esys ~tid:0 (fun () -> E.pset esys ~tid:0 !live.(i) (content ()))
          | 5 when !live <> [||] ->
              let i = pick () in
              E.with_op esys ~tid:0 (fun () -> E.pdelete esys ~tid:0 !live.(i));
              drop i
          | 6 when !live <> [||] ->
              let i = pick () in
              E.with_op esys ~tid:0 (fun () ->
                  E.pdelete esys ~tid:0 (E.pset esys ~tid:0 !live.(i) (content ())));
              drop i
          | 7 | 8 -> E.advance_epoch esys ~tid:1
          | 9 -> E.sync esys ~tid:1
          | _ -> ())
        script;
      let injected = Util.Xoshiro.bool rng in
      Nvm.Region.crash
        ~persist_unfenced:(if injected then Util.Xoshiro.float rng else 0.0)
        ~evict_dirty:(if injected then Util.Xoshiro.float rng else 0.0)
        ~rng region;
      ignore (check_recovery_spec (Nvm.Region.media_image region));
      true)

let () =
  Alcotest.run "montage"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "pnew/pget roundtrip" `Quick test_pnew_pget_roundtrip;
          Alcotest.test_case "mutation requires op" `Quick test_mutation_requires_op;
          Alcotest.test_case "same-epoch set in place" `Quick test_set_in_same_epoch_is_in_place;
          Alcotest.test_case "cross-epoch set copies" `Quick test_set_across_epochs_copies;
          Alcotest.test_case "stale handle detected" `Quick test_stale_handle_detected_after_copy;
          Alcotest.test_case "old-sees-new raised" `Quick test_old_see_new_raised;
          Alcotest.test_case "check_epoch raises" `Quick test_check_epoch_raises_after_advance;
        ] );
      ( "two-epoch rule",
        [
          Alcotest.test_case "crash in e loses" `Quick test_crash_same_epoch_loses_payload;
          Alcotest.test_case "crash in e+1 loses" `Quick test_crash_one_epoch_later_still_loses;
          Alcotest.test_case "crash in e+2 preserves" `Quick test_crash_two_epochs_later_preserves;
          Alcotest.test_case "sync forces durability" `Quick test_sync_makes_latest_durable;
          Alcotest.test_case "prefix consistency" `Quick test_prefix_consistency_across_epochs;
        ] );
      ( "updates",
        [
          Alcotest.test_case "unsynced update rolls back" `Quick test_update_not_yet_durable_keeps_old_version;
          Alcotest.test_case "synced update survives" `Quick test_update_durable_after_sync;
          Alcotest.test_case "many updates, one survivor" `Quick test_many_updates_single_survivor;
        ] );
      ( "deletion",
        [
          Alcotest.test_case "unsynced delete resurrects" `Quick test_delete_not_yet_durable_resurrects;
          Alcotest.test_case "synced delete final" `Quick test_delete_durable_after_sync;
          Alcotest.test_case "same-epoch create+delete" `Quick test_delete_same_epoch_alloc_invisible;
          Alcotest.test_case "same-epoch update+delete" `Quick test_delete_same_epoch_update;
          Alcotest.test_case "use-after-delete detected" `Quick test_use_after_delete_detected;
          Alcotest.test_case "blocks reclaimed" `Quick test_blocks_reclaimed_after_delete;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recovered handles usable" `Quick test_recovered_handles_are_usable;
          Alcotest.test_case "uids not reused" `Quick test_uids_not_reused_after_recovery;
          Alcotest.test_case "double crash stable" `Quick test_double_crash_is_stable;
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_recovery_matches_sequential;
          Alcotest.test_case "slices partition" `Quick test_slices_partition;
          QCheck_alcotest.to_alcotest qcheck_prefix_consistency;
          Alcotest.test_case "spec: DELETE winner stays dead" `Quick test_recovery_spec_delete_winner;
          QCheck_alcotest.to_alcotest qcheck_recovery_spec;
        ] );
      ( "configurations",
        [
          Alcotest.test_case "Montage(T) elides persistence" `Quick test_montage_transient_mode;
          Alcotest.test_case "DirWB flushes synchronously" `Quick test_direct_writeback_mode;
          Alcotest.test_case "worker reclamation" `Quick test_worker_reclamation_mode;
          Alcotest.test_case "buffer overflow spills" `Quick test_buffer_overflow_incremental_writeback;
        ] );
      ( "concurrency",
        [ Alcotest.test_case "parallel inserts recover" `Quick test_concurrent_inserts_recover_cleanly ] );
    ]
