(* Unit tests for the Montage runtime internals: the per-thread
   write-back ring, the operation tracker, the mindicator, the payload
   header codec, and the typed payload codecs. *)

module PB = Montage.Persist_buffer
module E = Montage.Epoch_sys
module T = Montage.Tracker
module M = Montage.Mindicator
module H = Montage.Payload_hdr
module P = Montage.Payload

(* ---- persist buffer ---- *)

(* Every record the ring holds, oldest first, with the stop index for
   [retire_upto]. *)
let published b =
  let acc = ref [] in
  let stop = PB.publish b (fun off len -> acc := (off, len) :: !acc) in
  (List.rev !acc, stop)

let test_pb_fifo () =
  let b = PB.create ~capacity:8 in
  Alcotest.(check bool) "empty" true (PB.is_empty b);
  PB.push b ~off:64 ~len:10;
  PB.push b ~off:128 ~len:20;
  let recs, stop = published b in
  Alcotest.(check (list (pair int int))) "push order" [ (64, 10); (128, 20) ] recs;
  Alcotest.(check bool) "publish consumes nothing" false (PB.is_empty b);
  PB.retire_upto b ~upto:stop;
  Alcotest.(check bool) "retired" true (PB.is_empty b)

(* The owner flushes a full ring before its next push: with a 4-slot
   ring the fifth pnew writes the first four payloads back and fences
   them — on media with no epoch advance — while the fifth stays
   buffered. *)
let test_pb_overflow_flushes_oldest () =
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:2 ~capacity:(1 lsl 20) () in
  let esys = E.create ~config:{ Montage.Config.testing with max_threads = 1; buffer_size = 4 } region in
  let ps =
    E.with_op esys ~tid:0 (fun () ->
        List.init 5 (fun i -> E.pnew esys ~tid:0 (Bytes.make 8 (Char.chr (Char.code 'a' + i)))))
  in
  let media = Nvm.Region.media_image region in
  let on_media (p : E.pblk) = String.sub media (H.content_off p.off) 8 in
  List.iteri
    (fun i p ->
      let want = if i < 4 then String.make 8 (Char.chr (Char.code 'a' + i)) else String.make 8 '\000' in
      Alcotest.(check string) (Printf.sprintf "payload %d on media" i) want (on_media p))
    ps;
  Alcotest.(check int) "no epoch advance" 0 (E.advance_count esys)

let test_pb_oversized_range_rejected () =
  (* lengths beyond the 14-bit packed field must raise, not silently
     truncate into a corrupt entry *)
  let b = PB.create ~capacity:8 in
  PB.push b ~off:64 ~len:PB.max_len;
  let recs, stop = published b in
  Alcotest.(check (list (pair int int))) "max length packs exactly" [ (64, PB.max_len) ] recs;
  PB.retire_upto b ~upto:stop;
  let check_raises len =
    match PB.push b ~off:64 ~len with
    | () -> Alcotest.failf "push accepted len %d" len
    | exception Invalid_argument _ -> ()
  in
  check_raises (PB.max_len + 1);
  check_raises (-1);
  Alcotest.(check bool) "rejected pushes left no entry" true (PB.is_empty b)

let test_pb_drain () =
  let b = PB.create ~capacity:16 in
  for i = 1 to 10 do
    PB.push b ~off:(i * 64) ~len:i
  done;
  let recs, stop = published b in
  Alcotest.(check int) "all entries" 10 (List.length recs);
  PB.retire_upto b ~upto:stop;
  Alcotest.(check bool) "empty after publish + retire" true (PB.is_empty b)

let test_pb_concurrent_consumer () =
  (* producer pushes while a consumer publishes and retires; the
     producer publishes its own full ring the same way.  Every entry is
     published by at least one of them: the head passes a record only
     through a retire that follows a publication covering it *)
  let b = PB.create ~capacity:8 in
  let total = 20_000 in
  let finished = Atomic.make false in
  let mark seen off _ = seen.((off / 64) - 1) <- true in
  let consumer =
    Domain.spawn (fun () ->
        let seen = Array.make total false in
        while not (Atomic.get finished) do
          PB.retire_upto b ~upto:(PB.publish b (mark seen))
        done;
        seen)
  in
  let own = Array.make total false in
  for i = 1 to total do
    if PB.is_full b then PB.retire_upto b ~upto:(PB.publish b (mark own));
    PB.push b ~off:(i * 64) ~len:1
  done;
  PB.retire_upto b ~upto:(PB.publish b (mark own));
  Atomic.set finished true;
  let theirs = Domain.join consumer in
  Alcotest.(check bool) "empty" true (PB.is_empty b);
  Alcotest.(check int) "every entry published" total
    (List.length (List.filter Fun.id (List.init total (fun i -> own.(i) || theirs.(i)))))

(* ---- tracker ---- *)

let test_tracker_register () =
  let t = T.create ~max_threads:4 in
  Alcotest.(check int) "idle" 0 (T.active_epoch t ~tid:1);
  T.register t ~tid:1 ~epoch:7;
  Alcotest.(check int) "active" 7 (T.active_epoch t ~tid:1);
  Alcotest.(check bool) "probe finds it" true (T.any_active_le t ~epoch:7);
  Alcotest.(check bool) "probe bounded" false (T.any_active_le t ~epoch:6);
  T.unregister t ~tid:1;
  Alcotest.(check bool) "gone" false (T.any_active_le t ~epoch:100)

(* Run waiter and unregisterer as deterministic fibers: the scheduler
   proves [wait_all] blocks (the waiter can only resume once its await
   predicate holds, i.e. after the unregister) on every interleaving —
   no wall-clock "should still be blocked by now" window. *)
let test_tracker_wait_all_blocks_then_releases () =
  let scenario =
    {
      Dsched.init =
        (fun () ->
          let t = T.create ~max_threads:4 in
          T.register t ~tid:2 ~epoch:5;
          (t, ref false, ref false));
      threads =
        [|
          (fun (t, released, unregistered) ->
            T.wait_all t ~epoch:5;
            (* early release = returning while the epoch is still active *)
            if !unregistered then released := true);
          (fun (t, _, unregistered) ->
            unregistered := true;
            T.unregister t ~tid:2);
        |];
      check_crash = None;
      check_done = Some (fun (_, released, _) -> !released);
    }
  in
  let r =
    Dsched.explore (Dsched.Exhaustive { preemptions = 2; max_attempts = 10_000; crashes = false })
      scenario
  in
  match r.Dsched.failure with
  | Some f -> Alcotest.fail (Dsched.failure_to_string f)
  | None -> Alcotest.(check bool) "interleavings explored" true (r.Dsched.schedules > 1)

let test_tracker_wait_ignores_newer_epochs () =
  let t = T.create ~max_threads:4 in
  T.register t ~tid:0 ~epoch:9;
  (* an op in epoch 9 must not block waiting on epoch 8 *)
  T.wait_all t ~epoch:8;
  T.unregister t ~tid:0;
  Alcotest.(check bool) "returned immediately" true true

(* ---- mindicator ---- *)

let test_mindicator_min_tracking () =
  let m = M.create ~max_threads:4 in
  Alcotest.(check int) "initially infinite" M.infinity_epoch (M.query m);
  M.announce m ~tid:0 ~epoch:10;
  M.announce m ~tid:1 ~epoch:7;
  Alcotest.(check int) "min" 7 (M.query m);
  M.announce m ~tid:1 ~epoch:12 (* announce never raises a leaf *);
  Alcotest.(check int) "min unchanged" 7 (M.query m);
  M.retire m ~tid:1 ~epoch:20;
  Alcotest.(check int) "min moves to other thread" 10 (M.query m);
  M.clear m ~tid:0;
  Alcotest.(check int) "only retired leaf left" 20 (M.query m)

(* ---- payload header codec ---- *)

let make_region () = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:2 ~capacity:4096 ()

let test_hdr_roundtrip () =
  let r = make_region () in
  let hdr = { H.ptype = H.Update; epoch = 42; uid = 1234; size = 100 } in
  H.write r ~off:64 hdr;
  (match H.read r ~off:64 ~block_size:256 with
  | Some h ->
      Alcotest.(check bool) "type" true (h.H.ptype = H.Update);
      Alcotest.(check int) "epoch" 42 h.H.epoch;
      Alcotest.(check int) "uid" 1234 h.H.uid;
      Alcotest.(check int) "size" 100 h.H.size
  | None -> Alcotest.fail "expected header");
  Alcotest.(check int) "content offset" (64 + H.header_size) (H.content_off 64)

let test_hdr_rejects_garbage () =
  let r = make_region () in
  Alcotest.(check bool) "zeroed block" true (H.read r ~off:0 ~block_size:256 = None);
  (* oversize content relative to the block *)
  H.write r ~off:64 { H.ptype = H.Alloc; epoch = 1; uid = 1; size = 10_000 };
  Alcotest.(check bool) "size beyond block rejected" true (H.read r ~off:64 ~block_size:256 = None);
  (* scrub invalidates *)
  H.write r ~off:128 { H.ptype = H.Alloc; epoch = 1; uid = 1; size = 10 };
  H.scrub r ~off:128;
  Alcotest.(check bool) "scrubbed" true (H.read r ~off:128 ~block_size:256 = None)

let test_hdr_type_mutation () =
  let r = make_region () in
  H.write r ~off:64 { H.ptype = H.Update; epoch = 5; uid = 9; size = 0 };
  H.set_type r ~off:64 H.Delete;
  match H.read r ~off:64 ~block_size:256 with
  | Some h -> Alcotest.(check bool) "now an anti-payload" true (h.H.ptype = H.Delete)
  | None -> Alcotest.fail "expected header"

(* ---- typed payload codecs ---- *)

(* Encode to a fill, lay it out, decode from a view of the bytes. *)
let roundtrip (type a) (module C : P.CONTENT with type t = a) (x : a) =
  let b = P.bytes_of_fill (C.encode x) in
  C.decode (P.View.of_bytes b ~off:0 ~len:(Bytes.length b))

let test_kv_codec () =
  let cases = [ ("", ""); ("k", "v"); ("key-with-:", String.make 1000 'x'); ("a", "") ] in
  List.iter
    (fun (k, v) ->
      let k', v' = roundtrip (module P.Kv_content) (k, v) in
      Alcotest.(check string) "key" k k';
      Alcotest.(check string) "value" v v')
    cases

let test_seq_codec () =
  List.iter
    (fun (n, s) ->
      let n', s' = roundtrip (module P.Seq_content) (n, s) in
      Alcotest.(check int) "seq" n n';
      Alcotest.(check string) "payload" s s')
    [ (0, ""); (1, "x"); (max_int / 2, String.make 100 'q') ]

let qcheck_kv_codec_roundtrip =
  QCheck.Test.make ~name:"kv codec roundtrips arbitrary strings" ~count:200
    QCheck.(pair string string)
    (fun (k, v) -> roundtrip (module P.Kv_content) (k, v) = (k, v))

let () =
  Alcotest.run "runtime"
    [
      ( "persist_buffer",
        [
          Alcotest.test_case "FIFO" `Quick test_pb_fifo;
          Alcotest.test_case "overflow flushes oldest" `Quick test_pb_overflow_flushes_oldest;
          Alcotest.test_case "oversized range rejected" `Quick test_pb_oversized_range_rejected;
          Alcotest.test_case "drain" `Quick test_pb_drain;
          Alcotest.test_case "concurrent consumer" `Quick test_pb_concurrent_consumer;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "register/probe" `Quick test_tracker_register;
          Alcotest.test_case "wait_all blocks" `Quick test_tracker_wait_all_blocks_then_releases;
          Alcotest.test_case "wait ignores newer" `Quick test_tracker_wait_ignores_newer_epochs;
        ] );
      ("mindicator", [ Alcotest.test_case "min tracking" `Quick test_mindicator_min_tracking ]);
      ( "payload_hdr",
        [
          Alcotest.test_case "roundtrip" `Quick test_hdr_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_hdr_rejects_garbage;
          Alcotest.test_case "type mutation" `Quick test_hdr_type_mutation;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "kv" `Quick test_kv_codec;
          Alcotest.test_case "seq" `Quick test_seq_codec;
          QCheck_alcotest.to_alcotest qcheck_kv_codec_roundtrip;
        ] );
    ]
