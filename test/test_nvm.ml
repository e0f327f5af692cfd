(* Tests for the simulated NVM region: store/load, write-back + fence
   semantics, crash behaviour, and injection modes. *)

let make_region ?(capacity = 1 lsl 16) () =
  Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:4 ~capacity ()

let test_write_read_roundtrip () =
  let r = make_region () in
  Nvm.Region.write_string r ~off:100 "hello, montage";
  Alcotest.(check string) "roundtrip" "hello, montage" (Nvm.Region.read_string r ~off:100 ~len:14)

let test_scalar_accessors () =
  let r = make_region () in
  Nvm.Region.set_i64 r ~off:0 123456789;
  Nvm.Region.set_i32 r ~off:8 4242;
  Nvm.Region.set_u8 r ~off:12 77;
  Alcotest.(check int) "i64" 123456789 (Nvm.Region.get_i64 r ~off:0);
  Alcotest.(check int) "i32" 4242 (Nvm.Region.get_i32 r ~off:8);
  Alcotest.(check int) "u8" 77 (Nvm.Region.get_u8 r ~off:12)

let test_out_of_bounds_rejected () =
  let r = make_region ~capacity:1024 () in
  Alcotest.check_raises "write past end" (Invalid_argument "Region: access [1020, 1028) outside capacity 1024")
    (fun () -> Nvm.Region.set_i64 r ~off:1020 1)

let random_image rng len = String.init len (fun _ -> Char.chr (1 + Util.Xoshiro.int rng 255))

(* A region rebuilt from an image whose length is not a line multiple:
   both views start as the image, zero-padded to the rounded capacity,
   and a crash after unflushed stores restores exactly that. *)
let test_of_image_views () =
  let rng = Util.Xoshiro.create 7 in
  let len = 1000 in
  let image = random_image rng len in
  let saved = Bytes.of_string image in
  let padded = image ^ String.make (1024 - len) '\000' in
  let r = Nvm.Region.of_image ~latency:Nvm.Latency.zero ~max_threads:4 image in
  Alcotest.(check int) "capacity rounded to a line" 1024 (Nvm.Region.capacity r);
  Alcotest.(check string) "media is the image, then zeros" padded (Nvm.Region.media_image r);
  Alcotest.(check string) "work is the image, then zeros" padded
    (Nvm.Region.read_string r ~off:0 ~len:1024);
  Nvm.Region.write_string r ~off:990 (String.make 30 'z');
  Nvm.Region.set_i64 r ~off:0 (-1);
  Nvm.Region.crash r;
  Alcotest.(check string) "crash restores the image" padded
    (Nvm.Region.read_string r ~off:0 ~len:1024);
  Alcotest.(check string) "media untouched" padded (Nvm.Region.media_image r);
  Alcotest.(check string) "caller's image untouched" (Bytes.to_string saved) image

let test_unflushed_lost_on_crash () =
  let r = make_region () in
  Nvm.Region.write_string r ~off:0 "will vanish";
  Nvm.Region.crash r;
  Alcotest.(check string) "zeroed after crash" (String.make 11 '\000')
    (Nvm.Region.read_string r ~off:0 ~len:11)

let test_flushed_unfenced_lost_by_default () =
  let r = make_region () in
  Nvm.Region.write_string r ~off:0 "no fence";
  Nvm.Region.writeback r ~tid:0 ~off:0 ~len:8;
  Nvm.Region.crash r;
  Alcotest.(check string) "lost without fence" (String.make 8 '\000')
    (Nvm.Region.read_string r ~off:0 ~len:8)

let test_persisted_survives_crash () =
  let r = make_region () in
  Nvm.Region.write_string r ~off:64 "durable!";
  Nvm.Region.persist r ~tid:0 ~off:64 ~len:8;
  Nvm.Region.write_string r ~off:256 "ephemeral";
  Nvm.Region.crash r;
  Alcotest.(check string) "fenced line survives" "durable!" (Nvm.Region.read_string r ~off:64 ~len:8);
  Alcotest.(check string) "unfenced line lost" (String.make 9 '\000')
    (Nvm.Region.read_string r ~off:256 ~len:9)

let test_fence_is_per_thread () =
  let r = make_region () in
  Nvm.Region.write_string r ~off:0 "thread0!";
  Nvm.Region.writeback r ~tid:0 ~off:0 ~len:8;
  (* thread 1 fences; thread 0's queue must remain pending *)
  Nvm.Region.sfence r ~tid:1;
  Nvm.Region.crash r;
  Alcotest.(check string) "other thread's fence does not commit" (String.make 8 '\000')
    (Nvm.Region.read_string r ~off:0 ~len:8)

let test_line_granular_persistence () =
  let r = make_region () in
  (* two values on the same 64 B line: persisting one persists both *)
  Nvm.Region.set_i64 r ~off:0 11;
  Nvm.Region.set_i64 r ~off:8 22;
  Nvm.Region.persist r ~tid:0 ~off:0 ~len:8;
  Nvm.Region.crash r;
  Alcotest.(check int) "same line rides along" 22 (Nvm.Region.get_i64 r ~off:8)

let test_crash_resets_queues () =
  let r = make_region () in
  Nvm.Region.write_string r ~off:0 "aaaa";
  Nvm.Region.writeback r ~tid:0 ~off:0 ~len:4;
  Nvm.Region.crash r;
  (* queue cleared: a fence now must not commit the pre-crash line *)
  Nvm.Region.write_string r ~off:128 "bbbb";
  Nvm.Region.sfence r ~tid:0;
  Nvm.Region.crash r;
  Alcotest.(check string) "pre-crash queue dropped" (String.make 4 '\000')
    (Nvm.Region.read_string r ~off:0 ~len:4)

let test_transient_access_not_persisted () =
  let r = make_region () in
  Nvm.Region.transient_set_i64 r ~off:0 999;
  Alcotest.(check int) "visible in work" 999 (Nvm.Region.transient_get_i64 r ~off:0);
  (* even a full-line persist elsewhere must not commit it implicitly *)
  Nvm.Region.crash ~evict_dirty:1.0 r;
  Alcotest.(check int) "not dirty, so not evicted" 0 (Nvm.Region.transient_get_i64 r ~off:0)

let test_stats_counting () =
  let r = make_region () in
  Nvm.Region.write_string r ~off:0 "x";
  Nvm.Region.writeback r ~tid:0 ~off:0 ~len:1;
  Nvm.Region.writeback r ~tid:0 ~off:128 ~len:70 (* spans 2 lines *);
  Nvm.Region.sfence r ~tid:0;
  let s = Nvm.Region.stats r in
  Alcotest.(check int) "writebacks" 3 s.Nvm.Region.writebacks;
  Alcotest.(check int) "fences" 1 s.Nvm.Region.fences;
  Alcotest.(check int) "lines persisted" 3 s.Nvm.Region.lines_persisted

let test_queue_overflow_drains () =
  (* pushing more lines than the queue capacity must not lose data *)
  let r = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:2 ~capacity:(1 lsl 20) () in
  for i = 0 to 5000 do
    Nvm.Region.set_i64 r ~off:(i * 64) i;
    Nvm.Region.writeback r ~tid:0 ~off:(i * 64) ~len:8
  done;
  Nvm.Region.sfence r ~tid:0;
  Nvm.Region.crash r;
  let ok = ref true in
  for i = 0 to 5000 do
    if Nvm.Region.get_i64 r ~off:(i * 64) <> i then ok := false
  done;
  Alcotest.(check bool) "all 5001 lines durable" true !ok

let qcheck_crash_keeps_persisted_prefix =
  QCheck.Test.make ~name:"every fenced write survives any crash" ~count:100
    QCheck.(pair small_int (list (pair (int_range 0 200) (int_range 0 255))))
    (fun (seed, writes) ->
      let r = make_region () in
      let rng = Util.Xoshiro.create seed in
      (* a slot's fenced value is only guaranteed if no later unfenced
         write dirtied the line again (eviction may persist the newer
         value, as on real hardware) *)
      let fenced = Hashtbl.create 16 in
      List.iter
        (fun (slot, v) ->
          let off = slot * 64 in
          Nvm.Region.set_u8 r ~off v;
          if Util.Xoshiro.bool rng then begin
            Nvm.Region.persist r ~tid:0 ~off ~len:1;
            Hashtbl.replace fenced slot v
          end
          else Hashtbl.remove fenced slot)
        writes;
      Nvm.Region.crash ~persist_unfenced:0.5 ~evict_dirty:0.3 ~rng r;
      Hashtbl.fold (fun slot v acc -> acc && Nvm.Region.get_u8 r ~off:(slot * 64) = v) fenced true)

(* ---- media: committed lines over the base image ---- *)

(* The two-view reference the region must agree with: full copies of
   the store view and the media, and per-thread queues of the line
   ranges written back but not yet fenced. *)
type model = { m_work : Bytes.t; m_media : Bytes.t; m_queued : (int * int) list array }

let model_of image capacity =
  let b = Bytes.make capacity '\000' in
  Bytes.blit_string image 0 b 0 (String.length image);
  { m_work = Bytes.copy b; m_media = b; m_queued = Array.make 4 [] }

(* Random stores, write-backs, fences, crashes and media snapshots on
   [r] and the model side by side; the store view is compared after
   every step and the media at every snapshot and at the end. *)
let run_differential ~seed ~steps r m =
  let rng = Util.Xoshiro.create seed in
  let cap = Nvm.Region.capacity r in
  let media_agrees what =
    Alcotest.(check string) what (Bytes.to_string m.m_media) (Nvm.Region.media_image r)
  in
  let range () =
    let off = Util.Xoshiro.int rng cap in
    (off, Util.Xoshiro.int rng (min 200 (cap - off) + 1))
  in
  for step = 1 to steps do
    (match Util.Xoshiro.int rng 6 with
    | 0 ->
        let off, len = range () in
        let src = Bytes.init len (fun _ -> Char.chr (Util.Xoshiro.int rng 256)) in
        Nvm.Region.write r ~off ~src ~src_off:0 ~len;
        Bytes.blit src 0 m.m_work off len
    | 1 ->
        let off = Util.Xoshiro.int rng (cap - 7) and v = Util.Xoshiro.int rng 1_000_000 - 500_000 in
        Nvm.Region.set_i64 r ~off v;
        Bytes.set_int64_le m.m_work off (Int64.of_int v)
    | 2 ->
        let tid = Util.Xoshiro.int rng 4 and off, len = range () in
        Nvm.Region.writeback r ~tid ~off ~len;
        if len > 0 then m.m_queued.(tid) <- (off / 64, (off + len - 1) / 64) :: m.m_queued.(tid)
    | 3 ->
        let tid = Util.Xoshiro.int rng 4 in
        Nvm.Region.sfence r ~tid;
        List.iter
          (fun (first, last) ->
            let off = first * 64 in
            Bytes.blit m.m_work off m.m_media off ((last - first + 1) * 64))
          (List.rev m.m_queued.(tid));
        m.m_queued.(tid) <- []
    | 4 ->
        Nvm.Region.crash r;
        Bytes.blit m.m_media 0 m.m_work 0 cap;
        Array.fill m.m_queued 0 4 []
    | _ -> media_agrees (Printf.sprintf "media at step %d" step));
    Alcotest.(check string)
      (Printf.sprintf "store view at step %d" step)
      (Bytes.to_string m.m_work)
      (Nvm.Region.read_string r ~off:0 ~len:cap)
  done;
  media_agrees "media at the end"

let test_differential_create () =
  for seed = 1 to 20 do
    let r = make_region ~capacity:4096 () in
    run_differential ~seed ~steps:300 r (model_of "" 4096)
  done

let test_differential_of_image () =
  for seed = 1 to 20 do
    let image = random_image (Util.Xoshiro.create (1000 + seed)) 3001 in
    let r = Nvm.Region.of_image ~latency:Nvm.Latency.zero ~max_threads:4 image in
    run_differential ~seed ~steps:300 r (model_of image (Nvm.Region.capacity r))
  done

(* Three lines over an image: [queued] written back on two threads but
   never fenced, [dirty] stored only, [fenced] persisted; every other
   line is untouched.  Returns the region and the image. *)
let injection_setup () =
  let image = random_image (Util.Xoshiro.create 11) 1000 in
  let r = Nvm.Region.of_image ~latency:Nvm.Latency.zero ~max_threads:4 image in
  Nvm.Region.write_string r ~off:64 (String.make 64 'q');
  Nvm.Region.write_string r ~off:200 (String.make 10 'Q');
  Nvm.Region.writeback r ~tid:0 ~off:64 ~len:64;
  Nvm.Region.writeback r ~tid:1 ~off:200 ~len:10;
  Nvm.Region.write_string r ~off:512 (String.make 8 'd');
  Nvm.Region.write_string r ~off:900 (String.make 8 'f');
  Nvm.Region.persist r ~tid:2 ~off:900 ~len:8;
  (r, image)

(* [image] padded to the region, with [patches] (offset, string) applied *)
let expected_image r image patches =
  let b = Bytes.make (Nvm.Region.capacity r) '\000' in
  Bytes.blit_string image 0 b 0 (String.length image);
  List.iter (fun (off, s) -> Bytes.blit_string s 0 b off (String.length s)) patches;
  Bytes.to_string b

let check_durable r want =
  Alcotest.(check string) "store view after crash" want
    (Nvm.Region.read_string r ~off:0 ~len:(Nvm.Region.capacity r));
  Alcotest.(check string) "media image" want (Nvm.Region.media_image r)

(* with persist_unfenced = 1.0, every flushed-but-unfenced line survives;
   a line stored but never written back does not *)
let test_persist_unfenced_injection () =
  let r, image = injection_setup () in
  Nvm.Region.crash ~persist_unfenced:1.0 r;
  check_durable r
    (expected_image r image
       [ (64, String.make 64 'q'); (200, String.make 10 'Q'); (900, String.make 8 'f') ])

(* with evict_dirty = 1.0, every dirty line survives, flushed or not *)
let test_evict_dirty_injection () =
  let r, image = injection_setup () in
  Nvm.Region.crash ~evict_dirty:1.0 r;
  check_durable r
    (expected_image r image
       [
         (64, String.make 64 'q');
         (200, String.make 10 'Q');
         (512, String.make 8 'd');
         (900, String.make 8 'f');
       ])

let test_no_commit_media_zero () =
  let r = make_region ~capacity:4096 () in
  Nvm.Region.write_string r ~off:0 (String.make 4096 'x');
  Nvm.Region.writeback r ~tid:0 ~off:0 ~len:4096;
  let zeros = String.make 4096 '\000' in
  Alcotest.(check string) "media before the crash" zeros (Nvm.Region.media_image r);
  Nvm.Region.crash r;
  Alcotest.(check string) "media after the crash" zeros (Nvm.Region.media_image r);
  Alcotest.(check string) "store view after the crash" zeros (Nvm.Region.read_string r ~off:0 ~len:4096)

(* Every line of the region committed, by fence and by both injections,
   across crashes: the string the region was built from stays as it was. *)
let test_image_never_written () =
  let image = random_image (Util.Xoshiro.create 5) 2001 in
  let saved = Bytes.of_string image in
  let r = Nvm.Region.of_image ~latency:Nvm.Latency.zero ~max_threads:4 image in
  let cap = Nvm.Region.capacity r in
  Nvm.Region.write_string r ~off:0 (String.make cap 'a');
  Nvm.Region.persist r ~tid:0 ~off:0 ~len:(cap / 2);
  Nvm.Region.writeback r ~tid:1 ~off:(cap / 2) ~len:(cap / 4);
  Nvm.Region.crash ~persist_unfenced:1.0 ~evict_dirty:1.0 r;
  Nvm.Region.write_string r ~off:0 (String.make cap 'b');
  Nvm.Region.persist r ~tid:0 ~off:0 ~len:cap;
  Nvm.Region.crash r;
  Alcotest.(check string) "every line committed" (String.make cap 'b') (Nvm.Region.media_image r);
  Alcotest.(check string) "caller's image unchanged" (Bytes.to_string saved) image

let () =
  Alcotest.run "nvm"
    [
      ( "data",
        [
          Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "scalar accessors" `Quick test_scalar_accessors;
          Alcotest.test_case "bounds checked" `Quick test_out_of_bounds_rejected;
          Alcotest.test_case "of_image views" `Quick test_of_image_views;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "unflushed lost" `Quick test_unflushed_lost_on_crash;
          Alcotest.test_case "flushed-unfenced lost" `Quick test_flushed_unfenced_lost_by_default;
          Alcotest.test_case "persisted survives" `Quick test_persisted_survives_crash;
          Alcotest.test_case "fence is per-thread" `Quick test_fence_is_per_thread;
          Alcotest.test_case "line granularity" `Quick test_line_granular_persistence;
          Alcotest.test_case "crash resets queues" `Quick test_crash_resets_queues;
          Alcotest.test_case "queue overflow drains" `Quick test_queue_overflow_drains;
          QCheck_alcotest.to_alcotest qcheck_crash_keeps_persisted_prefix;
        ] );
      ( "injection",
        [
          Alcotest.test_case "persist unfenced" `Quick test_persist_unfenced_injection;
          Alcotest.test_case "evict dirty" `Quick test_evict_dirty_injection;
          Alcotest.test_case "transient bypass" `Quick test_transient_access_not_persisted;
        ] );
      ("stats", [ Alcotest.test_case "counting" `Quick test_stats_counting ]);
      ( "media",
        [
          Alcotest.test_case "create = two-view model" `Quick test_differential_create;
          Alcotest.test_case "of_image = two-view model" `Quick test_differential_of_image;
          Alcotest.test_case "no commits: media all zero" `Quick test_no_commit_media_zero;
          Alcotest.test_case "caller's image never written" `Quick test_image_never_written;
        ] );
    ]
