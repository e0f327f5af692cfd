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
   the store view and the media, the lines stored since their last
   fence (what [evict_dirty] may persist), and per-thread queues of the
   line ranges written back but not yet fenced. *)
type model = {
  m_work : Bytes.t;
  m_media : Bytes.t;
  m_dirty : bool array;
  m_queued : (int * int) list array;
}

let model_of image capacity =
  let b = Bytes.make capacity '\000' in
  Bytes.blit_string image 0 b 0 (String.length image);
  { m_work = Bytes.copy b; m_media = b; m_dirty = Array.make (capacity / 64) false; m_queued = Array.make 4 [] }

type op =
  | Write of int * string
  | Set of int * int * int (* width 1, 4 or 8; offset; value *)
  | Cas of int * bool * int (* offset; expect the current value; desired *)
  | Transient_set of int * int
  | Read of int * int
  | Get of int * int (* width; offset *)
  | Transient_get of int
  | Writeback of int * int * int (* tid; offset; length *)
  | Writeback_lines of int * int * int (* tid; first line; lines *)
  | Fence of int
  | Crash of bool (* with every unfenced and dirty line persisting *)

(* A random script over a region of [cap] bytes.  Ranges start anywhere
   and run up to four lines, so they straddle loaded and unloaded
   lines; scalars may straddle two lines; crashes come singly or in
   pairs with nothing touched between them. *)
let random_script rng ~cap ~steps =
  let int n = Util.Xoshiro.int rng n in
  let range () =
    let off = int cap in
    (off, int (min 200 (cap - off) + 1))
  in
  let width () = [| 1; 4; 8 |].(int 3) in
  let value w = if w = 8 then int 1_000_000 - 500_000 else int (1 lsl (8 * w)) in
  List.concat
    (List.init steps (fun _ ->
         match int 12 with
         | 0 ->
             let off, len = range () in
             [ Write (off, String.init len (fun _ -> Char.chr (int 256))) ]
         | 1 ->
             let w = width () in
             [ Set (w, int (cap - w + 1), value w) ]
         | 2 -> [ Cas (int (cap - 7), int 2 = 0, value 8) ]
         | 3 -> [ Transient_set (int (cap - 7), value 8) ]
         | 4 ->
             let off, len = range () in
             [ Read (off, len) ]
         | 5 ->
             let w = width () in
             [ Get (w, int (cap - w + 1)) ]
         | 6 -> [ Transient_get (int (cap - 7)) ]
         | 7 ->
             let off, len = range () in
             [ Writeback (int 4, off, len) ]
         | 8 ->
             let first = int (cap / 64) in
             [ Writeback_lines (int 4, first, int (min 4 ((cap / 64) - first) + 1)) ]
         | 9 -> [ Fence (int 4) ]
         | 10 -> [ Crash (int 2 = 0) ]
         | _ -> [ Crash (int 2 = 0); Crash (int 2 = 0) ]))

let model_store m off len =
  for line = off / 64 to (off + len - 1) / 64 do
    m.m_dirty.(line) <- true
  done

let model_commit m line = Bytes.blit m.m_work (line * 64) m.m_media (line * 64) 64

(* Apply [op] to the region and the model; reads are checked here. *)
let apply r m op =
  let get w off =
    match w with
    | 1 -> (Nvm.Region.get_u8 r ~off, Bytes.get_uint8 m.m_work off)
    | 4 -> (Nvm.Region.get_i32 r ~off, Int32.to_int (Bytes.get_int32_le m.m_work off) land 0xFFFFFFFF)
    | _ -> (Nvm.Region.get_i64 r ~off, Int64.to_int (Bytes.get_int64_le m.m_work off))
  in
  match op with
  | Write (off, s) ->
      Nvm.Region.write r ~off ~src:(Bytes.of_string s) ~src_off:0 ~len:(String.length s);
      Bytes.blit_string s 0 m.m_work off (String.length s);
      if s <> "" then model_store m off (String.length s)
  | Set (w, off, v) ->
      (match w with
      | 1 ->
          Nvm.Region.set_u8 r ~off v;
          Bytes.set_uint8 m.m_work off v
      | 4 ->
          Nvm.Region.set_i32 r ~off v;
          Bytes.set_int32_le m.m_work off (Int32.of_int v)
      | _ ->
          Nvm.Region.set_i64 r ~off v;
          Bytes.set_int64_le m.m_work off (Int64.of_int v));
      model_store m off w
  | Cas (off, current, desired) ->
      let cur = Int64.to_int (Bytes.get_int64_le m.m_work off) in
      let expected = if current then cur else cur + 1 in
      Alcotest.(check bool) "cas outcome" current (Nvm.Region.cas_i64 r ~off ~expected ~desired);
      if current then begin
        Bytes.set_int64_le m.m_work off (Int64.of_int desired);
        model_store m off 8
      end
  | Transient_set (off, v) ->
      Nvm.Region.transient_set_i64 r ~off v;
      Bytes.set_int64_le m.m_work off (Int64.of_int v)
  | Read (off, len) ->
      let dst = Bytes.make (len + 2) '?' in
      Nvm.Region.read r ~off ~dst ~dst_off:1 ~len;
      Alcotest.(check string) "read" (Bytes.sub_string m.m_work off len) (Bytes.sub_string dst 1 len);
      Alcotest.(check string) "read_string" (Bytes.sub_string m.m_work off len)
        (Nvm.Region.read_string r ~off ~len)
  | Get (w, off) ->
      let got, want = get w off in
      Alcotest.(check int) (Printf.sprintf "get%d at %d" (8 * w) off) want got
  | Transient_get off ->
      Alcotest.(check int) "transient get"
        (Int64.to_int (Bytes.get_int64_le m.m_work off))
        (Nvm.Region.transient_get_i64 r ~off)
  | Writeback (tid, off, len) ->
      Nvm.Region.writeback r ~tid ~off ~len;
      if len > 0 then m.m_queued.(tid) <- (off / 64, (off + len - 1) / 64) :: m.m_queued.(tid)
  | Writeback_lines (tid, first, lines) ->
      Nvm.Region.writeback_lines r ~tid ~first ~lines;
      if lines > 0 then m.m_queued.(tid) <- (first, first + lines - 1) :: m.m_queued.(tid)
  | Fence tid ->
      Nvm.Region.sfence r ~tid;
      List.iter
        (fun (first, last) ->
          for line = first to last do
            model_commit m line;
            m.m_dirty.(line) <- false
          done)
        (List.rev m.m_queued.(tid));
      m.m_queued.(tid) <- []
  | Crash injected ->
      if injected then begin
        Nvm.Region.crash ~persist_unfenced:1.0 ~evict_dirty:1.0 r;
        Array.iter (List.iter (fun (first, last) -> for line = first to last do model_commit m line done)) m.m_queued;
        Array.iteri (fun line d -> if d then model_commit m line) m.m_dirty
      end
      else Nvm.Region.crash r;
      Bytes.blit m.m_media 0 m.m_work 0 (Bytes.length m.m_work);
      Array.fill m.m_dirty 0 (Array.length m.m_dirty) false;
      Array.fill m.m_queued 0 4 []

(* Random scripts on a region and the model side by side.  Reading the
   whole store view back loads every line, so each prefix of a script
   runs on a region of its own: after step k, the media and a full
   read-back are compared on a region that steps 1..k alone have
   touched — write-backs, fences and crashes of never-loaded lines
   included. *)
let run_differential ~seed ~steps make =
  let script = Array.of_list (random_script (Util.Xoshiro.create seed) ~cap:(Nvm.Region.capacity (fst (make ()))) ~steps) in
  for k = 1 to Array.length script do
    let r, m = make () in
    for i = 0 to k - 1 do
      apply r m script.(i)
    done;
    let cap = Nvm.Region.capacity r in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: media after step %d" seed k)
      (Bytes.to_string m.m_media) (Nvm.Region.media_image r);
    Alcotest.(check string)
      (Printf.sprintf "seed %d: store view after step %d" seed k)
      (Bytes.to_string m.m_work)
      (Nvm.Region.read_string r ~off:0 ~len:cap)
  done

let test_differential_create () =
  for seed = 1 to 20 do
    run_differential ~seed ~steps:60 (fun () -> (make_region ~capacity:4096 (), model_of "" 4096))
  done

(* Odd image lengths: a short last line, zero-padded past the image. *)
let test_differential_of_image () =
  let lengths = [| 3001; 1; 63; 65; 1000; 130 |] in
  for seed = 1 to 30 do
    let image = random_image (Util.Xoshiro.create (1000 + seed)) lengths.(seed mod Array.length lengths) in
    run_differential ~seed ~steps:60 (fun () ->
        let r = Nvm.Region.of_image ~latency:Nvm.Latency.zero ~max_threads:4 image in
        (r, model_of image (Nvm.Region.capacity r)))
  done

(* First touches racing on fresh [of_image] regions: in each round two
   domains load the same never-touched payload lines (17 lines, as a
   1 KiB payload spans) while the main domain stores 8-byte words into
   the first half of one of them.  The readers stay up across rounds,
   so all three touch the lines at once.  A load that overwrote a line
   the store had already claimed would lose a word.  In even rounds the
   first store lands before the readers start: a store that did not
   claim its line would leave the line's second half unloaded
   garbage. *)
let test_racing_first_touches () =
  let rounds = 100 and lines = 17 in
  let current = Atomic.make (0, None) and finished = Atomic.make 0 in
  let reader () =
    for round = 1 to rounds do
      let rec await () =
        match Atomic.get current with
        | k, Some r when k = round -> r
        | _ ->
            Domain.cpu_relax ();
            await ()
      in
      let r = await () in
      ignore (Nvm.Region.read_string r ~off:0 ~len:(lines * 64));
      Atomic.incr finished
    done
  in
  let readers = [ Domain.spawn reader; Domain.spawn reader ] in
  for round = 1 to rounds do
    (* a fresh image per round: an unloaded line's garbage, recycled
       from an earlier round's region, must not pass for its content *)
    let image = random_image (Util.Xoshiro.create round) (lines * 64) in
    let r = Nvm.Region.of_image ~latency:Nvm.Latency.zero ~max_threads:4 image in
    let target = round mod lines in
    let word i = (round * 4) + i + 1 in
    let store i = Nvm.Region.set_i64 r ~off:((target * 64) + (i * 8)) (word i) in
    let early = if round mod 2 = 0 then 1 else 0 in
    if early = 1 then store 0;
    Atomic.set current (round, Some r);
    for i = early to 3 do
      store i
    done;
    while Atomic.get finished < 2 * round do
      Domain.cpu_relax ()
    done;
    let want = Bytes.of_string image in
    for i = 0 to 3 do
      Bytes.set_int64_le want ((target * 64) + (i * 8)) (Int64.of_int (word i))
    done;
    Alcotest.(check string)
      (Printf.sprintf "round %d: every store kept" round)
      (Bytes.to_string want)
      (Nvm.Region.read_string r ~off:0 ~len:(lines * 64));
    Alcotest.(check string) "media untouched" image (Nvm.Region.media_image r)
  done;
  List.iter Domain.join readers

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
          Alcotest.test_case "racing first touches keep every store" `Quick test_racing_first_touches;
        ] );
    ]
