(* Concurrency property tests for Persist_buffer's one consumer
   protocol, publish/retire: the owner domain pushes and flushes its own
   ring when full while a helper domain concurrently publishes, fences
   and retires, with the persistency checker in Enforce mode.  Every
   queued record must be written back and fenced before its epoch
   retires — the buffered-durability contract — and the two
   publication logs together must cover every record.  Plus
   deterministic coverage of the snapshot bound of [publish], [is_full]
   and the full-ring push. *)

module PB = Montage.Persist_buffer
module R = Nvm.Region
module P = Nvm.Pcheck

(* Publish [pb], write every emitted record back on [tid], fence, and
   retire what was published; returns the emitted records, oldest
   first. *)
let flush r ~tid ~fence pb =
  let acc = ref [] in
  let stop =
    PB.publish pb (fun off len ->
        R.writeback r ~tid ~off ~len;
        acc := (off, len) :: !acc)
  in
  fence r ~tid;
  PB.retire_upto pb ~upto:stop;
  List.rev !acc

(* One two-domain session: tid 0 produces [n] records at unique,
   line-disjoint offsets (registering each as an epoch-5 obligation
   with the checker) and flushes its own ring whenever it is full, as
   [Epoch_sys.record_persist] does; tid 1 concurrently publishes,
   fences and retires, as a helping epoch advance does.  At the end the
   owner flushes the remainder and the epoch clock is advanced past the
   durability deadline — in Enforce mode the checker raises if any
   record missed media.  Returns the two publication logs. *)
let run_session ~n =
  let r = R.create ~latency:Nvm.Latency.zero ~max_threads:4 ~capacity:(1 lsl 16) () in
  let c = R.enable_pcheck ~mode:P.Enforce r in
  let pb = PB.create ~capacity:8 in
  let stop = Atomic.make false in
  let helper =
    Domain.spawn (fun () ->
        let acc = ref [] in
        while not (Atomic.get stop) do
          match flush r ~tid:1 ~fence:R.sfence pb with
          | [] -> Domain.cpu_relax ()
          | recs -> acc := List.rev_append recs !acc
        done;
        List.rev !acc)
  in
  let own = ref [] in
  for i = 0 to n - 1 do
    (* one line per record: unique offsets keep records line-disjoint,
       and a record is stored before it is pushed, so a helper's
       write-back can never race a store *)
    let off = 64 * i and len = 1 + (i mod 56) in
    R.write_string r ~off (String.make len 'x');
    P.on_buffer_push c ~tid:0 ~epoch:5 ~off ~len;
    if PB.is_full pb then own := List.rev_append (flush r ~tid:0 ~fence:R.sfence_async pb) !own;
    PB.push pb ~off ~len
  done;
  Atomic.set stop true;
  let helped = Domain.join helper in
  own := List.rev_append (flush r ~tid:0 ~fence:R.sfence pb) !own;
  Alcotest.(check bool) "ring empty" true (PB.is_empty pb);
  (* every record's epoch-5 obligation falls due at the tick to 7:
     Enforce raises Epoch_retired_unflushed here if one missed media *)
  P.on_epoch_advance c ~epoch:6;
  P.on_epoch_advance c ~epoch:7;
  Alcotest.(check int) "no violations" 0 (List.length (P.violations c));
  (List.rev !own, helped)

(* The two logs cover the pushed records: the head passes a record only
   through a retire that follows a fenced publication covering it.  A
   record may appear in both (helping re-publishes), and a helper that
   read a slot the owner had already reused publishes a later record
   early — harmless, since it was stored before its push. *)
let check_session seed =
  let n = 200 + (abs seed mod 300) in
  let own, helped = run_session ~n in
  let expected = List.init n (fun i -> (64 * i, 1 + (i mod 56))) in
  List.sort_uniq compare (own @ helped) = expected

let prop_two_domain_sessions =
  QCheck.Test.make ~count:12
    ~name:"two-domain push/publish/retire persists every record before its epoch retires"
    QCheck.small_int check_session

let test_two_domain_deterministic () =
  Alcotest.(check bool) "every record published" true (check_session 400)

(* [publish] is bounded by the tail observed at entry: records the
   callback pushes mid-publication are left for the next one. *)
let test_snapshot_publish_excludes_pushes_during_publish () =
  let pb = PB.create ~capacity:64 in
  for i = 0 to 9 do
    PB.push pb ~off:(64 * i) ~len:8
  done;
  let published = ref 0 in
  let stop =
    PB.publish pb (fun _ _ ->
        incr published;
        (* a fast producer appending concurrently must not extend this
           publication *)
        PB.push pb ~off:(64 * (100 + !published)) ~len:8)
  in
  Alcotest.(check int) "exactly the snapshot" 10 !published;
  PB.retire_upto pb ~upto:stop;
  let rest = ref 0 in
  PB.retire_upto pb ~upto:(PB.publish pb (fun _ _ -> incr rest));
  Alcotest.(check int) "mid-publication pushes kept for the next one" 10 !rest;
  Alcotest.(check bool) "buffer empty" true (PB.is_empty pb)

let fill pb n =
  for i = 0 to n - 1 do
    PB.push pb ~off:(64 * i) ~len:8
  done

let test_is_full () =
  let pb = PB.create ~capacity:4 in
  Alcotest.(check bool) "fresh buffer not full" false (PB.is_full pb);
  fill pb 4;
  Alcotest.(check bool) "at capacity" true (PB.is_full pb);
  let stop = PB.publish pb (fun _ _ -> ()) in
  Alcotest.(check bool) "publication alone frees nothing" true (PB.is_full pb);
  PB.retire_upto pb ~upto:(stop - 3);
  Alcotest.(check bool) "retire frees a slot" false (PB.is_full pb)

(* A push onto a full ring would overwrite a record nobody has made
   durable: it raises and leaves the ring as it was. *)
let test_full_push_raises () =
  let pb = PB.create ~capacity:4 in
  fill pb 4;
  (match PB.push pb ~off:4096 ~len:8 with
  | () -> Alcotest.fail "push onto a full ring was accepted"
  | exception Invalid_argument _ -> ());
  let recs = ref [] in
  ignore (PB.publish pb (fun off _ -> recs := off :: !recs));
  Alcotest.(check (list int)) "the four records intact" [ 0; 64; 128; 192 ] (List.rev !recs)

let () =
  Alcotest.run "persist_buffer_concurrency"
    [
      ( "two-domain",
        [
          Alcotest.test_case "deterministic session" `Quick test_two_domain_deterministic;
          QCheck_alcotest.to_alcotest prop_two_domain_sessions;
        ] );
      ( "drain-semantics",
        [
          Alcotest.test_case "snapshot drain is bounded" `Quick
            test_snapshot_publish_excludes_pushes_during_publish;
          Alcotest.test_case "is_full" `Quick test_is_full;
          Alcotest.test_case "full-ring push raises" `Quick test_full_push_raises;
        ] );
    ]
