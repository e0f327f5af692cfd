(* The deterministic scheduler and durable-linearizability checker.

   Three layers of coverage:
   - the Dsched engine itself on plain-OCaml scenarios: schedule
     counting and determinism, lost-update detection, deadlock
     detection, trace round-trips, PCT seed replay, shrinking;
   - the Dlin prefix-cut checker on hand-built histories;
   - the real thing: mqueue and nb_queue driven as fibers through the
     Montage runtime, bounded-exhaustively explored with a crash
     branched at every scheduling point, every recovered state checked
     against the sequential queue model — and a deliberately planted
     lost-publication bug in Persist_buffer caught, shrunk, and
     replayed from both the trace and the printed PCT seed. *)

module D = Dsched
module R = Nvm.Region
module E = Montage.Epoch_sys
module Cfg = Montage.Config

(* ---- engine: counter scenarios ---- *)

type counter = { mutable v : int }

(* classic lost update: read, scheduling point, write back *)
let racy_incr st =
  let x = st.v in
  Util.Sched.yield "incr";
  st.v <- x + 1

let racy_scenario n =
  {
    D.init = (fun () -> { v = 0 });
    threads = Array.make n racy_incr;
    check_crash = None;
    check_done = Some (fun st -> st.v = n);
  }

let atomic_scenario n =
  {
    D.init = (fun () -> { v = 0 });
    threads = Array.make n (fun st -> st.v <- st.v + 1);
    check_crash = None;
    check_done = Some (fun st -> st.v = n);
  }

let exhaustive ?(preemptions = 2) ?(max_attempts = 100_000) ?(crashes = true) () =
  D.Exhaustive { preemptions; max_attempts; crashes }

let test_atomic_counter_passes () =
  let r = D.explore (exhaustive ()) (atomic_scenario 3) in
  Alcotest.(check bool) "no failure" true (r.D.failure = None);
  Alcotest.(check bool) "explored more than one schedule" true (r.D.schedules > 1);
  Alcotest.(check bool) "not truncated" false r.D.truncated

let test_exhaustive_finds_lost_update () =
  match (D.explore (exhaustive ()) (racy_scenario 2)).D.failure with
  | None -> Alcotest.fail "lost update not found"
  | Some f ->
      Alcotest.(check bool) "reason mentions the check" true
        (String.length f.D.reason > 0)

let test_zero_preemptions_misses_lost_update () =
  (* without an involuntary switch each increment runs atomically *)
  let r = D.explore (exhaustive ~preemptions:0 ()) (racy_scenario 2) in
  Alcotest.(check bool) "no failure at bound 0" true (r.D.failure = None)

(* An exploration sizes the minor heap for itself and gives the
   caller's size back, also when the scenario raises out of it. *)
let test_explore_restores_minor_heap () =
  let before = (Gc.get ()).Gc.minor_heap_size in
  let seen = ref 0 in
  let init () =
    seen := (Gc.get ()).Gc.minor_heap_size;
    { v = 0 }
  in
  let probe = { (atomic_scenario 2) with D.init } in
  ignore (D.explore (exhaustive ()) probe);
  Alcotest.(check bool) "explored with a larger minor heap" true (!seen > before);
  Alcotest.(check int) "restored on return" before (Gc.get ()).Gc.minor_heap_size;
  let raising = { probe with D.init = (fun () -> raise Exit) } in
  (match D.explore (exhaustive ()) raising with
  | _ -> Alcotest.fail "init's raise was lost"
  | exception Exit -> ());
  Alcotest.(check int) "restored on raise" before (Gc.get ()).Gc.minor_heap_size

let test_exploration_deterministic () =
  let run () = D.explore (exhaustive ()) (racy_scenario 2) in
  let a = run () and b = run () in
  Alcotest.(check bool) "same schedules" true (a.D.schedules = b.D.schedules);
  (match (a.D.failure, b.D.failure) with
  | Some fa, Some fb ->
      Alcotest.(check string) "same shrunk trace" (D.trace_to_string fa.D.trace)
        (D.trace_to_string fb.D.trace)
  | _ -> Alcotest.fail "both runs should fail")

let test_shrunk_trace_replays () =
  match (D.explore (exhaustive ()) (racy_scenario 2)).D.failure with
  | None -> Alcotest.fail "no failure"
  | Some f ->
      Alcotest.(check bool) "shrunk no longer than raw" true
        (List.length f.D.trace <= List.length f.D.raw_trace);
      let replayed = D.explore (D.Replay f.D.trace) (racy_scenario 2) in
      Alcotest.(check bool) "replay reproduces the failure" true (replayed.D.failure <> None)

let test_deadlock_detected () =
  (* opposite-order awaits on two flags: classic wait cycle *)
  let scenario =
    {
      D.init = (fun () -> (ref false, ref false));
      threads =
        [|
          (fun (a, b) ->
            Util.Sched.await "want-b" (fun () -> !b);
            a := true);
          (fun (a, b) ->
            Util.Sched.await "want-a" (fun () -> !a);
            b := true);
        |];
      check_crash = None;
      check_done = None;
    }
  in
  match (D.explore (exhaustive ()) scenario).D.failure with
  | Some f ->
      Alcotest.(check bool) "reported as deadlock" true
        (String.length f.D.reason >= 8 && String.sub f.D.reason 0 8 = "deadlock")
  | None -> Alcotest.fail "deadlock not reported"

let test_fiber_exception_is_failure () =
  let scenario =
    {
      D.init = (fun () -> ());
      threads = [| (fun () -> Util.Sched.yield "pre"; failwith "boom") |];
      check_crash = None;
      check_done = None;
    }
  in
  match (D.explore (exhaustive ()) scenario).D.failure with
  | Some f ->
      Alcotest.(check bool) "exception surfaced" true
        (String.length f.D.reason > 0)
  | None -> Alcotest.fail "exception not reported"

let test_pct_finds_and_seed_replays () =
  let mode = D.Pct { runs = 200; seed = 42; change_points = 3 } in
  match (D.explore mode (racy_scenario 2)).D.failure with
  | None -> Alcotest.fail "PCT missed the lost update in 200 runs"
  | Some f -> (
      match f.D.seed with
      | None -> Alcotest.fail "PCT failure carries no seed"
      | Some s -> (
          let again = D.explore (D.Pct { runs = 1; seed = s; change_points = 3 }) (racy_scenario 2) in
          match again.D.failure with
          | None -> Alcotest.fail "printed seed did not reproduce"
          | Some f2 ->
              Alcotest.(check string) "identical raw schedule from the seed"
                (D.trace_to_string f.D.raw_trace)
                (D.trace_to_string f2.D.raw_trace)))

let test_trace_roundtrip () =
  let t = [ D.Run 0; D.Run 0; D.Run 1; D.Run 0; D.Crash ] in
  Alcotest.(check string) "render" "0.0.1.0.c" (D.trace_to_string t);
  Alcotest.(check bool) "parse inverts render" true (D.trace_of_string (D.trace_to_string t) = t);
  Alcotest.(check bool) "empty" true (D.trace_of_string "" = []);
  Alcotest.check_raises "garbage rejected" (Invalid_argument "Dsched.trace_of_string: bad token x")
    (fun () -> ignore (D.trace_of_string "0.x"))

let test_mode_from_env () =
  let with_env pairs f =
    (* restore prior values so a real MONTAGE_SCHED CI leg isn't
       clobbered for the tests that run after this one *)
    let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) pairs in
    List.iter (fun (k, v) -> Unix.putenv k v) pairs;
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun (k, old) -> Unix.putenv k (Option.value old ~default:"")) saved)
      f
  in
  with_env [ ("MONTAGE_SCHED", "random"); ("MONTAGE_SCHED_RUNS", "7"); ("MONTAGE_SCHED_SEED", "9") ]
    (fun () ->
      match D.mode_from_env () with
      | Some (D.Pct { runs = 7; seed = 9; _ }) -> ()
      | _ -> Alcotest.fail "random env not parsed");
  with_env [ ("MONTAGE_SCHED", "exhaustive"); ("MONTAGE_SCHED_PREEMPTIONS", "1") ] (fun () ->
      match D.mode_from_env () with
      | Some (D.Exhaustive { preemptions = 1; _ }) -> ()
      | _ -> Alcotest.fail "exhaustive env not parsed");
  with_env [ ("MONTAGE_SCHED", "replay"); ("MONTAGE_SCHED_TRACE", "0.1.c") ] (fun () ->
      match D.mode_from_env () with
      | Some (D.Replay [ D.Run 0; D.Run 1; D.Crash ]) -> ()
      | _ -> Alcotest.fail "replay env not parsed");
  with_env [ ("MONTAGE_SCHED", "off") ] (fun () ->
      Alcotest.(check bool) "off is None" true (D.mode_from_env () = None));
  with_env [ ("MONTAGE_SCHED", "") ] (fun () ->
      Alcotest.(check bool) "empty is None" true (D.mode_from_env () = None))

(* ---- Dlin on hand-built histories ---- *)

type qop = Enq of string | Deq

let qspec =
  {
    Dlin.initial = [];
    apply =
      (fun st op ->
        match (op, st) with
        | Enq v, _ -> (None, st @ [ v ])
        | Deq, [] -> (None, [])
        | Deq, x :: rest -> (Some x, rest));
  }

let test_dlin_accepts_buffered_drop () =
  (* enq a durable, enq b buffered: recovering [a] alone is legal *)
  let obs =
    [| { Dlin.completed = [ (Enq "a", None, true); (Enq "b", None, false) ]; in_flight = None } |]
  in
  Alcotest.(check bool) "prefix [a] accepted" true
    (Dlin.durably_linearizable qspec obs ~accept:(fun m -> m = [ "a" ]));
  Alcotest.(check bool) "full history accepted too" true
    (Dlin.durably_linearizable qspec obs ~accept:(fun m -> m = [ "a"; "b" ]))

let test_dlin_rejects_durable_drop () =
  let obs =
    [| { Dlin.completed = [ (Enq "a", None, true); (Enq "b", None, true) ]; in_flight = None } |]
  in
  Alcotest.(check bool) "durable b cannot vanish" false
    (Dlin.durably_linearizable qspec obs ~accept:(fun m -> m = [ "a" ]))

let test_dlin_rejects_reorder_and_result_mismatch () =
  let obs =
    [| { Dlin.completed = [ (Enq "a", None, true); (Enq "b", None, true) ]; in_flight = None } |]
  in
  Alcotest.(check bool) "per-thread order preserved" false
    (Dlin.durably_linearizable qspec obs ~accept:(fun m -> m = [ "b"; "a" ]));
  let wrong =
    [| { Dlin.completed = [ (Enq "a", None, true); (Deq, Some "z", true) ]; in_flight = None } |]
  in
  Alcotest.(check bool) "observed result must match the model" false
    (Dlin.durably_linearizable qspec wrong ~accept:(fun _ -> true))

let test_dlin_in_flight_optional () =
  let obs i = [| { Dlin.completed = [ (Enq "a", None, true) ]; in_flight = i } |] in
  Alcotest.(check bool) "in-flight may land" true
    (Dlin.durably_linearizable qspec (obs (Some (Enq "b"))) ~accept:(fun m -> m = [ "a"; "b" ]));
  Alcotest.(check bool) "or not" true
    (Dlin.durably_linearizable qspec (obs (Some (Enq "b"))) ~accept:(fun m -> m = [ "a" ]));
  Alcotest.(check bool) "but only after the thread's prefix" false
    (Dlin.durably_linearizable qspec (obs (Some (Enq "b"))) ~accept:(fun m -> m = [ "b"; "a" ]))

let test_dlin_interleaves_threads () =
  let obs =
    [|
      { Dlin.completed = [ (Enq "a", None, true) ]; in_flight = None };
      { Dlin.completed = [ (Enq "b", None, true) ]; in_flight = None };
    |]
  in
  Alcotest.(check bool) "a then b" true
    (Dlin.durably_linearizable qspec obs ~accept:(fun m -> m = [ "a"; "b" ]));
  Alcotest.(check bool) "b then a" true
    (Dlin.durably_linearizable qspec obs ~accept:(fun m -> m = [ "b"; "a" ]))

let test_linearizable_complete_run () =
  let hist = [| [ (Enq "a", None); (Deq, Some "a") ]; [ (Enq "b", None) ] |] in
  Alcotest.(check bool) "valid" true (Dlin.linearizable qspec hist ~accept:(fun m -> m = [ "b" ]));
  let bad = [| [ (Deq, Some "a") ] |] in
  Alcotest.(check bool) "deq from empty cannot return a" false
    (Dlin.linearizable qspec bad ~accept:(fun _ -> true))

(* ---- Montage scenarios: queues as fibers through the runtime ---- *)

(* Both queue flavors behind one face so the scenario builder, the
   exhaustive test, and the planted-bug test are shared. *)
type 'q queue_impl = {
  create : E.t -> 'q;
  enqueue : 'q -> tid:int -> string -> unit;
  dequeue : 'q -> tid:int -> string option;
  recover : E.t -> E.pblk array -> 'q;
}

let mqueue_impl =
  {
    create = Pstructs.Mqueue.create;
    enqueue = Pstructs.Mqueue.enqueue;
    dequeue = Pstructs.Mqueue.dequeue;
    recover = Pstructs.Mqueue.recover;
  }

let nb_queue_impl =
  {
    create = Pstructs.Nb_queue.create;
    enqueue = Pstructs.Nb_queue.enqueue;
    dequeue = Pstructs.Nb_queue.dequeue;
    recover = Pstructs.Nb_queue.recover;
  }

(* Scenario config: manual epochs, no checker, no mirrors — the
   minimal deterministic runtime.  Recovery under the same knobs. *)
let sched_cfg =
  {
    Cfg.testing with
    max_threads = 2;
    pcheck = Cfg.Pcheck_off;
    mirror_max_bytes = 0;
    buffer_size = 16;
  }

type 'q qstate = {
  region : R.t;
  esys : E.t;
  q : 'q;
  hist : (qop * string option * int) list ref array; (* program order, reversed *)
  inflight : qop option array;
}

let drain impl q =
  let rec go acc = match impl.dequeue q ~tid:0 with Some v -> go (v :: acc) | None -> List.rev acc in
  go []

(* Each fiber runs its op script; after every op it records (op,
   result, clock after completion) and advances the epoch once, so the
   persistence frontier moves mid-schedule and crash branches cut
   through every buffering stage.  [helpers] appends extra fibers that
   only advance the epoch (twice each): they race the op threads'
   advances and each other through the helping protocol, so
   exploration preempts a writer mid-publication with two helpers live
   — the nbMontage racing-helper case. *)
let queue_scenario ?(cfg = sched_cfg) ?(helpers = 0) impl scripts =
  let n = Array.length scripts in
  let total = n + helpers in
  let op_threads =
    Array.mapi
      (fun tid script st ->
        List.iter
          (fun op ->
            st.inflight.(tid) <- Some op;
            let res =
              match op with
              | Enq v ->
                  impl.enqueue st.q ~tid v;
                  None
              | Deq -> impl.dequeue st.q ~tid
            in
            st.hist.(tid) := (op, res, E.current_epoch st.esys) :: !(st.hist.(tid));
            st.inflight.(tid) <- None;
            E.advance_epoch st.esys ~tid)
          script)
      scripts
  in
  let helper_threads =
    Array.init helpers (fun i st ->
        let tid = n + i in
        E.advance_epoch st.esys ~tid;
        E.advance_epoch st.esys ~tid)
  in
  {
    D.init =
      (fun () ->
        let region =
          R.create ~latency:Nvm.Latency.zero ~max_threads:(total + 2) ~capacity:(1 lsl 18) ()
        in
        let esys = E.create ~config:{ cfg with Cfg.max_threads = total } region in
        {
          region;
          esys;
          q = impl.create esys;
          hist = Array.init n (fun _ -> ref []);
          inflight = Array.make n None;
        });
    threads = Array.append op_threads helper_threads;
    check_crash =
      Some
        (fun st ->
          R.crash st.region;
          match E.recover ~config:{ cfg with Cfg.max_threads = total } st.region with
          | exception _ -> false
          | esys2, payloads ->
              let recovered = drain impl (impl.recover esys2 payloads) in
              (* the durable cutoff recovery applied: persisted clock - 2 *)
              let cutoff = E.current_epoch esys2 - 2 in
              let obs =
                Array.mapi
                  (fun i h ->
                    {
                      Dlin.completed =
                        List.rev_map (fun (op, res, e) -> (op, res, e <= cutoff)) !h;
                      in_flight = st.inflight.(i);
                    })
                  st.hist
              in
              Dlin.durably_linearizable qspec obs ~accept:(fun m -> m = recovered));
    check_done =
      Some
        (fun st ->
          let remaining = drain impl st.q in
          let hists = Array.map (fun h -> List.rev_map (fun (op, res, _) -> (op, res)) !h) st.hist in
          Dlin.linearizable qspec hists ~accept:(fun m -> m = remaining));
  }

(* the acceptance-criteria script: 2 threads x 3 ops *)
let scripts = [| [ Enq "a"; Enq "b"; Deq ]; [ Enq "c"; Deq; Deq ] |]

let check_queue_report name r =
  (match r.D.failure with
  | Some f -> Alcotest.fail (name ^ ": " ^ D.failure_to_string f)
  | None -> ());
  Printf.eprintf "%s: schedules=%d crash_branches=%d max_points=%d\n%!" name r.D.schedules r.D.crash_branches r.D.max_points;
  Alcotest.(check bool) (name ^ ": schedules explored") true (r.D.schedules > 0);
  Alcotest.(check bool) (name ^ ": crash injected at every point") true
    (r.D.crash_branches >= r.D.max_points);
  Alcotest.(check bool) (name ^ ": exhausted, not truncated") false r.D.truncated

let test_mqueue_exhaustive_with_crashes () =
  let r =
    D.explore (exhaustive ~preemptions:1 ~max_attempts:100_000 ()) (queue_scenario mqueue_impl scripts)
  in
  check_queue_report "mqueue" r

let test_nb_queue_exhaustive_with_crashes () =
  let r =
    D.explore
      (exhaustive ~preemptions:1 ~max_attempts:100_000 ())
      (queue_scenario nb_queue_impl scripts)
  in
  check_queue_report "nb_queue" r

(* The planted bug: [Persist_buffer.publish] skips its first record but
   still returns the stop index past it (so [retire_upto] throws it away
   unflushed) — one buffered payload never reaches media.
   Durable-linearizability checking over crash branches must catch it,
   the shrunk trace must replay, and under PCT the printed per-run seed
   must reproduce it. *)
let with_planted_bug f =
  let flag = Montage.Persist_buffer.test_drop_first_publish_record in
  flag := true;
  Fun.protect ~finally:(fun () -> flag := false) f

let test_planted_publish_bug_caught_exhaustive () =
  with_planted_bug (fun () ->
      let scenario = queue_scenario mqueue_impl scripts in
      match
        (D.explore (exhaustive ~preemptions:1 ~max_attempts:100_000 ()) scenario).D.failure
      with
      | None -> Alcotest.fail "dropped flush not caught by exhaustive exploration"
      | Some f ->
          Alcotest.(check bool) "shrunk trace provided" true (f.D.trace <> []);
          Alcotest.(check bool) "shrunk no longer than raw" true
            (List.length f.D.trace <= List.length f.D.raw_trace);
          (* the minimal trace still ends in the injected crash *)
          (match List.rev f.D.trace with
          | D.Crash :: _ -> ()
          | _ -> Alcotest.fail "planted bug should fail on a crash branch");
          let again = D.explore (D.Replay f.D.trace) scenario in
          Alcotest.(check bool) "shrunk trace replays to the same failure" true
            (again.D.failure <> None))

let test_planted_publish_bug_caught_pct_and_seed_replays () =
  with_planted_bug (fun () ->
      let scenario = queue_scenario mqueue_impl scripts in
      match (D.explore (D.Pct { runs = 100; seed = 7; change_points = 3 }) scenario).D.failure with
      | None -> Alcotest.fail "dropped flush not caught by 100 PCT runs"
      | Some f -> (
          match f.D.seed with
          | None -> Alcotest.fail "no per-run seed on a PCT failure"
          | Some s ->
              let again =
                D.explore (D.Pct { runs = 1; seed = s; change_points = 3 }) scenario
              in
              Alcotest.(check bool) "printed seed reproduces the failure" true
                (again.D.failure <> None);
              let replayed = D.explore (D.Replay f.D.trace) scenario in
              Alcotest.(check bool) "shrunk trace replays too" true (replayed.D.failure <> None)))

(* ---- epoch advance: racing helpers ---- *)

(* One writer through a 4-slot ring (every other enqueue overflows into
   a mid-op publication) with two helper fibers advancing concurrently:
   exploration preempts the writer between publishing and retiring
   while both helpers run the same tick's helping protocol, and a crash
   is branched at every scheduling point.  Durable linearizability must
   hold at every recovered state. *)
let racing_cfg = { sched_cfg with Cfg.buffer_size = 4 }
let racing_scripts = [| [ Enq "a"; Enq "b"; Enq "c"; Deq ] |]

let test_racing_helpers_exhaustive () =
  let r =
    D.explore
      (exhaustive ~preemptions:1 ~max_attempts:400_000 ())
      (queue_scenario ~cfg:racing_cfg ~helpers:2 mqueue_impl racing_scripts)
  in
  check_queue_report "nb-racing-helpers" r

let test_racing_helpers_pct () =
  let r =
    D.explore
      (D.Pct { runs = 300; seed = 11; change_points = 3 })
      (queue_scenario ~cfg:racing_cfg ~helpers:2 mqueue_impl racing_scripts)
  in
  match r.D.failure with
  | Some f -> Alcotest.fail ("nb-racing-helpers-pct: " ^ D.failure_to_string f)
  | None -> Alcotest.(check bool) "schedules explored" true (r.D.schedules > 0)

(* ---- wait-freedom: a stalled peer cannot block advance or sync ---- *)

(* Harness: [arm ()] primes the next drain-window stall; the parked
   fiber raises [stalled] and waits for [released].  Arm/consume runs
   on the victim's own fiber with no scheduling point in between other
   fibers could use, so only the victim parks. *)
type stall_rig = {
  arm : unit -> unit;
  stalled : bool ref;
  released : bool ref;
}

let with_stall_rig f =
  let armed = ref false and stalled = ref false and released = ref false in
  E.test_stall_in_drain :=
    (fun () ->
      if !armed then begin
        armed := false;
        stalled := true;
        Util.Sched.await "test.stall" (fun () -> !released)
      end);
  Fun.protect
    ~finally:(fun () -> E.test_stall_in_drain := (fun () -> ()))
    (fun () -> f { arm = (fun () -> armed := true); stalled; released })

(* Writer parked mid-flush *inside an open op* (the full-ring
   publication of its third pnew, records published but not yet
   fenced); the peer performs one full epoch advance and only then
   releases the writer.  The advance claims and flushes the parked
   writer's records itself and completes — the schedule runs to the
   end. *)
let stalled_writer_scenario rig =
  let cfg = { sched_cfg with Cfg.max_threads = 2; buffer_size = 2 } in
  {
    D.init =
      (fun () ->
        let region = R.create ~latency:Nvm.Latency.zero ~max_threads:4 ~capacity:(1 lsl 18) () in
        rig.stalled := false;
        rig.released := false;
        E.create ~config:cfg region);
    threads =
      [|
        (fun esys ->
          E.begin_op esys ~tid:0;
          ignore (E.pnew esys ~tid:0 (Bytes.make 16 'a'));
          ignore (E.pnew esys ~tid:0 (Bytes.make 16 'b'));
          rig.arm ();
          (* third record finds the 2-slot ring full: the flush parks
             under the hook with both records still unfenced *)
          ignore (E.pnew esys ~tid:0 (Bytes.make 16 'c'));
          E.end_op esys ~tid:0);
        (fun esys ->
          Util.Sched.await "helper.sees-stall" (fun () -> !(rig.stalled));
          E.advance_epoch esys ~tid:1;
          rig.released := true);
      |];
    check_crash = None;
    check_done = Some (fun esys -> E.advance_count esys = 1);
  }

let test_advance_completes_past_stalled_writer () =
  with_stall_rig (fun rig ->
      let r =
        D.explore
          (exhaustive ~preemptions:2 ~max_attempts:100_000 ~crashes:false ())
          (stalled_writer_scenario rig)
      in
      (match r.D.failure with
      | Some f -> Alcotest.fail ("nb advance stalled: " ^ D.failure_to_string f)
      | None -> ());
      Alcotest.(check bool) "schedules explored" true (r.D.schedules > 0))

(* Sync wait-freedom: the victim completes its op and parks inside its
   END_OP flush (records published, not yet fenced).  The victim has
   already unregistered, so a peer's [sync] never waits on it — it
   claims the victim's records, performs both ticks, and the durable
   frontier covers the victim's completed op. *)
let stalled_end_op_scenario rig =
  let cfg = { sched_cfg with Cfg.max_threads = 2; buffer_size = 16; drain_on_end_op = true } in
  let op_epoch = ref 0 in
  {
    D.init =
      (fun () ->
        let region = R.create ~latency:Nvm.Latency.zero ~max_threads:4 ~capacity:(1 lsl 18) () in
        rig.stalled := false;
        rig.released := false;
        op_epoch := 0;
        E.create ~config:cfg region);
    threads =
      [|
        (fun esys ->
          E.begin_op esys ~tid:0;
          ignore (E.pnew esys ~tid:0 (Bytes.make 16 'x'));
          op_epoch := E.op_epoch esys ~tid:0;
          rig.arm ();
          E.end_op esys ~tid:0);
        (fun esys ->
          Util.Sched.await "syncer.sees-stall" (fun () -> !(rig.stalled));
          E.sync esys ~tid:1;
          rig.released := true);
      |];
    check_crash = None;
    check_done =
      Some
        (fun esys ->
          (* both ticks ran and the frontier covers the victim's
             completed op even though the victim never fenced it *)
          E.advance_count esys = 2 && E.persisted_epoch esys >= !op_epoch);
  }

let test_sync_wait_free_past_stalled_end_op () =
  with_stall_rig (fun rig ->
      let r =
        D.explore
          (exhaustive ~preemptions:2 ~max_attempts:100_000 ~crashes:false ())
          (stalled_end_op_scenario rig)
      in
      (match r.D.failure with
      | Some f -> Alcotest.fail ("nb sync stalled: " ^ D.failure_to_string f)
      | None -> ());
      Alcotest.(check bool) "schedules explored" true (r.D.schedules > 0))

(* ---- Workers-mode reclamation: the scrub-window stall ---- *)

(* +LocalFree reclamation runs inside BEGIN_OP, and its hazard is the
   scrub barrier in [reclaim_ripe]: the ripe plain victims' scrubs have
   been issued but not fenced, and the anti-payloads masking deleted
   victims are not yet scrubbed.  A reclaimer parked in that window
   (via [E.test_stall_in_reclaim]) models a stalled worker; a crash
   there must never resurrect a superseded version ("a" -> "1") or an
   anti-masked victim ("b" -> "2") once the overwrite/delete is
   durable.  Thread 0 builds ripe garbage of both kinds — a pset
   supersession and a pdelete anti — then its next op's local reclaim
   parks under the hook; thread 1 advances the clock once over the
   parked reclaimer and releases it.  Crash branched at every
   scheduling point, every recovered map checked against the
   sequential model. *)

type mop = Mput of string * string | Mdel of string

let mspec =
  {
    Dlin.initial = [];
    apply =
      (fun st op ->
        match op with
        | Mput (k, v) -> (List.assoc_opt k st, (k, v) :: List.remove_assoc k st)
        | Mdel k -> (List.assoc_opt k st, List.remove_assoc k st));
  }

type mstate = {
  mregion : R.t;
  mesys : E.t;
  map : Pstructs.Mhashmap.t;
  mhist : (mop * string option * int) list ref;
  minflight : mop option ref;
}

let workers_cfg = { sched_cfg with Cfg.reclaim = Cfg.Workers }

let scrub_window_scenario ~armed ~stalled ~released () =
  (* result recorded with the clock after completion, as in
     [queue_scenario]; the op call is an argument, so it completes
     before [record] reads the clock *)
  let record st op res =
    st.mhist := (op, res, E.current_epoch st.mesys) :: !(st.mhist);
    st.minflight := None
  in
  let put st k v =
    st.minflight := Some (Mput (k, v));
    record st (Mput (k, v)) (Pstructs.Mhashmap.put st.map ~tid:0 k v)
  in
  let del st k =
    st.minflight := Some (Mdel k);
    record st (Mdel k) (Pstructs.Mhashmap.remove st.map ~tid:0 k)
  in
  {
    D.init =
      (fun () ->
        armed := false;
        stalled := false;
        released := false;
        let region = R.create ~latency:Nvm.Latency.zero ~max_threads:4 ~capacity:(1 lsl 18) () in
        let esys = E.create ~config:workers_cfg region in
        {
          mregion = region;
          mesys = esys;
          map = Pstructs.Mhashmap.create ~buckets:16 esys;
          mhist = ref [];
          minflight = ref None;
        });
    threads =
      [|
        (fun st ->
          put st "a" "1";
          put st "b" "2";
          E.advance_epoch st.mesys ~tid:0;
          put st "a" "3";
          (* supersession: the old "a" version is deferred plain garbage *)
          del st "b";
          (* pdelete: anti-payload published, victim + anti deferred *)
          E.advance_epoch st.mesys ~tid:0;
          E.advance_epoch st.mesys ~tid:0;
          (* the epoch-tagged garbage is now ripe; this op's BEGIN_OP
             reclaim parks in the scrub window *)
          armed := true;
          put st "c" "4");
        (fun st ->
          Util.Sched.await "helper.sees-stall" (fun () -> !stalled);
          E.advance_epoch st.mesys ~tid:1;
          released := true);
      |];
    check_crash =
      Some
        (fun st ->
          R.crash st.mregion;
          match E.recover ~config:workers_cfg st.mregion with
          | exception _ -> false
          | esys2, payloads ->
              let m2 = Pstructs.Mhashmap.recover ~buckets:16 esys2 payloads in
              let recovered = List.sort compare (Pstructs.Mhashmap.to_alist m2 ~tid:0) in
              let cutoff = E.current_epoch esys2 - 2 in
              let obs =
                [|
                  {
                    Dlin.completed =
                      List.rev_map (fun (op, res, e) -> (op, res, e <= cutoff)) !(st.mhist);
                    in_flight = !(st.minflight);
                  };
                |]
              in
              Dlin.durably_linearizable mspec obs ~accept:(fun m ->
                  List.sort compare m = recovered));
    check_done =
      Some
        (fun st ->
          let final = List.sort compare (Pstructs.Mhashmap.to_alist st.map ~tid:0) in
          let hist = [| List.rev_map (fun (op, res, _) -> (op, res)) !(st.mhist) |] in
          final = [ ("a", "3"); ("c", "4") ]
          && Dlin.linearizable mspec hist ~accept:(fun m -> List.sort compare m = final));
  }

let test_workers_scrub_window_stall () =
  let armed = ref false and stalled = ref false and released = ref false in
  E.test_stall_in_reclaim :=
    (fun () ->
      if !armed then begin
        armed := false;
        stalled := true;
        Util.Sched.await "test.reclaim-stall" (fun () -> !released)
      end);
  Fun.protect
    ~finally:(fun () -> E.test_stall_in_reclaim := (fun () -> ()))
    (fun () ->
      let r =
        D.explore
          (exhaustive ~preemptions:1 ~max_attempts:200_000 ())
          (scrub_window_scenario ~armed ~stalled ~released ())
      in
      (match r.D.failure with
      | Some f -> Alcotest.fail ("scrub window: " ^ D.failure_to_string f)
      | None -> ());
      Printf.eprintf "scrub-window: schedules=%d crash_branches=%d max_points=%d\n%!" r.D.schedules
        r.D.crash_branches r.D.max_points;
      Alcotest.(check bool) "schedules explored" true (r.D.schedules > 0);
      Alcotest.(check bool) "crash injected at every point" true
        (r.D.crash_branches >= r.D.max_points);
      Alcotest.(check bool) "exhausted, not truncated" false r.D.truncated)

(* ---- kvstore read-modify-write commands ----

   touch, append and prepend read an item and write it back.  Unless
   that is one atomic step under the key's lock, a set from another
   connection that lands between the read and the write is lost.  Two
   connections (tids 0 and 1) race on one key of a Montage-hashmap
   store; the store's clock is fixed and nothing advances epochs, so
   the only scheduling points are the map's and the runtime's. *)

let kv_rmw_scenario ~setup ~ops ~finals =
  {
    D.init =
      (fun () ->
        let region = R.create ~latency:Nvm.Latency.zero ~max_threads:4 ~capacity:(1 lsl 18) () in
        let esys = E.create ~config:sched_cfg region in
        let store =
          Kvstore.Store.create (Kvstore.Store.of_mhashmap (Pstructs.Mhashmap.create ~buckets:4 esys))
        in
        Kvstore.Store.set_clock store (fun () -> 1000.0);
        let conns = Array.init 2 (fun tid -> Kvstore.Protocol.create store ~tid) in
        ignore (Kvstore.Protocol.feed conns.(0) setup);
        conns);
    threads = Array.mapi (fun tid req conns -> ignore (Kvstore.Protocol.feed conns.(tid) req)) ops;
    check_crash = None;
    check_done =
      Some
        (fun conns ->
          List.mem
            (String.concat "" (Kvstore.Protocol.feed conns.(0) "get k\r\n"))
            (List.map (fun v -> Printf.sprintf "VALUE k 0 %d\r\n%s\r\nEND\r\n" (String.length v) v) finals));
  }

let check_kv_rmw name scenario =
  let r = D.explore (exhaustive ~preemptions:2 ~crashes:false ()) scenario in
  (match r.D.failure with
  | Some f -> Alcotest.fail (name ^ ": " ^ D.failure_to_string f)
  | None -> ());
  Alcotest.(check bool) "exhausted, not truncated" false r.D.truncated

let test_touch_races_set () =
  (* either order leaves the set's value; a lost update leaves "a" *)
  check_kv_rmw "touch || set"
    (kv_rmw_scenario ~setup:"set k 0 0 1\r\na\r\n"
       ~ops:[| "touch k 100\r\n"; "set k 0 0 1\r\nb\r\n" |]
       ~finals:[ "b" ])

let test_append_races_append () =
  check_kv_rmw "append || append"
    (kv_rmw_scenario ~setup:"set k 0 0 1\r\nx\r\n"
       ~ops:[| "append k 0 0 1\r\n1\r\n"; "append k 0 0 1\r\n2\r\n" |]
       ~finals:[ "x12"; "x21" ])

(* ---- striped bucket locks: two buckets under one lock ----

   A map of 4 x [Mhashmap.stripes] buckets puts four buckets under each
   lock.  Thread 0 sets one key while thread 1 sets and then appends to
   another; the keys hash to different buckets of one stripe, so each
   op's walk waits on the other's lock although their chains are
   disjoint.  Every op is followed by an epoch advance, as in
   [queue_scenario], and a crash is branched at every scheduling point:
   each recovered store must be a durable linearization of the two
   histories, rebuilt into a map of the same shape. *)

type sop = Sset of string * string | Sappend of string * string

let sspec =
  {
    Dlin.initial = [];
    apply =
      (fun st op ->
        match op with
        | Sset (k, v) -> (true, List.sort compare ((k, v) :: List.remove_assoc k st))
        | Sappend (k, s) -> (
            match List.assoc_opt k st with
            | None -> (false, st)
            | Some v -> (true, List.sort compare ((k, v ^ s) :: List.remove_assoc k st))));
  }

let stripe_buckets = 4 * Pstructs.Mhashmap.stripes

type sstate = {
  sregion : R.t;
  sesys : E.t;
  store : Kvstore.Store.t;
  shist : (sop * bool * int) list ref array;
  sinflight : sop option array;
}

let stripe_store esys =
  let store =
    Kvstore.Store.create
      (Kvstore.Store.of_mhashmap (Pstructs.Mhashmap.create ~buckets:stripe_buckets esys))
  in
  Kvstore.Store.set_clock store (fun () -> 1000.0);
  store

let stripe_scenario () =
  let keys = Pstruct_gen.stripe_aliased_keys ~buckets:stripe_buckets 2 in
  let k1, k2 = (List.nth keys 0, List.nth keys 1) in
  let contents store ~tid =
    List.sort compare
      (List.filter_map
         (fun k -> Option.map (fun v -> (k, v)) (Kvstore.Store.get store ~tid k))
         keys)
  in
  let script tid ops st =
    List.iter
      (fun op ->
        st.sinflight.(tid) <- Some op;
        let res =
          match op with
          | Sset (k, v) ->
              Kvstore.Store.set st.store ~tid k v;
              true
          | Sappend (k, s) ->
              Kvstore.Store.store st.store ~tid Kvstore.Store.Append ~expiry:0.0 k
                (Bytes.of_string s) 0 (String.length s)
              = Kvstore.Store.Stored
        in
        st.shist.(tid) := (op, res, E.current_epoch st.sesys) :: !(st.shist.(tid));
        st.sinflight.(tid) <- None;
        E.advance_epoch st.sesys ~tid)
      ops
  in
  {
    D.init =
      (fun () ->
        let region = R.create ~latency:Nvm.Latency.zero ~max_threads:4 ~capacity:(1 lsl 18) () in
        let esys = E.create ~config:sched_cfg region in
        {
          sregion = region;
          sesys = esys;
          store = stripe_store esys;
          shist = [| ref []; ref [] |];
          sinflight = [| None; None |];
        });
    threads = [| script 0 [ Sset (k1, "x") ]; script 1 [ Sset (k2, "a"); Sappend (k2, "b") ] |];
    check_crash =
      Some
        (fun st ->
          R.crash st.sregion;
          match E.recover ~config:sched_cfg st.sregion with
          | exception _ -> false
          | esys2, payloads ->
              let recovered =
                contents
                  (Kvstore.Store.create
                     (Kvstore.Store.of_mhashmap
                        (Pstructs.Mhashmap.recover ~buckets:stripe_buckets esys2 payloads)))
                  ~tid:0
              in
              let cutoff = E.current_epoch esys2 - 2 in
              let obs =
                Array.mapi
                  (fun i h ->
                    {
                      Dlin.completed = List.rev_map (fun (op, res, e) -> (op, res, e <= cutoff)) !h;
                      in_flight = st.sinflight.(i);
                    })
                  st.shist
              in
              Dlin.durably_linearizable sspec obs ~accept:(fun m -> m = recovered));
    check_done =
      Some
        (fun st ->
          let final = contents st.store ~tid:0 in
          let hists =
            Array.map (fun h -> List.rev_map (fun (op, res, _) -> (op, res)) !h) st.shist
          in
          final = List.sort compare [ (k1, "x"); (k2, "ab") ]
          && Dlin.linearizable sspec hists ~accept:(fun m -> m = final));
  }

let test_stripe_set_append () =
  let r = D.explore (exhaustive ~preemptions:1 ~max_attempts:200_000 ()) (stripe_scenario ()) in
  (match r.D.failure with
  | Some f -> Alcotest.fail ("stripe set || append: " ^ D.failure_to_string f)
  | None -> ());
  Printf.eprintf "stripe set || append: schedules=%d crash_branches=%d max_points=%d\n%!"
    r.D.schedules r.D.crash_branches r.D.max_points;
  Alcotest.(check bool) "schedules explored" true (r.D.schedules > 1);
  Alcotest.(check bool) "crash injected at every point" true (r.D.crash_branches >= r.D.max_points);
  Alcotest.(check bool) "exhausted, not truncated" false r.D.truncated

(* The CI leg: MONTAGE_SCHED=random MONTAGE_SCHED_RUNS=500 runs this
   suite with a seeded PCT sweep over both queues; without the env the
   default is a modest always-on PCT pass. *)
let test_env_mode_sweep () =
  let mode =
    match D.mode_from_env () with
    | Some m -> m
    | None -> D.Pct { runs = 50; seed = 20260806; change_points = 3 }
  in
  List.iter
    (fun (name, run) ->
      match run () with
      | { D.failure = Some f; _ } -> Alcotest.fail (name ^ ": " ^ D.failure_to_string f)
      | _ -> ())
    [
      ("mqueue", fun () -> D.explore mode (queue_scenario mqueue_impl scripts));
      ("nb_queue", fun () -> D.explore mode (queue_scenario nb_queue_impl scripts));
    ]

let () =
  Alcotest.run "dsched"
    [
      ( "engine",
        [
          Alcotest.test_case "atomic counter passes" `Quick test_atomic_counter_passes;
          Alcotest.test_case "exhaustive finds lost update" `Quick test_exhaustive_finds_lost_update;
          Alcotest.test_case "preemption bound 0 misses it" `Quick
            test_zero_preemptions_misses_lost_update;
          Alcotest.test_case "exploration is deterministic" `Quick test_exploration_deterministic;
          Alcotest.test_case "explore restores the minor heap" `Quick
            test_explore_restores_minor_heap;
          Alcotest.test_case "shrunk trace replays" `Quick test_shrunk_trace_replays;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "fiber exception reported" `Quick test_fiber_exception_is_failure;
          Alcotest.test_case "PCT finds bug, seed replays" `Quick test_pct_finds_and_seed_replays;
          Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "mode from env" `Quick test_mode_from_env;
        ] );
      ( "dlin",
        [
          Alcotest.test_case "buffered ops may drop" `Quick test_dlin_accepts_buffered_drop;
          Alcotest.test_case "durable ops may not" `Quick test_dlin_rejects_durable_drop;
          Alcotest.test_case "order and results enforced" `Quick
            test_dlin_rejects_reorder_and_result_mismatch;
          Alcotest.test_case "in-flight optional" `Quick test_dlin_in_flight_optional;
          Alcotest.test_case "threads interleave" `Quick test_dlin_interleaves_threads;
          Alcotest.test_case "complete-run linearizability" `Quick test_linearizable_complete_run;
        ] );
      ( "montage",
        [
          Alcotest.test_case "mqueue exhaustive + crash at every point" `Quick
            test_mqueue_exhaustive_with_crashes;
          Alcotest.test_case "nb_queue exhaustive + crash at every point" `Quick
            test_nb_queue_exhaustive_with_crashes;
          Alcotest.test_case "env-selected sweep (CI leg)" `Quick test_env_mode_sweep;
        ] );
      ( "nb-advance",
        [
          Alcotest.test_case "racing helpers exhaustive + crash at every point" `Quick
            test_racing_helpers_exhaustive;
          Alcotest.test_case "racing helpers PCT" `Quick test_racing_helpers_pct;
          Alcotest.test_case "planted publish-drop caught (exhaustive)" `Quick
            test_planted_publish_bug_caught_exhaustive;
          Alcotest.test_case "planted publish-drop caught (PCT + seed replay)" `Quick
            test_planted_publish_bug_caught_pct_and_seed_replays;
          Alcotest.test_case "nb advance completes past stalled writer" `Quick
            test_advance_completes_past_stalled_writer;
          Alcotest.test_case "nb sync wait-free past stalled END_OP" `Quick
            test_sync_wait_free_past_stalled_end_op;
        ] );
      ( "workers-reclaim",
        [
          Alcotest.test_case "scrub-window stall + crash at every point" `Quick
            test_workers_scrub_window_stall;
        ] );
      ( "kvstore-rmw",
        [
          Alcotest.test_case "touch || set loses no update" `Quick test_touch_races_set;
          Alcotest.test_case "append || append loses no update" `Quick test_append_races_append;
        ] );
      ( "stripe-aliasing",
        [
          Alcotest.test_case "set || append + crash at every point" `Quick test_stripe_set_append;
        ] );
    ]
