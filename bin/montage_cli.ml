(* montage_cli — drive a Montage data structure interactively-ish.

   Subcommands:
     demo      run a put/crash/recover cycle and print the outcome
     workload  run a timed workload against a chosen structure
     torture   randomized crash-consistency check (like the example,
               with knobs)
     serve     run the netserve memcached front end over the KV store
     loadgen   load generator against a running server (closed loop,
               or open loop with --rate)
     c10k      in-process C10K scenario: idle connection census + busy
               burst, every idle connection verified live afterwards
     stallbench
               sync latency past a worker parked in its flush window
               (used by CI)
     netsmoke  in-process server smoke test (used by CI)
     shard     one cluster shard: netserve over its own region, heap
               file for durability across restarts
     cluster   consistent-hashing router fronting N supervised shard
               processes
     clustersmoke
               kill/recover/rejoin scenario under open-loop load
               (used by CI)

   This is a developer tool; the benchmark suite is bench/main.exe. *)

open Cmdliner

module E = Montage.Epoch_sys
module Client = Netserve.Client
module Cfg = Montage.Config

let mib = 1024 * 1024

(* ---- demo ---- *)

let demo items =
  let region = Nvm.Region.create ~capacity:(64 * mib) () in
  let esys = E.create region in
  let map = Pstructs.Mhashmap.create esys in
  for i = 1 to items do
    ignore (Pstructs.Mhashmap.put map ~tid:0 (Printf.sprintf "key%d" i) (Printf.sprintf "val%d" i))
  done;
  E.sync esys ~tid:0;
  ignore (Pstructs.Mhashmap.put map ~tid:0 "unsynced" "doomed");
  E.stop_background esys;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover region in
  let map2 = Pstructs.Mhashmap.recover esys2 payloads in
  Printf.printf "inserted %d + 1 unsynced, crashed, recovered %d items\n" items
    (Pstructs.Mhashmap.size map2);
  Printf.printf "unsynced item present: %b\n"
    (Pstructs.Mhashmap.get map2 ~tid:0 "unsynced" <> None);
  E.stop_background esys2;
  if Pstructs.Mhashmap.size map2 = items then `Ok () else `Error (false, "unexpected recovery size")

(* ---- workload ---- *)

let workload structure threads seconds value_size =
  if threads < 1 then `Error (false, "threads must be >= 1")
  else begin
    let region = Nvm.Region.create ~max_threads:(threads + 4) ~capacity:(256 * mib) () in
    let esys = E.create ~config:{ Cfg.default with max_threads = threads + 1 } region in
    let value = String.make value_size 'v' in
    let body =
      match structure with
      | "map" ->
          let m = Pstructs.Mhashmap.create esys in
          fun ~tid ~rng ->
            let key = Printf.sprintf "%024d" (Util.Xoshiro.int rng 100_000) in
            if Util.Xoshiro.bool rng then ignore (Pstructs.Mhashmap.put m ~tid key value)
            else ignore (Pstructs.Mhashmap.remove m ~tid key)
      | "queue" ->
          let q = Pstructs.Mqueue.create esys in
          fun ~tid ~rng ->
            if Util.Xoshiro.bool rng then Pstructs.Mqueue.enqueue q ~tid value
            else ignore (Pstructs.Mqueue.dequeue q ~tid)
      | "stack" ->
          let s = Pstructs.Mstack.create esys in
          fun ~tid ~rng ->
            if Util.Xoshiro.bool rng then Pstructs.Mstack.push s ~tid value
            else ignore (Pstructs.Mstack.pop s ~tid)
      | "nb-stack" ->
          let s = Pstructs.Nb_stack.create esys in
          fun ~tid ~rng ->
            if Util.Xoshiro.bool rng then Pstructs.Nb_stack.push s ~tid value
            else ignore (Pstructs.Nb_stack.pop s ~tid)
      | "nb-queue" ->
          let q = Pstructs.Nb_queue.create esys in
          fun ~tid ~rng ->
            if Util.Xoshiro.bool rng then Pstructs.Nb_queue.enqueue q ~tid value
            else ignore (Pstructs.Nb_queue.dequeue q ~tid)
      | other -> failwith ("unknown structure: " ^ other)
    in
    match body with
    | exception Failure msg -> `Error (false, msg)
    | body ->
        let r = Benchlib.Runner.throughput ~threads ~duration_s:seconds body in
        let stats = Nvm.Region.stats region in
        Printf.printf "%s: %.0f ops/s over %d thread(s) for %.1fs\n" structure
          r.Benchlib.Runner.ops_per_sec threads seconds;
        Printf.printf "NVM traffic: %d writebacks, %d fences, %d lines persisted\n"
          stats.Nvm.Region.writebacks stats.Nvm.Region.fences stats.Nvm.Region.lines_persisted;
        Printf.printf "epoch advances: %d\n" (E.advance_count esys);
        E.stop_background esys;
        `Ok ()
  end

(* ---- torture ---- *)

let torture rounds seed =
  let rng = Util.Xoshiro.create seed in
  let cfg = { Cfg.testing with max_threads = 2 } in
  let region = Nvm.Region.create ~capacity:(32 * mib) () in
  let esys = ref (E.create ~config:cfg region) in
  let map = ref (Pstructs.Mhashmap.create ~buckets:64 !esys) in
  let model = Hashtbl.create 64 in
  let snapshots = Hashtbl.create 64 in
  let snapshot () = Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare in
  let record ~ended = Hashtbl.replace snapshots ended (snapshot ()) in
  record ~ended:(E.current_epoch !esys - 1);
  let ok = ref true in
  (try
     for round = 1 to rounds do
       for _ = 1 to 20 + Util.Xoshiro.int rng 100 do
         let k = Printf.sprintf "key%03d" (Util.Xoshiro.int rng 200) in
         (match Util.Xoshiro.int rng 2 with
         | 0 ->
             let v = Printf.sprintf "r%d" round in
             ignore (Pstructs.Mhashmap.put !map ~tid:0 k v);
             Hashtbl.replace model k v
         | _ ->
             ignore (Pstructs.Mhashmap.remove !map ~tid:0 k);
             Hashtbl.remove model k);
         if Util.Xoshiro.int rng 20 = 0 then begin
           let ended = E.current_epoch !esys in
           E.advance_epoch !esys ~tid:1;
           record ~ended
         end
       done;
       let crash_epoch = E.current_epoch !esys in
       Nvm.Region.crash
         ~persist_unfenced:(Util.Xoshiro.float rng)
         ~evict_dirty:(Util.Xoshiro.float rng) ~rng region;
       let esys2, payloads = E.recover ~config:cfg region in
       let map2 = Pstructs.Mhashmap.recover ~buckets:64 esys2 payloads in
       let expected = ref [] in
       for e = 1 to crash_epoch - 2 do
         match Hashtbl.find_opt snapshots e with Some s -> expected := s | None -> ()
       done;
       let recovered = List.sort compare (Pstructs.Mhashmap.to_alist map2 ~tid:0) in
       if recovered <> !expected then begin
         Printf.printf "round %d: INCONSISTENT RECOVERY\n" round;
         ok := false;
         raise Exit
       end;
       esys := esys2;
       map := map2;
       Hashtbl.reset model;
       List.iter (fun (k, v) -> Hashtbl.replace model k v) recovered;
       Hashtbl.reset snapshots;
       record ~ended:(E.current_epoch !esys - 1)
     done
   with Exit -> ());
  if !ok then begin
    Printf.printf "%d crash/recovery rounds: all consistent\n" rounds;
    `Ok ()
  end
  else `Error (false, "inconsistent recovery detected")

(* ---- stallbench ---- *)

(* Real-time check that [sync] never waits on a parked worker: park one
   worker inside its END_OP flush window (the [test_stall_in_drain]
   hook, between publishing its ring and fencing it) and time a
   concurrent [sync].  The advance claims the parked worker's published
   records itself and completes without it, so the sync must take far
   less than the stall; exit 1 if it took at least half of it. *)
let stallbench stall_ms warmup_ops =
  let stall_s = float_of_int stall_ms /. 1000. in
  let cfg = { Cfg.default with max_threads = 2; auto_advance = false; drain_on_end_op = true } in
  let region = Nvm.Region.create ~max_threads:4 ~capacity:(64 * mib) () in
  let esys = E.create ~config:cfg region in
  let armed = Atomic.make false and stalled = Atomic.make false in
  let saved = !E.test_stall_in_drain in
  (E.test_stall_in_drain :=
     fun () ->
       if Atomic.compare_and_set armed true false then begin
         Atomic.set stalled true;
         Unix.sleepf stall_s
       end);
  let go = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        for _ = 1 to warmup_ops do
          E.with_op esys ~tid:0 (fun () -> ignore (E.pnew esys ~tid:0 (Bytes.make 64 'x')))
        done;
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        (* this op's END_OP flush parks in the armed hook *)
        E.with_op esys ~tid:0 (fun () -> ignore (E.pnew esys ~tid:0 (Bytes.make 64 'y'))))
  in
  Atomic.set armed true;
  Atomic.set go true;
  while not (Atomic.get stalled) do
    Domain.cpu_relax ()
  done;
  let t0 = Unix.gettimeofday () in
  E.sync esys ~tid:1;
  let dt = Unix.gettimeofday () -. t0 in
  Domain.join worker;
  E.test_stall_in_drain := saved;
  Printf.printf "one worker parked %d ms inside its END_OP flush window\n" stall_ms;
  Printf.printf "sync latency %.3f ms, %d advances\n" (dt *. 1000.) (E.advance_count esys);
  if dt >= stall_s /. 2. then begin
    Printf.printf "FAIL: sync took at least half the stall\n";
    exit 1
  end;
  `Ok ()
[@@montage.allow
  "R5: the sleep IS the benchmark — it models a worker descheduled \
   mid-flush for a fixed wall-clock interval; the measurement needs \
   real time, not a scheduler seam"]

(* ---- serve ---- *)

(* Build the store for the requested backend.  The Montage build sizes
   the epoch system for [workers] server tids plus the advancer slot,
   and hands netserve the sync/frontier hooks its shutdown drain uses
   as the durability barrier. *)
let make_backend backend workers capacity_mib =
  match backend with
  | "montage" ->
      let region = Nvm.Region.create ~max_threads:(workers + 4) ~capacity:(capacity_mib * mib) () in
      let esys = E.create ~config:{ Cfg.default with max_threads = workers + 1 } region in
      let map = Pstructs.Mhashmap.create esys in
      Some (Kvstore.Store.create (Kvstore.Store.of_mhashmap map), Some esys)
  | "mhamt" ->
      let region = Nvm.Region.create ~max_threads:(workers + 4) ~capacity:(capacity_mib * mib) () in
      let esys = E.create ~config:{ Cfg.default with max_threads = workers + 1 } region in
      let map = Pstructs.Mhamt.create esys in
      Some (Kvstore.Store.create (Kvstore.Store.of_mhamt map), Some esys)
  | "transient" ->
      let m = Baselines.Transient_map.create Baselines.Transient_map.Dram in
      Some (Kvstore.Store.create (Kvstore.Store.of_transient_map m), None)
  | _ -> None

let start_server ~config store esys =
  match esys with
  | Some esys ->
      Netserve.start ~config
        ~sync:(fun ~tid -> E.sync esys ~tid)
        ~persisted_epoch:(fun () -> E.persisted_epoch esys)
        store
  | None -> Netserve.start ~config store

(* Set by SIGINT/SIGTERM once [catch_stop] has run. *)
let stop = Atomic.make false

let catch_stop () =
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler

(* Call [every] about every 0.2 s until SIGINT/SIGTERM, or until
   [seconds] pass (0 = no deadline). *)
let until_signal ~seconds every =
  catch_stop ();
  let deadline = if seconds <= 0.0 then infinity else Unix.gettimeofday () +. seconds in
  while (not (Atomic.get stop)) && Unix.gettimeofday () < deadline do
    every ();
    try
      Unix.sleepf 0.2
      [@montage.allow
        "R5: EINTR-tolerant wait loop on the CLI driver thread pacing the \
         run deadline and supervision ticks; not server or structure code"]
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let serve backend host port workers seconds capacity_mib =
  if workers < 1 then `Error (false, "workers must be >= 1")
  else
    match make_backend backend workers capacity_mib with
    | None -> `Error (false, "backend must be montage|mhamt|transient")
    | Some (store, esys) ->
        let config = { Netserve.default_config with host; port; workers } in
        let t = start_server ~config store esys in
        Printf.printf "netserve: %s backend, %d worker(s) on %s:%d\n%!" backend workers host
          (Netserve.port t);
        until_signal ~seconds ignore;
        let d = Netserve.shutdown t in
        let accepted, bytes_in, bytes_out, cmds = Netserve.totals t in
        Printf.printf "shutdown: drained %d conn(s), %d forced, %.3fs drain + %.3fs sync" d.drained_conns
          d.forced_closes d.drain_s d.sync_s;
        if d.persisted_epoch >= 0 then Printf.printf ", persisted epoch %d" d.persisted_epoch;
        print_newline ();
        Printf.printf "totals: %d connection(s), %d command(s), %d bytes in, %d bytes out\n" accepted
          cmds bytes_in bytes_out;
        Option.iter E.stop_background esys;
        `Ok ()

(* ---- loadgen ---- *)

(* "host:port,host:port,..." -> endpoint list; a bare "port" keeps the
   default host *)
let parse_endpoints host s =
  let ep tok =
    match String.rindex_opt tok ':' with
    | Some i ->
        let h = String.sub tok 0 i in
        let p = String.sub tok (i + 1) (String.length tok - i - 1) in
        (match int_of_string_opt p with Some p -> Some (h, p) | None -> None)
    | None -> ( match int_of_string_opt tok with Some p -> Some (host, p) | None -> None)
  in
  let toks = String.split_on_char ',' s |> List.filter (( <> ) "") in
  let eps = List.filter_map ep toks in
  if List.length eps = List.length toks then Ok eps
  else Error (Printf.sprintf "bad endpoint list %S (want host:port,host:port,...)" s)

let loadgen host port conns domains seconds pipeline value_size keyspace get_frac seed no_preload
    rate arrival_s grace_s endpoints_s =
  match (if endpoints_s = "" then Ok [] else parse_endpoints host endpoints_s) with
  | Error e -> `Error (false, e)
  | Ok endpoints ->
  let config =
    {
      Netserve.Loadgen.default_config with
      host;
      port;
      conns;
      domains;
      duration_s = seconds;
      pipeline;
      value_size;
      keyspace;
      get_frac;
      seed;
      endpoints;
    }
  in
  let label =
    if endpoints = [] then Printf.sprintf "%s:%d" host port
    else
      String.concat ","
        (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) endpoints)
  in
  let cannot_drive e =
    `Error
      (false, Printf.sprintf "cannot drive server at %s:%d (%s)" host port (Printexc.to_string e))
  in
  if rate > 0.0 then
    (* open loop: fixed arrival schedule, latency charged from it *)
    match Netserve.Loadgen.arrival_of_string arrival_s with
    | None -> `Error (false, "arrival must be poisson|uniform")
    | Some arrival -> (
        match
          if not no_preload then Netserve.Loadgen.preload ~config ();
          Netserve.Loadgen.run_open ~config ~arrival ~grace_s ~rate ()
        with
        | exception ((Unix.Unix_error _ | Failure _) as e) -> cannot_drive e
        | r ->
            Netserve.Loadgen.print_open_report ~label r;
            if r.completed = 0 then `Error (false, "no operations completed") else `Ok ())
  else
    match
      if not no_preload then Netserve.Loadgen.preload ~config ();
      Netserve.Loadgen.run ~config ()
    with
    | exception ((Unix.Unix_error _ | Failure _) as e) -> cannot_drive e
    | r ->
        Netserve.Loadgen.print_report ~label r;
        if r.ops = 0 then `Error (false, "no operations completed") else `Ok ()

(* ---- c10k ---- *)

(* Single-point C10K scenario, in-process: raise the fd limit, open
   [conns] idle connections (the census), run a closed-loop burst over
   [active] busy connections through the same workers, then prove every
   idle connection is still served by round-tripping a [version]
   command on each.  Exits nonzero if any connection was refused,
   dropped, or went unanswered. *)
let c10k backend conns workers seconds active value_size capacity_mib target_port =
  if workers < 1 then `Error (false, "workers must be >= 1")
  else
    (* [--port] drives an already-running server (started with
       [serve] in another process) instead of an in-process one:
       each connection then costs this process one fd, not two, so
       the census can go past half the RLIMIT_NOFILE cap. *)
    let be =
      if target_port > 0 then Some None
      else
        match make_backend backend workers capacity_mib with
        | None -> None
        | Some b -> Some (Some b)
    in
    match be with
    | None -> `Error (false, "backend must be montage|mhamt|transient")
    | Some be ->
        let fds_per_conn = if be = None then 1 else 2 in
        let soft =
          Netserve.Poller.raise_fd_limit ((fds_per_conn * (conns + active)) + 512)
        in
        let budget = max 16 ((soft - 256 - (fds_per_conn * active)) / fds_per_conn) in
        let conns =
          if conns > budget then begin
            Printf.printf
              "c10k: RLIMIT_NOFILE soft limit %d: clamping %d -> %d idle connections\n%!"
              soft conns budget;
            budget
          end
          else conns
        in
        let t =
          Option.map
            (fun (store, esys) ->
              let config =
                {
                  Netserve.default_config with
                  host = "127.0.0.1";
                  port = 0;
                  workers;
                  max_conns = conns + active + 64;
                  backlog = 1024;
                  idle_timeout_s = 0.0;
                  tick_s = 0.01;
                }
              in
              start_server ~config store esys)
            be
        in
        let port = match t with Some t -> Netserve.port t | None -> target_port in
        let t0 = Netserve.Poller.mono_s () in
        let idle =
          List.filter_map
            (fun _ -> try Some (Client.connect port) with Unix.Unix_error _ -> None)
            (List.init conns Fun.id)
        in
        let established = List.length idle in
        let ramp_s = Netserve.Poller.mono_s () -. t0 in
        (match t with
        | Some _ ->
            Printf.printf "c10k: %d/%d idle connection(s) up in %.2fs (%d worker(s))\n%!"
              established conns ramp_s workers
        | None ->
            Printf.printf
              "c10k: %d/%d idle connection(s) up in %.2fs (external server :%d)\n%!"
              established conns ramp_s port);
        (* throughput burst over a small busy subset while the idle
           census sits registered in the workers' epoll sets *)
        let lg =
          {
            Netserve.Loadgen.default_config with
            port;
            conns = active;
            domains = min 4 (max 1 (active / 8));
            duration_s = seconds;
            value_size;
            keyspace = 4096;
            key_prefix = "c10k";
          }
        in
        let burst =
          try
            Netserve.Loadgen.preload ~config:lg ();
            Some (Netserve.Loadgen.run ~config:lg ())
          with
          | Netserve.Loadgen.Connection_lost why ->
              Printf.printf "c10k: busy burst failed: connection lost (%s)\n%!" why;
              None
          | Unix.Unix_error (e, fn, _) ->
              Printf.printf "c10k: busy burst failed: %s in %s\n%!"
                (Unix.error_message e) fn;
              None
        in
        Option.iter
          (Netserve.Loadgen.print_report
             ~label:(Printf.sprintf "%d idle + %d active" established active))
          burst;
        (* liveness sweep: every idle connection still answers *)
        let answered = Client.version_sweep idle in
        Printf.printf "c10k: %d/%d idle connection(s) answered after the burst\n%!" answered
          established;
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) idle;
        (match t with
        | Some t ->
            let d = Netserve.shutdown t in
            let _, _, _, cmds = Netserve.totals t in
            (match burst with
            | Some r ->
                Printf.printf
                  "c10k: throughput %.0f ops/s, p99 %.0f us, %d command(s) total, \
                   drain %.3fs\n%!"
                  r.ops_per_sec r.p99_us cmds d.drain_s
            | None ->
                Printf.printf "c10k: %d command(s) total, drain %.3fs\n%!" cmds d.drain_s)
        | None ->
            Option.iter
              (fun r ->
                Printf.printf "c10k: throughput %.0f ops/s, p99 %.0f us\n%!"
                  r.Netserve.Loadgen.ops_per_sec r.Netserve.Loadgen.p99_us)
              burst);
        Option.iter (fun (_, esys) -> Option.iter E.stop_background esys) be;
        let problems =
          (if established < conns then
             [ Printf.sprintf "only %d/%d connections established" established conns ]
           else [])
          @ (if answered < established then
               [ Printf.sprintf "only %d/%d idle connections answered" answered established ]
             else [])
          @
          match burst with
          | None -> [ "busy burst failed" ]
          | Some r ->
              (if r.ops = 0 then [ "no operations completed" ] else [])
              @ (if r.errors > 0 then
                   [ Printf.sprintf "%d protocol errors" r.errors ]
                 else [])
              @ (match r.disconnects with
                | [] -> []
                | ds ->
                    [ Printf.sprintf "%d loadgen disconnect(s): %s" (List.length ds)
                        (List.hd ds) ])
        in
        if problems = [] then `Ok ()
        else `Error (false, "c10k failed: " ^ String.concat "; " problems)

(* ---- netsmoke ---- *)

(* In-process end-to-end smoke: start a Montage-backed server on an
   ephemeral port, run a byte-exact pipelined session and a seeded
   loadgen burst, read stats, shut down gracefully, crash the region,
   and verify every acked STORED key survives recovery.  CI runs this
   in every matrix leg; BACKEND mhamt swaps the persistent map for the
   snapshot-capable HAMT so the same byte-exact script drives both
   structures. *)
let netsmoke smoke_backend =
  let failures = ref [] in
  let check name ok =
    Printf.printf "  [%s] %s\n%!" (if ok then "ok" else "FAIL") name;
    if not ok then failures := name :: !failures
  in
  let workers = 4 in
  let region = Nvm.Region.create ~latency:Nvm.Latency.zero ~max_threads:(workers + 4) ~capacity:(64 * mib) () in
  let esys = E.create ~config:{ Cfg.default with max_threads = workers + 1 } region in
  let store =
    match smoke_backend with
    | `Mhamt -> Kvstore.Store.create (Kvstore.Store.of_mhamt (Pstructs.Mhamt.create esys))
    | `Mhashmap -> Kvstore.Store.create (Kvstore.Store.of_mhashmap (Pstructs.Mhashmap.create esys))
  in
  let config = { Netserve.default_config with host = "127.0.0.1"; port = 0; workers } in
  let t = start_server ~config store (Some esys) in
  Printf.printf "netsmoke: %s backend\n%!"
    (match smoke_backend with `Mhamt -> "mhamt" | `Mhashmap -> "montage");
  let port = Netserve.port t in
  (* 1. byte-exact pipelined session on one connection; an upper-case
     verb, a run of spaces and a 0x number take the framer's slow cases
     over the socket *)
  let fd = Client.connect port in
  Client.send fd
    "set a 5 0 3\r\nfoo\r\nget a\r\nset n 0 0 1\r\n7\r\nincr n 3\r\nadd a 0 0 1\r\nx\r\ndelete missing\r\nget a n\r\n\
     GET a\r\nset  d  0  0  2\r\nhi\r\nset h 0x1f 0 2\r\nxy\r\nget d h\r\n";
  let expected =
    "STORED\r\nVALUE a 5 3\r\nfoo\r\nEND\r\nSTORED\r\n10\r\nNOT_STORED\r\nNOT_FOUND\r\n\
     VALUE a 5 3\r\nfoo\r\nVALUE n 0 2\r\n10\r\nEND\r\nVALUE a 5 3\r\nfoo\r\nEND\r\nSTORED\r\n\
     STORED\r\nVALUE d 0 2\r\nhi\r\nVALUE h 31 2\r\nxy\r\nEND\r\n"
  in
  let got = Client.recv_exact fd (String.length expected) in
  check "pipelined session byte-exact" (got = expected);
  if got <> expected then Printf.printf "    got: %S\n" got;
  (* 2. flush_all wipes, later sets survive *)
  Client.send fd "flush_all\r\nget a\r\nset b 0 0 2\r\nhi\r\nget b\r\n";
  let expected2 = "OK\r\nEND\r\nSTORED\r\nVALUE b 0 2\r\nhi\r\nEND\r\n" in
  let got2 = Client.recv_exact fd (String.length expected2) in
  check "flush_all epoch-style invalidation" (got2 = expected2);
  (* 3. seeded loadgen burst through benchlib reporting *)
  let lg =
    {
      Netserve.Loadgen.default_config with
      port;
      conns = 8;
      domains = 2;
      duration_s = 0.5;
      keyspace = 500;
      key_prefix = "sm";
    }
  in
  Netserve.Loadgen.preload ~config:lg ();
  let r = Netserve.Loadgen.run ~config:lg () in
  Netserve.Loadgen.print_report ~label:"netsmoke" r;
  check "loadgen completed ops" (r.ops > 0);
  check "loadgen error-free" (r.errors = 0);
  check "loadgen hit path exercised" (r.hits > 0);
  check "loadgen percentiles ordered" (r.p50_us <= r.p95_us && r.p95_us <= r.p99_us);
  (* 4. stats over the wire: server section present and plausible *)
  Client.send fd "stats\r\n";
  let stats = String.split_on_char '\n' (Client.recv_until fd "END\r\n") in
  let stat prefix = List.exists (String.starts_with ~prefix) stats in
  check "stats: worker threads reported" (stat "STAT threads 4");
  check "stats: get counter present" (stat "STAT cmd_get ");
  check "stats: connection counter present" (stat "STAT total_connections ");
  check "stats: pipeline depth tracked" (stat "STAT max_pipeline_depth ");
  (* 5. acked STORED keys survive graceful shutdown + crash *)
  let dur = 20 in
  let buf = Buffer.create 512 in
  for i = 0 to dur - 1 do
    Buffer.add_string buf (Printf.sprintf "set dur%02d 0 0 4\r\nv%03d\r\n" i i)
  done;
  Client.send fd (Buffer.contents buf);
  let acks = Client.recv_exact fd (dur * 8) in
  check "durability keys acked" (acks = String.concat "" (List.init dur (fun _ -> "STORED\r\n")));
  Client.send fd "quit\r\n";
  Unix.close fd;
  let d = Netserve.shutdown t in
  check "graceful drain (no forced closes)" (d.forced_closes = 0);
  check "shutdown advanced the durable frontier" (d.persisted_epoch >= 1);
  E.stop_background esys;
  Nvm.Region.crash region;
  let esys2, payloads = E.recover ~config:{ Cfg.default with max_threads = workers + 1 } region in
  let store2 =
    match smoke_backend with
    | `Mhamt -> Kvstore.Store.create (Kvstore.Store.of_mhamt (Pstructs.Mhamt.recover esys2 payloads))
    | `Mhashmap ->
        Kvstore.Store.create (Kvstore.Store.of_mhashmap (Pstructs.Mhashmap.recover esys2 payloads))
  in
  let missing = ref 0 in
  for i = 0 to dur - 1 do
    match Kvstore.Store.get store2 ~tid:0 (Printf.sprintf "dur%02d" i) with
    | Some v when v = Printf.sprintf "v%03d" i -> ()
    | _ -> incr missing
  done;
  check "every acked key recovered after crash" (!missing = 0);
  E.stop_background esys2;
  match !failures with
  | [] ->
      Printf.printf "netsmoke: all checks passed\n";
      `Ok ()
  | fs -> `Error (false, Printf.sprintf "netsmoke failed: %s" (String.concat "; " (List.rev fs)))

(* ---- shard ---- *)

let shard backend host port workers capacity_mib heap_file seconds drain_timeout_s =
  match Cluster.Shard.backend_of_string backend with
  | None -> `Error (false, "backend must be montage|mhamt|transient")
  | Some backend -> (
      let cfg =
        {
          Cluster.Shard.backend;
          host;
          port;
          workers;
          capacity_mib;
          heap_file;
          seconds;
          drain_timeout_s;
        }
      in
      match
        Cluster.Shard.run
          ~on_ready:(fun ~port ->
            Printf.printf "shard: %s backend on %s:%d (heap %s)\n%!"
              (Cluster.Shard.backend_name backend) host port
              (if heap_file = "" then "none" else heap_file))
          cfg
      with
      | Ok () -> `Ok ()
      | Error e -> `Error (false, e))

(* ---- cluster ---- *)

let status_name = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stop %d" n

let report_exit prog name st =
  Printf.printf "%s: %s exited (%s), restarting\n%!" prog name (status_name st)

(* Shard children are fresh execs of this binary, running its [shard]
   subcommand. *)
let cluster backend host port shards shard_port_base workers capacity_mib heap_dir seconds =
  match Cluster.Shard.backend_of_string backend with
  | None -> `Error (false, "backend must be montage|mhamt|transient")
  | Some backend ->
      if shards < 1 then `Error (false, "shards must be >= 1")
      else
        let template =
          { Cluster.Shard.default_config with backend; host; workers; capacity_mib }
        in
        (* caught before the first spawn, so a signal during startup
           still ends through [with_]'s teardown *)
        catch_stop ();
        Cluster.Local.with_ ~exe:Sys.executable_name ~port_base:shard_port_base
          ~heap:(Dir heap_dir)
          ~router:{ Cluster.Router.default_config with host; port }
          ~on_exit:(report_exit "cluster") ~shards template
          (fun c ->
            let r = Cluster.Local.router c in
            Printf.printf "cluster: router on %s:%d fronting %d shard(s) on ports %d-%d\n%!" host
              (Cluster.Router.port r) shards shard_port_base
              (shard_port_base + shards - 1);
            if Cluster.Local.wait_up ~stop:(fun () -> Atomic.get stop) c then
              Printf.printf "cluster: all %d shard(s) up\n%!" shards
            else if not (Atomic.get stop) then
              Printf.printf "cluster: WARNING: not all shards up after 30s: %s\n%!"
                (String.concat ", "
                   (List.map
                      (fun (sid, up) -> Printf.sprintf "%d:%s" sid (if up then "up" else "down"))
                      (Cluster.Router.shard_states r)));
            until_signal ~seconds (fun () -> Cluster.Local.tick c);
            let s = Cluster.Router.stats r in
            Printf.printf
              "cluster: %d client(s), %d request(s), %d shard-down error(s), %d down(s), %d \
               rejoin(s)\n"
              s.clients_accepted s.requests s.shard_down_errors s.downs s.rejoins;
            `Ok ())

(* ---- clustersmoke ---- *)

(* Kill/recover/rejoin scenario, end to end over real processes:
   3 supervised montage shards with heap files + an in-process router;
   open-loop load at the router; SIGTERM one shard mid-run; assert
   (a) the load generator never loses a request — every send is
   answered, the only errors are [SERVER_ERROR shard down] for the
   victim's keyspace while it is away — and (b) every key acked by the
   victim before the kill is served again after its restart recovers
   the heap image and the ring reconverges to 3/3 Up. *)
let clustersmoke seconds rate =
  let failures = ref [] in
  let check name ok =
    Printf.printf "  [%s] %s\n%!" (if ok then "ok" else "FAIL") name;
    if not ok then failures := name :: !failures
  in
  let shards = 3 and victim = 1 in
  let template =
    { Cluster.Shard.default_config with workers = 2; drain_timeout_s = 0.5 }
  in
  let router =
    {
      Cluster.Router.default_config with
      host = "127.0.0.1";
      port = 0;
      tick_s = 0.01;
      probe_interval_s = 0.05;
    }
  in
  Cluster.Local.with_ ~exe:Sys.executable_name ~heap:Temp_dir ~router
    ~on_exit:(report_exit "clustersmoke") ~shards template
    (fun c ->
      check "initial ring convergence (3/3 up)" (Cluster.Local.wait_up c);
      let r = Cluster.Local.router c in
      let rport = Cluster.Router.port r in
      Printf.printf "clustersmoke: router on :%d\n%!" rport;
      (* --- phase 1: ack a batch of keys owned by the victim shard --- *)
      let victim_keys =
        Cluster.Ring.keys_on (Cluster.Local.ring c) victim ~prefix:"acked-" 40
      in
      let fd = Client.connect rport in
      let out = Buffer.create 4096 in
      List.iter
        (fun k ->
          let v = "durable-" ^ k in
          Buffer.add_string out
            (Printf.sprintf "set %s 0 0 %d\r\n%s\r\n" k (String.length v) v))
        victim_keys;
      Client.send fd (Buffer.contents out);
      let acks = Client.recv_exact fd (8 * List.length victim_keys) in
      check "victim-owned keys acked before the kill"
        (acks = String.concat "" (List.map (fun _ -> "STORED\r\n") victim_keys));
      (* --- phase 2: open-loop load; SIGTERM the victim mid-run --- *)
      let lg =
        {
          Netserve.Loadgen.default_config with
          port = rport;
          conns = 12;
          domains = 2;
          duration_s = seconds;
          value_size = 64;
          keyspace = 3000;
          get_frac = 0.8;
          key_prefix = "cs";
        }
      in
      Netserve.Loadgen.preload ~config:lg ();
      let lg_done = Atomic.make false in
      let lg_dom =
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set lg_done true)
              (fun () -> Netserve.Loadgen.run_open ~config:lg ~grace_s:5.0 ~rate ()))
      in
      let kill_at = Netserve.Poller.mono_s () +. (seconds *. 0.25) in
      let killed = ref false in
      let pace () =
        Cluster.Local.tick c;
        Unix.sleepf 0.02
        [@montage.allow
          "R5: smoke-test driver thread pacing supervision ticks around \
           the kill and the restart; client tooling, not server or structure code"]
      in
      while not (Atomic.get lg_done) do
        if (not !killed) && Netserve.Poller.mono_s () >= kill_at then begin
          Printf.printf "clustersmoke: SIGTERM shard-%d (graceful drain + heap image)\n%!"
            victim;
          Cluster.Local.signal c victim;
          killed := true
        end;
        pace ()
      done;
      let rep = Domain.join lg_dom in
      Netserve.Loadgen.print_open_report ~label:"clustersmoke" rep;
      (* the availability contract: every request answered; the only
         errors are shard-down for the victim's keyspace *)
      check "no request abandoned during the outage" (rep.abandoned = 0);
      check "no loadgen disconnect (router stayed up)" (rep.o_disconnects = []);
      check "no errors beyond SERVER_ERROR shard down" (rep.o_errors = 0);
      check "load made progress" (rep.completed > 0);
      check "victim was killed mid-run" !killed;
      (* --- phase 3: restart recovers, ring reconverges, keys live --- *)
      (* the victim's graceful exit (drain + sync + image write) may
         outlast the load window; keep ticking until it is reaped *)
      let restart_deadline = Netserve.Poller.mono_s () +. 30.0 in
      while
        Cluster.Local.restarts c victim < 1
        && Netserve.Poller.mono_s () < restart_deadline
      do
        pace ()
      done;
      check "supervisor restarted the victim" (Cluster.Local.restarts c victim >= 1);
      check "ring reconverged (3/3 up)" (Cluster.Local.wait_up c);
      let s = Cluster.Router.stats r in
      check "router observed the down" (s.downs >= 1);
      check "router observed the rejoin" (s.rejoins >= shards + 1);
      let recovered =
        List.for_all
          (fun k ->
            let v = "durable-" ^ k in
            Client.send fd (Printf.sprintf "get %s\r\n" k);
            Client.recv_unit fd
            = Printf.sprintf "VALUE %s 0 %d\r\n%s\r\nEND\r\n" k (String.length v) v)
          victim_keys
      in
      check "every acked key recovered after the restart" recovered;
      Client.send fd "quit\r\n";
      try Unix.close fd with Unix.Unix_error _ -> ());
  match !failures with
  | [] ->
      Printf.printf "clustersmoke: all checks passed\n";
      `Ok ()
  | fs ->
      `Error (false, Printf.sprintf "clustersmoke failed: %s" (String.concat "; " (List.rev fs)))

(* ---- command wiring ---- *)

let demo_cmd =
  let items = Arg.(value & opt int 1000 & info [ "items" ] ~doc:"Items to insert before the crash.") in
  Cmd.v (Cmd.info "demo" ~doc:"Insert, sync, crash, recover; verify the prefix.")
    Term.(ret (const demo $ items))

let workload_cmd =
  let structure =
    Arg.(value & pos 0 string "map" & info [] ~docv:"STRUCTURE" ~doc:"map|queue|stack|nb-stack|nb-queue")
  in
  let threads = Arg.(value & opt int 1 & info [ "threads"; "t" ] ~doc:"Worker threads.") in
  let seconds = Arg.(value & opt float 1.0 & info [ "seconds"; "d" ] ~doc:"Duration.") in
  let value_size = Arg.(value & opt int 256 & info [ "value-size" ] ~doc:"Value size in bytes.") in
  Cmd.v (Cmd.info "workload" ~doc:"Timed workload against a Montage structure.")
    Term.(ret (const workload $ structure $ threads $ seconds $ value_size))

let torture_cmd =
  let rounds = Arg.(value & opt int 20 & info [ "rounds" ] ~doc:"Crash/recovery rounds.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v (Cmd.info "torture" ~doc:"Randomized crash-consistency check.")
    Term.(ret (const torture $ rounds $ seed))

let host_arg = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Bind/connect address.")

let serve_cmd =
  let backend =
    Arg.(value & pos 0 string "montage" & info [] ~docv:"BACKEND" ~doc:"montage|mhamt|transient")
  in
  let port = Arg.(value & opt int 11211 & info [ "port"; "p" ] ~doc:"TCP port (0 = ephemeral).") in
  let workers = Arg.(value & opt int 2 & info [ "workers"; "w" ] ~doc:"Event-loop domains.") in
  let seconds =
    Arg.(value & opt float 0.0 & info [ "seconds"; "d" ] ~doc:"Run time; 0 = until SIGINT/SIGTERM.")
  in
  let capacity = Arg.(value & opt int 256 & info [ "capacity-mib" ] ~doc:"NVM region size (MiB).") in
  Cmd.v (Cmd.info "serve" ~doc:"Serve the memcached text protocol over the KV store.")
    Term.(ret (const serve $ backend $ host_arg $ port $ workers $ seconds $ capacity))

let loadgen_cmd =
  let port = Arg.(value & opt int 11211 & info [ "port"; "p" ] ~doc:"Server port.") in
  let conns = Arg.(value & opt int 8 & info [ "conns"; "c" ] ~doc:"Total connections.") in
  let domains = Arg.(value & opt int 2 & info [ "domains" ] ~doc:"Generator domains.") in
  let seconds = Arg.(value & opt float 2.0 & info [ "seconds"; "d" ] ~doc:"Duration.") in
  let pipeline = Arg.(value & opt int 8 & info [ "pipeline" ] ~doc:"Commands per batch.") in
  let value_size = Arg.(value & opt int 64 & info [ "value-size" ] ~doc:"Value size in bytes.") in
  let keyspace = Arg.(value & opt int 10_000 & info [ "keys" ] ~doc:"Keyspace size.") in
  let get_frac = Arg.(value & opt float 0.9 & info [ "get-frac" ] ~doc:"Fraction of gets.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let no_preload = Arg.(value & flag & info [ "no-preload" ] ~doc:"Skip keyspace preload.") in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~doc:"Open-loop offered load in ops/s (0 = closed loop).")
  in
  let arrival =
    Arg.(
      value & opt string "poisson"
      & info [ "arrival" ] ~doc:"Open-loop interarrival distribution: poisson|uniform.")
  in
  let grace =
    Arg.(
      value & opt float 1.0
      & info [ "grace" ] ~doc:"Open-loop drain grace period in seconds after the schedule ends.")
  in
  let endpoints =
    Arg.(
      value & opt string ""
      & info [ "endpoints" ]
          ~doc:
            "Comma-separated host:port list to spread connections over \
             (e.g. shard addresses), overriding --host/--port; the report \
             breaks ops/errors/abandons down per endpoint.")
  in
  Cmd.v (Cmd.info "loadgen" ~doc:"Memcached load generator (closed loop, or open loop with --rate).")
    Term.(
      ret
        (const loadgen $ host_arg $ port $ conns $ domains $ seconds $ pipeline $ value_size
       $ keyspace $ get_frac $ seed $ no_preload $ rate $ arrival $ grace $ endpoints))

let c10k_cmd =
  let backend =
    Arg.(value & pos 0 string "montage" & info [] ~docv:"BACKEND" ~doc:"montage|mhamt|transient")
  in
  let conns = Arg.(value & opt int 10_000 & info [ "conns"; "c" ] ~doc:"Idle connection census size.") in
  let workers = Arg.(value & opt int 2 & info [ "workers"; "w" ] ~doc:"Event-loop domains.") in
  let seconds = Arg.(value & opt float 2.0 & info [ "seconds"; "d" ] ~doc:"Busy-burst duration.") in
  let active = Arg.(value & opt int 32 & info [ "active" ] ~doc:"Busy connections for the burst.") in
  let value_size = Arg.(value & opt int 64 & info [ "value-size" ] ~doc:"Value size in bytes.") in
  let capacity = Arg.(value & opt int 256 & info [ "capacity-mib" ] ~doc:"NVM region size (MiB).") in
  let target_port =
    Arg.(
      value & opt int 0
      & info [ "port"; "p" ]
          ~doc:
            "Drive an already-running server on this port instead of starting one in-process \
             (one fd per connection, so the census can exceed half the fd limit).")
  in
  Cmd.v
    (Cmd.info "c10k"
       ~doc:"In-process C10K scenario: N idle connections + a busy burst; verify every idle \
             connection is still served.")
    Term.(
      ret
        (const c10k $ backend $ conns $ workers $ seconds $ active $ value_size $ capacity
       $ target_port))

let stallbench_cmd =
  let stall_ms =
    Arg.(value & opt int 200 & info [ "stall-ms" ] ~doc:"How long the worker parks in its flush.")
  in
  let warmup =
    Arg.(value & opt int 100 & info [ "warmup-ops" ] ~doc:"Operations before the stalled one.")
  in
  Cmd.v
    (Cmd.info "stallbench"
       ~doc:"Sync latency past a worker parked in its flush; fails if the sync waited (CI).")
    Term.(ret (const stallbench $ stall_ms $ warmup))

let netsmoke_cmd =
  let backend =
    Arg.(
      value
      & pos 0 (enum [ ("montage", `Mhashmap); ("mhamt", `Mhamt) ]) `Mhashmap
      & info [] ~docv:"BACKEND" ~doc:"montage|mhamt")
  in
  Cmd.v (Cmd.info "netsmoke" ~doc:"In-process server smoke test (CI).")
    Term.(ret (const netsmoke $ backend))

let shard_cmd =
  let backend =
    Arg.(value & pos 0 string "montage" & info [] ~docv:"BACKEND" ~doc:"montage|mhamt|transient")
  in
  let port = Arg.(value & opt int 11411 & info [ "port"; "p" ] ~doc:"TCP port (0 = ephemeral).") in
  let workers = Arg.(value & opt int 2 & info [ "workers"; "w" ] ~doc:"Event-loop domains.") in
  let capacity = Arg.(value & opt int 256 & info [ "capacity-mib" ] ~doc:"NVM region size (MiB).") in
  let heap_file =
    Arg.(
      value & opt string ""
      & info [ "heap-file" ]
          ~doc:
            "Heap image path: loaded (and recovered from) at startup if present, written \
             atomically at graceful shutdown.  Empty = no durability across restarts.")
  in
  let seconds =
    Arg.(value & opt float 0.0 & info [ "seconds"; "d" ] ~doc:"Run time; 0 = until SIGINT/SIGTERM.")
  in
  let drain_timeout =
    Arg.(
      value & opt float 1.0
      & info [ "drain-timeout" ]
          ~doc:
            "Shutdown drain bound in seconds.  A router's upstream connection never disconnects \
             on its own, so a shard's drain always runs to this deadline; in-flight requests \
             are answered first.")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:"One cluster shard: netserve over its own Montage region, with a heap file for \
             durability across restarts.")
    Term.(
      ret
        (const shard $ backend $ host_arg $ port $ workers $ capacity $ heap_file $ seconds
       $ drain_timeout))

let cluster_cmd =
  let backend =
    Arg.(value & pos 0 string "montage" & info [] ~docv:"BACKEND" ~doc:"montage|mhamt|transient")
  in
  let port = Arg.(value & opt int 11311 & info [ "port"; "p" ] ~doc:"Router TCP port.") in
  let shards = Arg.(value & opt int 3 & info [ "shards"; "n" ] ~doc:"Number of shard processes.") in
  let base =
    Arg.(value & opt int 11411 & info [ "shard-port-base" ] ~doc:"Shard i listens on base + i.")
  in
  let workers = Arg.(value & opt int 2 & info [ "workers"; "w" ] ~doc:"Event-loop domains per shard.") in
  let capacity =
    Arg.(value & opt int 256 & info [ "capacity-mib" ] ~doc:"NVM region size per shard (MiB).")
  in
  let heap_dir =
    Arg.(
      value & opt string "cluster-data"
      & info [ "heap-dir" ] ~doc:"Directory for per-shard heap images (created if missing).")
  in
  let seconds =
    Arg.(value & opt float 0.0 & info [ "seconds"; "d" ] ~doc:"Run time; 0 = until SIGINT/SIGTERM.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Run a consistent-hashing router fronting N supervised shard processes \
             (restart-on-exit).")
    Term.(
      ret
        (const cluster $ backend $ host_arg $ port $ shards $ base $ workers $ capacity
       $ heap_dir $ seconds))

let clustersmoke_cmd =
  let seconds =
    Arg.(value & opt float 4.0 & info [ "seconds"; "d" ] ~doc:"Open-loop schedule length.")
  in
  let rate = Arg.(value & opt float 2000.0 & info [ "rate" ] ~doc:"Open-loop offered load (ops/s).") in
  Cmd.v
    (Cmd.info "clustersmoke"
       ~doc:"Kill/recover/rejoin scenario: 3 shards under open-loop load, SIGTERM one \
             mid-run, assert availability and durability (CI).")
    Term.(ret (const clustersmoke $ seconds $ rate))

let () =
  let doc = "Montage buffered-persistence playground" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "montage_cli" ~doc)
          [
            demo_cmd;
            workload_cmd;
            torture_cmd;
            serve_cmd;
            loadgen_cmd;
            c10k_cmd;
            stallbench_cmd;
            netsmoke_cmd;
            shard_cmd;
            cluster_cmd;
            clustersmoke_cmd;
          ]))
