(* Memcached-protocol load generator: closed-loop and open-loop, one
   driver.

   Each of [domains] generator domains owns [conns / domains]
   nonblocking connections on a {!Conn_core} loop and paces requests
   (mixed get/set per [get_frac]) in one of two ways:

   - closed loop ([run]): arrival on completion.  Each connection keeps
     one batch of [pipeline] requests in flight and sends the next the
     moment the last reply of the previous one arrives; every request
     of a batch is charged the batch round trip divided by [pipeline].
     Latency is honest service time including the server's
     batched-flush cycle — but the offered load collapses whenever the
     server slows down, which hides overload.
   - open loop ([run_open]): requests arrive on a fixed schedule
     (Poisson or uniform interarrivals at [rate] ops/s) regardless of
     how fast the server answers.  Latency is measured from the
     {e scheduled} arrival time, not the moment the socket write
     happened, so queueing delay the server imposes on a backed-up
     connection is charged to the request — the standard fix for
     coordinated omission.  Under overload the inflight population
     grows and the tail explodes, which is exactly the signal a closed
     loop cannot produce.

   Reply framing is {!Kvstore.Protocol.Client}'s reply-unit decoder —
   the same framer the cluster router's upstream connections use.
   Counting units against requests issued keeps the driver in lockstep
   without parsing every verb's reply shape.

   Endpoints: [endpoints] spreads connections round-robin over a list
   of addresses (one router, several routers, or raw shards), with
   per-endpoint completion/error/abandon accounting so a cluster
   scenario can tell a refused or dropped connection (the endpoint
   itself failing) from a [SERVER_ERROR shard down] reply (the
   endpoint up, a shard behind it down). *)

module C = Kvstore.Protocol.Client

type config = {
  host : string;
  port : int;
  endpoints : (string * int) list;  (* [] = [(host, port)] *)
  conns : int;
  domains : int;
  duration_s : float;
  pipeline : int;
  value_size : int;
  keyspace : int;
  get_frac : float;
  seed : int;
  key_prefix : string;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 11211;
    endpoints = [];
    conns = 8;
    domains = 2;
    duration_s = 2.0;
    pipeline = 8;
    value_size = 64;
    keyspace = 10_000;
    get_frac = 0.9;
    seed = 42;
    key_prefix = "lg";
  }

let resolved_endpoints cfg =
  match cfg.endpoints with [] -> [ (cfg.host, cfg.port) ] | l -> l

type endpoint_stats = {
  ep_host : string;
  ep_port : int;
  ep_ops : int;  (* completed reply units *)
  ep_errors : int;  (* error replies other than shard-down *)
  ep_shard_down : int;  (* SERVER_ERROR shard down replies *)
  ep_abandoned : int;  (* open loop: sent, never answered *)
  ep_disconnects : int;
}

type report = {
  ops : int;
  errors : int;
  shard_down_errors : int;
  hits : int;
  seconds : float;
  ops_per_sec : float;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  disconnects : string list;
  by_endpoint : endpoint_stats list;
}

exception Connection_lost of string

type arrival = Poisson | Uniform

type open_report = {
  offered_rate : float;
  achieved_rate : float;  (** completions / scheduling window *)
  sent : int;
  completed : int;
  abandoned : int;  (** sent but unanswered when the grace period expired *)
  o_errors : int;
  o_shard_down_errors : int;
  o_hits : int;
  o_seconds : float;  (** wall time including the drain grace period *)
  o_mean_us : float;
  o_p50_us : float;
  o_p95_us : float;
  o_p99_us : float;
  o_disconnects : string list;
  o_by_endpoint : endpoint_stats list;
}

(* ---------- the driver ---------- *)

(* does [buf[pos, stop)] contain "shard down"?  (router's Down marker;
   cheap because it only runs on SERVER_ERROR units) *)
let unit_is_shard_down buf pos stop =
  let needle = "shard down" in
  let nn = String.length needle in
  let rec scan i = i + nn <= stop && (Bytes.sub_string buf i nn = needle || scan (i + 1)) in
  scan pos

(* [Batch n]: the closed loop, a new batch of up to [n] requests the
   moment a connection's previous batch completes.  [Schedule gap]:
   the open loop, the next arrival [gap ()] seconds after the last. *)
type pacing = Batch of int | Schedule of (unit -> float)

(* One connection's request FIFO: scheduled arrival times. *)
type lconn = {
  ep : int;  (* index into the resolved endpoint list *)
  dec : C.decoder;
  inflight : float Queue.t;
  mutable batch : int; [@montage.thread_local]  (* requests in the current closed-loop batch *)
}

(* One driver's totals; per-endpoint arrays are indexed like the
   resolved endpoint list. *)
type tally = {
  mutable sent : int; [@montage.thread_local]
  mutable completed : int; [@montage.thread_local]
  mutable errors : int; [@montage.thread_local]
  mutable shard_down : int; [@montage.thread_local]
  mutable hits : int; [@montage.thread_local]
  mutable lost : string list; [@montage.thread_local]  (* newest first, one per lost connection *)
  hist : Util.Histogram.t;
  ep_ops : int array;
  ep_errors : int array;
  ep_shard_down : int array;
  ep_abandoned : int array;
  ep_disconnects : int array;
}

let bump a i n = a.(i) <- a.(i) + n

(* Drive connections to [eps.(conn_eps.(i))] with requests from [next]
   ([None]: the source is exhausted) for [duration_s], then wait up to
   [grace_s] for the replies still owed. *)
let drive ~eps ~conn_eps ~pacing ~next ~duration_s ~grace_s =
  let neps = Array.length eps in
  let zeros () = Array.make neps 0 in
  let tl =
    {
      sent = 0;
      completed = 0;
      errors = 0;
      shard_down = 0;
      hits = 0;
      lost = [];
      hist = Util.Histogram.create ();
      ep_ops = zeros ();
      ep_errors = zeros ();
      ep_shard_down = zeros ();
      ep_abandoned = zeros ();
      ep_disconnects = zeros ();
    }
  in
  let t_end = ref infinity and exhausted = ref false in
  let send_one c t_sched =
    match next () with
    | None ->
        exhausted := true;
        false
    | Some cmd ->
        Conn_core.send c cmd;
        Queue.push t_sched (Conn_core.data c).inflight;
        tl.sent <- tl.sent + 1;
        true
  in
  let send_batch c n now =
    let l = Conn_core.data c in
    l.batch <- 0;
    while l.batch < n && send_one c now do
      l.batch <- l.batch + 1
    done
  in
  let settle c (r : C.unit_result) ~shard_down now =
    let l = Conn_core.data c in
    (match Queue.take_opt l.inflight with
    | None -> ()
    | Some t_sched -> (
        tl.completed <- tl.completed + 1;
        bump tl.ep_ops l.ep 1;
        match pacing with
        | Schedule _ ->
            (* from the scheduled arrival, not the socket write:
               queueing delay is part of the request's experience *)
            Util.Histogram.record tl.hist (int_of_float ((now -. t_sched) *. 1e9))
        | Batch n ->
            if Queue.is_empty l.inflight then begin
              let per_op_ns = int_of_float ((now -. t_sched) *. 1e9 /. float_of_int l.batch) in
              for _ = 1 to l.batch do
                Util.Histogram.record tl.hist per_op_ns
              done;
              if now < !t_end && not !exhausted then send_batch c n now
            end));
    if shard_down then begin
      tl.shard_down <- tl.shard_down + 1;
      bump tl.ep_shard_down l.ep 1
    end
    else if C.is_err r then begin
      tl.errors <- tl.errors + 1;
      bump tl.ep_errors l.ep 1
    end;
    tl.hits <- tl.hits + r.C.hits
  in
  let input c =
    let l = Conn_core.data c and inb = Conn_core.inbuf c in
    let now = Poller.mono_s () in
    let continue = ref true in
    while !continue do
      match C.next_unit l.dec inb.bytes ~pos:inb.pos ~len:(Conn_core.pending inb) with
      | Some (endp, r) ->
          let sd = r.C.cls = C.U_server_error && unit_is_shard_down inb.bytes inb.pos endp in
          Conn_core.consume inb (endp - inb.pos);
          settle c r ~shard_down:sd now
      | None -> continue := false
    done
  in
  let closed c why =
    (* whatever was still awaiting an answer is lost with the socket *)
    let l = Conn_core.data c in
    bump tl.ep_abandoned l.ep (Queue.length l.inflight);
    Queue.clear l.inflight;
    bump tl.ep_disconnects l.ep 1;
    tl.lost <- why :: tl.lost
  in
  let core =
    Conn_core.create ~name:"loadgen"
      { input; paused = (fun _ -> false); finished = Conn_core.at_eof; connected = ignore; closed }
  in
  let conns =
    Array.map
      (fun ep ->
        let l = { ep; dec = C.decoder (); inflight = Queue.create (); batch = 0 } in
        match Conn_core.add core (Client.connect ~host:(fst eps.(ep)) (snd eps.(ep))) l with
        | Ok c -> c
        | Error why -> raise (Connection_lost why))
      conn_eps
  in
  let t0 = Poller.mono_s () in
  t_end := t0 +. duration_s;
  let next_arrival = ref t0 and rr = ref 0 in
  (match pacing with
  | Batch n -> Array.iter (fun c -> send_batch c n t0) conns
  | Schedule gap -> next_arrival := t0 +. gap ());
  let drain_at = ref infinity and running = ref true in
  while !running do
    let now = Poller.mono_s () in
    let timeout_s =
      match pacing with
      | Schedule gap when now < !t_end ->
          (* every due arrival goes out, even when behind: an open loop
             does not slow down because the server did *)
          while !next_arrival <= now do
            let c = conns.(!rr mod Array.length conns) in
            incr rr;
            if Conn_core.alive c then ignore (send_one c !next_arrival);
            next_arrival := !next_arrival +. gap ()
          done;
          Float.max 0.0 (Float.min 0.05 (Float.min !next_arrival !t_end -. now))
      | _ -> 0.05
    in
    Conn_core.step core ~timeout_s;
    let now = Poller.mono_s () in
    let idle c = (not (Conn_core.alive c)) || Queue.is_empty (Conn_core.data c).inflight in
    if now >= !t_end || !exhausted then begin
      if !drain_at = infinity then drain_at := now +. grace_s;
      if Array.for_all idle conns || now >= !drain_at then running := false
    end
    else if not (Array.exists Conn_core.alive conns) then running := false
  done;
  (* the drain grace expired with these still unanswered *)
  Array.iter
    (fun c ->
      if Conn_core.alive c then
        let l = Conn_core.data c in
        bump tl.ep_abandoned l.ep (Queue.length l.inflight))
    conns;
  ignore (Conn_core.shutdown core);
  tl

(* Run [domains] drivers over [conns] connections of mixed get/set
   traffic and collect their tallies. *)
let drive_domains cfg ~pacing ~grace_s =
  let eps = Array.of_list (resolved_endpoints cfg) in
  let ndomains = max 1 cfg.domains in
  let nconns = max 1 (cfg.conns / ndomains) in
  let value = String.make cfg.value_size 'v' in
  let doms =
    Array.init ndomains (fun did ->
        Domain.spawn (fun () ->
            let rng = Util.Xoshiro.create (cfg.seed + (did * 7919) + 1) in
            let key () = Printf.sprintf "%s%06d" cfg.key_prefix (Util.Xoshiro.int rng cfg.keyspace) in
            let next () =
              Some
                (if Util.Xoshiro.float rng < cfg.get_frac then Printf.sprintf "get %s\r\n" (key ())
                 else Printf.sprintf "set %s 0 0 %d\r\n%s\r\n" (key ()) cfg.value_size value)
            in
            (* global round-robin so each endpoint gets its share even
               when a domain owns fewer connections than there are
               endpoints *)
            let conn_eps = Array.init nconns (fun i -> ((did * nconns) + i) mod Array.length eps) in
            drive ~eps ~conn_eps ~pacing:(pacing rng ndomains) ~next ~duration_s:cfg.duration_s
              ~grace_s))
  in
  Array.map Domain.join doms

let us hist q = float_of_int (Util.Histogram.quantile_ns hist q) /. 1e3

let merged_hist results =
  let hist = Util.Histogram.create () in
  Array.iter (fun r -> Util.Histogram.merge_into ~dst:hist r.hist) results;
  hist

let sum results f = Array.fold_left (fun a r -> a + f r) 0 results

(* Sum the per-driver per-endpoint arrays and zip with the addresses. *)
let by_endpoint cfg results =
  let col f i = sum results (fun r -> (f r).(i)) in
  List.mapi
    (fun i (h, p) ->
      {
        ep_host = h;
        ep_port = p;
        ep_ops = col (fun r -> r.ep_ops) i;
        ep_errors = col (fun r -> r.ep_errors) i;
        ep_shard_down = col (fun r -> r.ep_shard_down) i;
        ep_abandoned = col (fun r -> r.ep_abandoned) i;
        ep_disconnects = col (fun r -> r.ep_disconnects) i;
      })
    (resolved_endpoints cfg)

(* ---------- closed loop ---------- *)

let run ?(config = default_config) () =
  let cfg = config in
  let t0 = Poller.mono_s () in
  let results = drive_domains cfg ~pacing:(fun _ _ -> Batch (max 1 cfg.pipeline)) ~grace_s:1.0 in
  let seconds = Poller.mono_s () -. t0 in
  let hist = merged_hist results in
  let ops = sum results (fun r -> r.completed) in
  {
    ops;
    errors = sum results (fun r -> r.errors);
    shard_down_errors = sum results (fun r -> r.shard_down);
    hits = sum results (fun r -> r.hits);
    seconds;
    ops_per_sec = float_of_int ops /. seconds;
    mean_us = Util.Histogram.mean_ns hist /. 1e3;
    p50_us = us hist 0.5;
    p95_us = us hist 0.95;
    p99_us = us hist 0.99;
    (* one entry per domain: its first lost connection *)
    disconnects =
      Array.to_list results
      |> List.filter_map (fun r -> match List.rev r.lost with why :: _ -> Some why | [] -> None);
    by_endpoint = by_endpoint cfg results;
  }

(* Pre-populate the keyspace so a read-heavy run measures hits, not
   misses: one connection, pipelined in batches of 256. *)
let preload ?(config = default_config) () =
  let cfg = config in
  let value = String.make cfg.value_size 'v' in
  let k = ref 0 in
  let next () =
    if !k >= cfg.keyspace then None
    else begin
      incr k;
      Some (Printf.sprintf "set %s%06d 0 0 %d\r\n%s\r\n" cfg.key_prefix (!k - 1) cfg.value_size value)
    end
  in
  (* first endpoint is enough: a router fans the keys out by ownership,
     and a single server IS the first endpoint *)
  let r =
    drive
      ~eps:[| List.hd (resolved_endpoints cfg) |]
      ~conn_eps:[| 0 |] ~pacing:(Batch 256) ~next ~duration_s:infinity ~grace_s:30.0
  in
  match r.lost with
  | why :: _ -> raise (Connection_lost why)
  | [] -> if r.completed < r.sent then raise (Connection_lost "preload replies timed out")

let print_endpoint_stats by_endpoint =
  if List.length by_endpoint > 1 then
    Benchlib.Report.table
      ~columns:[ "ops"; "errors"; "shard_down"; "abandoned"; "disconnects" ]
      ~rows:
        (List.map
           (fun e ->
             ( Printf.sprintf "%s:%d" e.ep_host e.ep_port,
               [
                 float_of_int e.ep_ops;
                 float_of_int e.ep_errors;
                 float_of_int e.ep_shard_down;
                 float_of_int e.ep_abandoned;
                 float_of_int e.ep_disconnects;
               ] ))
           by_endpoint)
      ~unit_label:"per-endpoint" ()

let print_report ~label r =
  Benchlib.Report.heading (Printf.sprintf "loadgen: %s" label);
  Benchlib.Report.table
    ~columns:
      [ "ops"; "ops/s"; "errors"; "shard_down"; "hits"; "mean_us"; "p50_us"; "p95_us"; "p99_us" ]
    ~rows:
      [
        ( label,
          [
            float_of_int r.ops;
            r.ops_per_sec;
            float_of_int r.errors;
            float_of_int r.shard_down_errors;
            float_of_int r.hits;
            r.mean_us;
            r.p50_us;
            r.p95_us;
            r.p99_us;
          ] );
      ]
    ~unit_label:"closed-loop" ();
  print_endpoint_stats r.by_endpoint;
  List.iter
    (fun why ->
      Printf.printf "loadgen: %s: generator domain lost its connection: %s\n"
        label why)
    r.disconnects

(* ---------- open loop ---------- *)

let run_open ?(config = default_config) ?(arrival = Poisson) ?(grace_s = 1.0) ~rate () =
  let cfg = config in
  if rate <= 0.0 then invalid_arg "Loadgen.run_open: rate must be positive";
  let pacing rng ndomains =
    let rate_d = rate /. float_of_int ndomains in
    Schedule
      (match arrival with
      | Uniform -> fun () -> 1.0 /. rate_d
      | Poisson -> fun () -> -.Float.log (1.0 -. Util.Xoshiro.float rng) /. rate_d)
  in
  let t0 = Poller.mono_s () in
  let results = drive_domains cfg ~pacing ~grace_s in
  let seconds = Poller.mono_s () -. t0 in
  let hist = merged_hist results in
  let sent = sum results (fun r -> r.sent) in
  let completed = sum results (fun r -> r.completed) in
  {
    offered_rate = rate;
    achieved_rate = float_of_int completed /. cfg.duration_s;
    sent;
    completed;
    abandoned = sent - completed;
    o_errors = sum results (fun r -> r.errors);
    o_shard_down_errors = sum results (fun r -> r.shard_down);
    o_hits = sum results (fun r -> r.hits);
    o_seconds = seconds;
    o_mean_us = Util.Histogram.mean_ns hist /. 1e3;
    o_p50_us = us hist 0.5;
    o_p95_us = us hist 0.95;
    o_p99_us = us hist 0.99;
    o_disconnects = List.concat_map (fun r -> List.rev r.lost) (Array.to_list results);
    o_by_endpoint = by_endpoint cfg results;
  }

let arrival_of_string = function
  | "poisson" -> Some Poisson
  | "uniform" -> Some Uniform
  | _ -> None

let print_open_report ~label r =
  Benchlib.Report.heading (Printf.sprintf "loadgen open-loop: %s" label);
  Benchlib.Report.table
    ~columns:
      [
        "offered/s"; "achieved/s"; "sent"; "done"; "abandoned"; "errors"; "shard_down";
        "mean_us"; "p50_us"; "p95_us"; "p99_us";
      ]
    ~rows:
      [
        ( label,
          [
            r.offered_rate;
            r.achieved_rate;
            float_of_int r.sent;
            float_of_int r.completed;
            float_of_int r.abandoned;
            float_of_int r.o_errors;
            float_of_int r.o_shard_down_errors;
            r.o_mean_us;
            r.o_p50_us;
            r.o_p95_us;
            r.o_p99_us;
          ] );
      ]
    ~unit_label:"open-loop" ();
  print_endpoint_stats r.o_by_endpoint;
  List.iter
    (fun why ->
      Printf.printf "loadgen: %s: open-loop connection lost: %s\n" label why)
    r.o_disconnects
