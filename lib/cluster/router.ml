(* The cluster router: one domain bridging memcached-text clients to N
   shard upstreams through a consistent-hash ring.

   Clients and shard upstreams are connections of one
   {!Netserve.Conn_core} loop.  A client's bytes are split into requests
   by {!Kvstore.Protocol.frames} — the framer every shard executes
   with — so the router and its shards agree on request boundaries,
   malformed input and which requests expect a reply.  Requests the
   framer settles itself (malformed, oversized, unknown) are answered
   here with the shard's exact reply; the rest are forwarded verbatim
   (the raw frame bytes) to the owning shard.  Reply bookkeeping is two
   nested FIFOs:

   - per client, a queue of reply slots, one per request that expects
     a reply, released strictly in request order;
   - per upstream, a queue of (slot, part) expectations matched
     against decoded reply units ({!Kvstore.Protocol.Client}) in send
     order.

   A slot completes when all its parts have (for a single-shard
   request, one; for a split multi-get or a stats/flush_all
   broadcast, one per shard involved).  Slots completing out of order
   just wait at their queue position, so per-client ordering is
   preserved no matter how shards interleave.  A shard's own error
   unit passes through to the client.

   Down/rejoin: any connect or I/O failure closes the upstream, fails
   its in-flight parts, and marks the shard Down — its keyspace
   answers [SERVER_ERROR shard down] (ownership never moves; the data
   exists only in that shard's region).  A Down shard is re-probed on
   a timer with a nonblocking connect + [version] round trip; the
   shard process recovers its region before it listens, so probe
   success implies recovery is complete and the shard is marked Up. *)

module Poller = Netserve.Poller
module Core = Netserve.Conn_core
module P = Kvstore.Protocol
module C = P.Client

type shard_addr = { sid : int; shost : string; sport : int }

type config = {
  host : string;
  port : int;
  backlog : int;
  max_conns : int;
  read_chunk : int;
  out_hwm : int;
  max_line : int;
  max_value : int;
  idle_timeout_s : float;
  tick_s : float;
  vnodes : int;
  probe_interval_s : float;
  connect_timeout_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 11311;
    backlog = 512;
    max_conns = 16384;
    read_chunk = 16384;
    out_hwm = 1 lsl 20;
    max_line = 8192;
    max_value = 1 lsl 20;
    idle_timeout_s = 60.0;
    tick_s = 0.05;
    vnodes = 128;
    probe_interval_s = 0.2;
    connect_timeout_s = 2.0;
  }

let shard_down_reply = "SERVER_ERROR shard down\r\n"

(* ---- shared counters (router domain writes; readers poll) ---- *)

type counters = {
  c_requests : int Atomic.t;
  c_down_errors : int Atomic.t;
  c_downs : int Atomic.t;
  c_rejoins : int Atomic.t;
}

type stats = {
  clients_accepted : int;
  bytes_in : int;
  bytes_out : int;
  requests : int;
  shard_down_errors : int;
  downs : int;
  rejoins : int;
}

type t = {
  cfg : config;
  ring : Ring.t;
  addrs : shard_addr array;  (* ring order (sorted by sid) *)
  up_flags : bool Atomic.t array;  (* ring order, published by the loop *)
  lfd : Unix.file_descr;
  actual_port : int;
  stopping : bool Atomic.t;
  io : Core.counters;  (* client connections and bytes, kept by the loop *)
  ctr : counters;
  mutable domain : unit Domain.t option
      [@montage.guarded_by "control thread (start/stop caller)"];
}

let port t = t.actual_port

let shard_states t =
  Array.to_list (Array.mapi (fun i a -> (a.sid, Atomic.get t.up_flags.(i))) t.addrs)

let stats t =
  {
    clients_accepted = t.io.accepted;
    bytes_in = t.io.bytes_in;
    bytes_out = t.io.bytes_out;
    requests = Atomic.get t.ctr.c_requests;
    shard_down_errors = Atomic.get t.ctr.c_down_errors;
    downs = Atomic.get t.ctr.c_downs;
    rejoins = Atomic.get t.ctr.c_rejoins;
  }

let wait_up ?n t ~timeout_s =
  let want = match n with Some n -> n | None -> Array.length t.addrs in
  let deadline = Poller.mono_s () +. timeout_s in
  let up () = Array.fold_left (fun a f -> if Atomic.get f then a + 1 else a) 0 t.up_flags in
  let rec go () =
    if up () >= want then true
    else if Poller.mono_s () > deadline then false
    else begin
      (Unix.sleepf 0.01
      [@montage.allow "R5: control-thread wait for the fleet to join; not on the router loop"]);
      go ()
    end
  in
  go ()

(* ---- connection-local state (all owned by the router domain) ---- *)

(* [Multiget order]: the request's keys, each with the index of the
   part its owning shard answers *)
type slot_kind = Verbatim | Multiget of (string * int) list | Stats_merge | Flushall

type client = { fr : P.framer; pending : slot Queue.t (* reply slots, request order *) }

and slot = {
  s_conn : peer Core.conn;
  s_client : client;
  s_kind : slot_kind;
  mutable s_reply : string;  (* a [Verbatim] slot's reply *)
  s_parts : string array;  (* the other kinds' replies, one per part *)
  mutable s_left : int;
  mutable s_failed : bool;  (* a part's shard is Down *)
  mutable s_error : string option;  (* the first error unit a shard answered *)
}

and peer = Client of client | Shard of upstream

and upstream = {
  u_idx : int;  (* ring-order index *)
  u_id : int;
  u_sockaddr : Unix.sockaddr;
  mutable u_state : up_state;
  mutable u_conn : peer Core.conn option;
  mutable u_started : float;  (* connect/probe deadline base *)
  mutable u_last_attempt : float;
  u_dec : C.decoder;
  u_inflight : pending_reply Queue.t;
}

and up_state = Down | Connecting | Probing | Up
and pending_reply = Part of slot * int | Probe

(* The VALUE blocks of one complete get/gets reply, in order, as
   (key, block bytes) pairs; the trailing END is dropped.  A block is
   its header line (up to the first CRLF: a key may hold a bare CR)
   plus the announced byte count and CRLF, so data that itself contains
   CRLF is skipped whole. *)
let value_blocks reply =
  let rec go pos acc =
    if pos + 6 > String.length reply || String.sub reply pos 6 <> "VALUE " then List.rev acc
    else
      let rec crlf i = if reply.[i] = '\r' && reply.[i + 1] = '\n' then i else crlf (i + 1) in
      let eol = crlf pos in
      match String.split_on_char ' ' (String.sub reply pos (eol - pos)) with
      | _ :: key :: _ :: bytes :: _ ->
          let stop = eol + 2 + int_of_string bytes + 2 in
          go stop ((key, String.sub reply pos (stop - pos)) :: acc)
      | _ -> List.rev acc
  in
  go 0 []

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0) with Not_found -> Unix.inet_addr_loopback)

(* ---- the router loop ---- *)

let run t =
  let cfg = t.cfg in
  let ups =
    Array.mapi
      (fun i a ->
        {
          u_idx = i;
          u_id = a.sid;
          u_sockaddr = Unix.ADDR_INET (resolve a.shost, a.sport);
          u_state = Down;
          u_conn = None;
          u_started = 0.0;
          u_last_attempt = neg_infinity;
          u_dec = C.decoder ();
          u_inflight = Queue.create ();
        })
      t.addrs
  in
  let up_by_id = Hashtbl.create 8 in
  Array.iter (fun u -> Hashtbl.replace up_by_id u.u_id u) ups;
  let up_count () = Array.fold_left (fun n u -> if u.u_state = Up then n + 1 else n) 0 ups in

  (* -- slot assembly and release -- *)
  let merge_stats parts =
    let order = ref [] in
    let tbl : (string, string) Hashtbl.t = Hashtbl.create 64 in
    Array.iter
      (fun part ->
        String.split_on_char '\n' part
        |> List.iter (fun line ->
               let line =
                 let n = String.length line in
                 if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
               in
               if String.length line > 5 && String.sub line 0 5 = "STAT " then begin
                 let rest = String.sub line 5 (String.length line - 5) in
                 let key, value =
                   match String.index_opt rest ' ' with
                   | Some i ->
                       (String.sub rest 0 i, String.sub rest (i + 1) (String.length rest - i - 1))
                   | None -> (rest, "")
                 in
                 match Hashtbl.find_opt tbl key with
                 | None ->
                     order := key :: !order;
                     Hashtbl.replace tbl key value
                 | Some prev -> (
                     (* numeric stats sum across shards; text ones keep
                        the first shard's value *)
                     match (int_of_string_opt prev, int_of_string_opt value) with
                     | Some a, Some b -> Hashtbl.replace tbl key (string_of_int (a + b))
                     | _ -> ())
               end))
      parts;
    let b = Buffer.create 1024 in
    Buffer.add_string b (Printf.sprintf "STAT cluster_shards %d\r\n" (Array.length ups));
    Buffer.add_string b (Printf.sprintf "STAT cluster_up %d\r\n" (up_count ()));
    Buffer.add_string b (Printf.sprintf "STAT cluster_downs %d\r\n" (Atomic.get t.ctr.c_downs));
    Buffer.add_string b (Printf.sprintf "STAT cluster_rejoins %d\r\n" (Atomic.get t.ctr.c_rejoins));
    Array.iter
      (fun u ->
        Buffer.add_string b
          (Printf.sprintf "STAT shard%d_state %s\r\n" u.u_id (if u.u_state = Up then "up" else "down")))
      ups;
    List.iter
      (fun k -> Buffer.add_string b (Printf.sprintf "STAT %s %s\r\n" k (Hashtbl.find tbl k)))
      (List.rev !order);
    Buffer.add_string b "END\r\n";
    Buffer.contents b
  in
  let assemble s =
    if s.s_failed then begin
      Atomic.incr t.ctr.c_down_errors;
      shard_down_reply
    end
    else
      match (s.s_kind, s.s_error) with
      | Verbatim, _ -> s.s_reply
      | _, Some e -> e (* a shard's own error unit passes through *)
      | Multiget order, None ->
          (* each part answers its shard's keys in request order; walk
             the client's keys and take each one's block from the head
             of its part — a key whose part head names another key was
             a miss *)
          let blocks = Array.map value_blocks s.s_parts in
          let b = Buffer.create 256 in
          List.iter
            (fun (key, i) ->
              match blocks.(i) with
              | (k, block) :: rest when k = key ->
                  Buffer.add_string b block;
                  blocks.(i) <- rest
              | _ -> ())
            order;
          Buffer.add_string b "END\r\n";
          Buffer.contents b
      | Stats_merge, None -> merge_stats s.s_parts
      | Flushall, None -> "OK\r\n"
  in
  let rec release_ready c cl =
    if (not (Queue.is_empty cl.pending)) && (Queue.peek cl.pending).s_left = 0 then begin
      Core.send c (assemble (Queue.pop cl.pending));
      release_ready c cl
    end
  in
  (* a slot awaiting [left] parts; [parts] holds them unless it is
     [Verbatim] *)
  let new_slot c cl kind parts left =
    let s =
      {
        s_conn = c;
        s_client = cl;
        s_kind = kind;
        s_reply = "";
        s_parts = parts;
        s_left = left;
        s_failed = false;
        s_error = None;
      }
    in
    Queue.push s cl.pending;
    s
  in
  let part_done s =
    s.s_left <- s.s_left - 1;
    if s.s_left = 0 then release_ready s.s_conn s.s_client
  in
  let fail_part s =
    s.s_failed <- true;
    part_done s
  in
  let local_reply c cl reply =
    (new_slot c cl Verbatim [||] 0).s_reply <- reply;
    release_ready c cl
  in

  (* -- upstream state -- *)
  (* the upstream's connection is already closed: fail what it owed *)
  let mark_down u reason =
    let was_up = u.u_state = Up in
    u.u_conn <- None;
    u.u_state <- Down;
    u.u_last_attempt <- Poller.mono_s ();
    C.reset u.u_dec;
    Atomic.set t.up_flags.(u.u_idx) false;
    if was_up then begin
      Atomic.incr t.ctr.c_downs;
      Printf.eprintf "[cluster] shard %d down (%s)\n%!" u.u_id reason
    end;
    Queue.iter (function Part (s, _) -> fail_part s | Probe -> ()) u.u_inflight;
    Queue.clear u.u_inflight
  in
  let mark_up u =
    u.u_state <- Up;
    Atomic.set t.up_flags.(u.u_idx) true;
    Atomic.incr t.ctr.c_rejoins;
    Printf.eprintf "[cluster] shard %d up\n%!" u.u_id
  in
  (* connected: a [version] round trip proves the shard serves *)
  let probe c u =
    u.u_state <- Probing;
    Core.send c "version\r\n";
    Queue.push Probe u.u_inflight
  in
  (* A unit answering the one part of a live [Verbatim] slot at the
     head of its client's queue is the client's next reply as it
     stands: it goes straight from the shard's input buffer to the
     client's output buffer.  Any other unit is copied and kept until
     its slot is released. *)
  let direct s =
    match s.s_kind with
    | Verbatim -> (not s.s_failed) && Queue.peek s.s_client.pending == s
    | _ -> false
  in
  let on_unit c u (inb : Core.buf) n (r : C.unit_result) =
    if Queue.is_empty u.u_inflight then begin
      Core.consume inb n;
      Core.close c "unsolicited reply"
    end
    else
      match Queue.take u.u_inflight with
      | Probe ->
          Core.consume inb n;
          if u.u_state = Probing then mark_up u
      | Part (s, _) when direct s ->
          ignore (Queue.pop s.s_client.pending);
          Core.send_sub s.s_conn inb.bytes inb.pos n;
          Core.consume inb n;
          release_ready s.s_conn s.s_client
      | Part (s, idx) ->
          let unit_bytes = Bytes.sub_string inb.bytes inb.pos n in
          Core.consume inb n;
          (match s.s_kind with
          | Verbatim -> s.s_reply <- unit_bytes
          | _ -> s.s_parts.(idx) <- unit_bytes);
          if C.is_err r && s.s_error = None then s.s_error <- Some unit_bytes;
          part_done s
  in
  let upstream_input c u =
    let inb = Core.inbuf c in
    let continue = ref true in
    while !continue && Core.alive c do
      match C.next_unit u.u_dec inb.bytes ~pos:inb.pos ~len:(Core.pending inb) with
      | Some (endp, r) -> on_unit c u inb (endp - inb.pos) r
      | None -> continue := false
    done
  in

  (* -- request dispatch: the frames come from the shards' own framer -- *)
  let send u buf off len =
    match (u.u_state, u.u_conn) with
    | Up, Some c ->
        Core.send_sub c buf off len;
        true
    | _ -> false
  in
  (* part [idx] of slot [s] *)
  let send_part u buf off len s idx =
    if send u buf off len then Queue.push (Part (s, idx)) u.u_inflight else fail_part s
  in
  let owner key = Hashtbl.find up_by_id (Ring.lookup t.ring key) in
  let forward c cl key buf (f : P.frame) ~noreply =
    if noreply then ignore (send (owner key) buf f.off f.len)
    else send_part (owner key) buf f.off f.len (new_slot c cl Verbatim [||] 1) 0
  in
  let route_get c cl buf (f : P.frame) ~cas keys =
    match keys with
    | [ key ] -> forward c cl key buf f ~noreply:false
    | _ ->
        let owned = List.map (fun k -> (k, owner k)) keys in
        (* owning shards in first-appearance order, one part each *)
        let shards =
          List.fold_left (fun acc (_, u) -> if List.memq u acc then acc else acc @ [ u ]) [] owned
          |> Array.of_list
        in
        if Array.length shards = 1 then forward c cl (List.hd keys) buf f ~noreply:false
        else begin
          let part u = Option.get (Array.find_index (( == ) u) shards) in
          let order = List.map (fun (k, u) -> (k, part u)) owned in
          let parts = Array.length shards in
          let s = new_slot c cl (Multiget order) (Array.make parts "") parts in
          Array.iteri
            (fun i u ->
              let ks = List.filter_map (fun (k, j) -> if j = i then Some k else None) order in
              let b = Buffer.create 64 in
              (if cas then C.encode_gets else C.encode_get) b ks;
              send_part u (Buffer.to_bytes b) 0 (Buffer.length b) s i)
            shards
        end
  in
  let broadcast c cl buf (f : P.frame) kind ~noreply =
    let targets = List.filter (fun u -> u.u_state = Up) (Array.to_list ups) in
    if noreply then List.iter (fun u -> ignore (send u buf f.off f.len)) targets
    else begin
      let parts = List.length targets in
      let s = new_slot c cl kind (Array.make parts "") parts in
      if targets = [] then release_ready c cl
      else List.iteri (fun i u -> send_part u buf f.off f.len s i) targets
    end
  in
  let dispatch c cl buf (f : P.frame) =
    Atomic.incr t.ctr.c_requests;
    match f.cmd with
    | P.Answer None -> ()
    | P.Answer (Some r) -> local_reply c cl (r ^ "\r\n")
    | P.Get { cas; keys } -> route_get c cl buf f ~cas keys
    | P.Store p -> forward c cl p.key buf f ~noreply:p.noreply
    | P.Delete { key; noreply } -> forward c cl key buf f ~noreply
    | P.Arith { key; _ } | P.Touch { key; _ } -> forward c cl key buf f ~noreply:false
    | P.Flush_all { noreply; _ } -> broadcast c cl buf f Flushall ~noreply
    | P.Stats -> broadcast c cl buf f Stats_merge ~noreply:false
    | P.Version -> local_reply c cl "VERSION montage-cluster\r\n"
    | P.Verbosity { noreply } -> if not noreply then local_reply c cl "OK\r\n"
    | P.Quit -> () (* the framer is closed: answer what is pending, then close *)
  in
  let client_input c cl =
    let inb = Core.inbuf c in
    Core.consume inb
      (P.frames cl.fr inb.bytes ~pos:inb.pos ~len:(Core.pending inb) (dispatch c cl inb.bytes))
  in
  let core =
    Core.create ~name:"cluster" ~read_chunk:cfg.read_chunk ~idle_timeout_s:cfg.idle_timeout_s
      ~counters:t.io
      {
        input = (fun c -> match Core.data c with Client cl -> client_input c cl | Shard u -> upstream_input c u);
        paused =
          (fun c ->
            match Core.data c with
            | Client cl -> P.closed cl.fr || Core.out_pending c > cfg.out_hwm
            | Shard _ -> false);
        finished =
          (fun c ->
            match Core.data c with
            | Client cl -> P.closed cl.fr && Queue.is_empty cl.pending
            | Shard _ -> false);
        connected = (fun c -> match Core.data c with Shard u -> probe c u | Client _ -> ());
        closed = (fun c why -> match Core.data c with Shard u -> mark_down u why | Client _ -> ());
      }
  in
  Core.listen core t.lfd ~max_conns:cfg.max_conns (fun _ ->
      Client { fr = P.framer ~max_line:cfg.max_line ~max_value:cfg.max_value (); pending = Queue.create () });

  (* -- probe timer -- *)
  let start_connect u now =
    u.u_last_attempt <- now;
    u.u_started <- now;
    match Core.connect core u.u_sockaddr (Shard u) with
    | Ok c ->
        u.u_conn <- Some c;
        u.u_state <- Connecting
    | Error _ -> ()
  in
  let tick_probes now =
    Array.iter
      (fun u ->
        match u.u_state with
        | Down -> if now -. u.u_last_attempt >= cfg.probe_interval_s then start_connect u now
        | Connecting | Probing ->
            if now -. u.u_started > cfg.connect_timeout_s then
              Option.iter (fun c -> Core.close c "probe timeout") u.u_conn
        | Up -> ())
      ups
  in
  while not (Atomic.get t.stopping) do
    Core.step core ~timeout_s:cfg.tick_s;
    tick_probes (Poller.mono_s ())
  done;
  ignore (Core.shutdown core)

(* ---- control surface ---- *)

let start ?(config = default_config) shard_addrs =
  if shard_addrs = [] then invalid_arg "Router.start: no shards";
  let ring = Ring.create ~vnodes:config.vnodes (List.map (fun a -> a.sid) shard_addrs) in
  let addrs =
    (* ring order: sorted by shard id, matching Ring.shards *)
    List.map
      (fun id -> List.find (fun a -> a.sid = id) shard_addrs)
      (Ring.shards ring)
    |> Array.of_list
  in
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
  Unix.listen lfd config.backlog;
  Unix.set_nonblock lfd;
  let actual_port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> config.port
  in
  let t =
    {
      cfg = config;
      ring;
      addrs;
      up_flags = Array.map (fun _ -> Atomic.make false) addrs;
      lfd;
      actual_port;
      stopping = Atomic.make false;
      io = Core.counters ();
      ctr =
        {
          c_requests = Atomic.make 0;
          c_down_errors = Atomic.make 0;
          c_downs = Atomic.make 0;
          c_rejoins = Atomic.make 0;
        };
      domain = None;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> run t));
  t

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let stop t =
  if not (Atomic.get t.stopping) then begin
    Atomic.set t.stopping true;
    (match t.domain with Some d -> Domain.join d | None -> ());
    t.domain <- None;
    close_quietly t.lfd
  end
