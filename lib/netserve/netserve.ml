(* Sharded TCP front end for the memcached-protocol store.

   The paper's §6.2 validates Montage behind a protected-library
   memcached with no transport; this module is the transport.  One
   listening socket is shared by [workers] event-loop domains
   (SO_REUSEPORT-style sharding: every worker accepts from the same
   nonblocking fd, the kernel load-balances).  Worker [w] owns Montage
   thread id [w] for the whole server lifetime, so every store
   operation a connection performs runs under that tid — epoch
   begin/end hooks and per-thread persist buffers stay thread-local,
   exactly as the paper's per-thread write-back design assumes.

   Each worker runs its connections on the shared connection core
   ({!Conn_core}, over Linux epoll through {!Poller}).  The core drains ready
   sockets into per-connection input buffers; the worker hands them to
   {!Kvstore.Protocol.serve}, which frames and executes every complete
   request in place and writes the replies into the connection's reply
   buffer; the worker queues that buffer's bytes with one copy.  The
   replies of a readiness cycle go out with one write per dirty
   connection, a high-water mark on pending output pauses reads from
   pipelining clients that stop reading (backpressure), and idle
   clients are reaped by the core's periodic sweep.

   Graceful shutdown ([shutdown]) stops accepting, keeps serving the
   open connections until the clients disconnect (bounded by
   [drain_timeout_s], then force-closed), joins the workers, and only
   then runs the epoch sync hook: every reply that was acked before
   the sync is covered by the durable frontier the sync leaves behind
   — the shutdown-drain ordering that makes "acked implies recovered"
   hold across a post-shutdown crash. *)

module P = Kvstore.Protocol

type config = {
  host : string;
  port : int;  (** 0 = kernel-assigned; read it back with {!port} *)
  workers : int;
  backlog : int;
  max_conns : int;  (** per worker *)
  read_chunk : int;
  out_hwm : int;  (** pause reads above this many pending output bytes *)
  idle_timeout_s : float;  (** 0. = never *)
  drain_timeout_s : float;
  tick_s : float;  (** poll timeout: stop/timeout poll granularity *)
  max_line : int;
  max_value : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 11211;
    workers = 2;
    backlog = 128;
    max_conns = 16384;
    read_chunk = 1 lsl 16;
    out_hwm = 1 lsl 20;
    idle_timeout_s = 60.0;
    drain_timeout_s = 5.0;
    tick_s = 0.05;
    max_line = 8192;
    max_value = 1 lsl 20;
  }

(* Verbs with a dedicated ops-by-verb counter slot; everything else
   lands in the trailing "other" slot. *)
let verbs =
  [|
    "get"; "gets"; "set"; "add"; "replace"; "append"; "prepend"; "cas"; "delete"; "incr"; "decr";
    "touch"; "flush_all"; "stats"; "version"; "verbosity"; "quit";
  |]

let verb_slots = Array.length verbs + 1

let verb_index v =
  let rec find i = if i >= Array.length verbs then Array.length verbs else if verbs.(i) = v then i else find (i + 1) in
  find 0

(* Per-worker metrics.  Single-writer (the owning worker); other
   domains read them for the [stats] reply — plain loads of immutable
   word-sized fields, benign staleness. *)
type worker_stats = {
  io : Conn_core.counters;
  mutable max_pipeline : int; [@montage.thread_local]  (** most replies generated by one read *)
  verb_counts : int array;
}

let make_worker_stats () =
  { io = Conn_core.counters (); max_pipeline = 0; verb_counts = Array.make verb_slots 0 }

type drain_stats = {
  drained_conns : int;  (** connections open when shutdown began *)
  forced_closes : int;  (** still open at the drain deadline *)
  drain_s : float;
  sync_s : float;
  persisted_epoch : int;  (** durable frontier after the sync; -1 without hooks *)
}

type t = {
  cfg : config;
  store : Kvstore.Store.t;
  sync : (tid:int -> unit) option;
  frontier : (unit -> int) option;
  lfd : Unix.file_descr;
  actual_port : int;
  stopping : bool Atomic.t;
  wstats : worker_stats array;
  forced : int array;  (* per-worker count of drain-deadline force closes *)
  (* both written only by the control thread that called [start] /
     [shutdown]; workers never touch them *)
  mutable domains : unit Domain.t array
      [@montage.guarded_by "control thread (start/shutdown caller)"];
  mutable drained : drain_stats option
      [@montage.guarded_by "control thread (start/shutdown caller)"];
  drain_ms : float Atomic.t;  (** exposed via [stats] once a drain ran *)
}

let port t = t.actual_port

(* ---- stats assembly (any worker's [stats] command lands here) ---- *)

let server_stats t () =
  let total a f = Array.fold_left (fun acc w -> acc + f w) 0 a in
  let agg =
    [
      ("threads", string_of_int t.cfg.workers);
      ("curr_connections", string_of_int (total t.wstats (fun w -> w.io.cur)));
      ("total_connections", string_of_int (total t.wstats (fun w -> w.io.accepted)));
      ("rejected_connections", string_of_int (total t.wstats (fun w -> w.io.rejected)));
      ("bytes_read", string_of_int (total t.wstats (fun w -> w.io.bytes_in)));
      ("bytes_written", string_of_int (total t.wstats (fun w -> w.io.bytes_out)));
      ( "max_pipeline_depth",
        string_of_int (Array.fold_left (fun acc w -> max acc w.max_pipeline) 0 t.wstats) );
      ("drain_time_ms", Printf.sprintf "%.1f" (Atomic.get t.drain_ms));
    ]
  in
  let by_verb =
    List.filter_map
      (fun i ->
        let n = total t.wstats (fun w -> w.verb_counts.(i)) in
        if n = 0 then None
        else Some (Printf.sprintf "cmd_%s" (if i < Array.length verbs then verbs.(i) else "other"), string_of_int n))
      (List.init verb_slots Fun.id)
  in
  let per_worker =
    List.concat
      (List.init (Array.length t.wstats) (fun w ->
           let s = t.wstats.(w) in
           [
             (Printf.sprintf "worker%d_accepted" w, string_of_int s.io.accepted);
             (Printf.sprintf "worker%d_curr" w, string_of_int s.io.cur);
             (Printf.sprintf "worker%d_bytes_in" w, string_of_int s.io.bytes_in);
             (Printf.sprintf "worker%d_bytes_out" w, string_of_int s.io.bytes_out);
             (Printf.sprintf "worker%d_pipeline_max" w, string_of_int s.max_pipeline);
           ]))
  in
  agg @ by_verb @ per_worker

(* ---- the worker ---- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let worker t wid =
  let cfg = t.cfg in
  let st = t.wstats.(wid) in
  let count_verb v =
    let i = verb_index v in
    st.verb_counts.(i) <- st.verb_counts.(i) + 1
  in
  let input c =
    let inb = Conn_core.inbuf c in
    let p = Conn_core.data c in
    Conn_core.consume inb (P.serve p inb.bytes ~pos:inb.pos ~len:(Conn_core.pending inb));
    let depth = P.flush_replies p (Conn_core.send_sub c) in
    if depth > st.max_pipeline then st.max_pipeline <- depth
  in
  let core =
    Conn_core.create ~name:"netserve" ~read_chunk:cfg.read_chunk
      ~idle_timeout_s:cfg.idle_timeout_s ~counters:st.io
      {
        input;
        (* reads pause above the output high-water mark and after quit *)
        paused = (fun c -> P.is_closed (Conn_core.data c) || Conn_core.out_pending c > cfg.out_hwm);
        (* after quit, or at EOF: every complete request is answered
           by then, and a cut-off one never will be *)
        finished = (fun c -> P.is_closed (Conn_core.data c) || Conn_core.at_eof c);
        connected = ignore;
        closed = (fun _ _ -> ());
      }
  in
  Conn_core.listen core t.lfd ~max_conns:cfg.max_conns (fun _ ->
      P.create ~max_line:cfg.max_line ~max_value:cfg.max_value ~extra_stats:(server_stats t)
        ~on_command:count_verb t.store ~tid:wid);
  let drain_deadline = ref infinity in
  let running = ref true in
  while !running do
    if Atomic.get t.stopping && !drain_deadline = infinity then begin
      Conn_core.stop_accepting core;
      drain_deadline := Poller.mono_s () +. cfg.drain_timeout_s
    end;
    Conn_core.step core ~timeout_s:cfg.tick_s;
    (* draining: serve until the clients leave, then cut what's left *)
    if !drain_deadline < infinity
       && (Conn_core.count core = 0 || Poller.mono_s () > !drain_deadline)
    then running := false
  done;
  t.forced.(wid) <- Conn_core.shutdown core

(* A peer that resets mid-write must surface as EPIPE on that one
   connection, not as a process-killing signal. *)
let ignore_sigpipe () =
  match Sys.os_type with
  | "Unix" -> ( try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())
  | _ -> ()

let start ?(config = default_config) ?sync ?persisted_epoch store =
  ignore_sigpipe ();
  let cfg = { config with workers = max 1 config.workers } in
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen lfd cfg.backlog;
     Unix.set_nonblock lfd
   with e ->
     close_quietly lfd;
     raise e);
  let actual_port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port
  in
  let t =
    {
      cfg;
      store;
      sync;
      frontier = persisted_epoch;
      lfd;
      actual_port;
      stopping = Atomic.make false;
      wstats = Array.init cfg.workers (fun _ -> make_worker_stats ());
      forced = Array.make cfg.workers 0;
      domains = [||];
      drained = None;
      drain_ms = Atomic.make 0.0;
    }
  in
  t.domains <-
    Array.init cfg.workers (fun wid ->
        Domain.spawn (fun () ->
            try worker t wid
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              Printf.eprintf "[netserve] worker %d died: %s\n%s%!" wid (Printexc.to_string e)
                (Printexc.raw_backtrace_to_string bt)));
  t

let shutdown t =
  match t.drained with
  | Some d -> d
  | None ->
      let open_conns = Array.fold_left (fun acc w -> acc + w.io.cur) 0 t.wstats in
      let t0 = Poller.mono_s () in
      Atomic.set t.stopping true;
      Array.iter Domain.join t.domains;
      close_quietly t.lfd;
      let drain_s = Poller.mono_s () -. t0 in
      let t1 = Poller.mono_s () in
      (match t.sync with None -> () | Some sync -> sync ~tid:0);
      let sync_s = Poller.mono_s () -. t1 in
      Atomic.set t.drain_ms ((drain_s +. sync_s) *. 1000.0);
      let d =
        {
          drained_conns = open_conns;
          forced_closes = Array.fold_left ( + ) 0 t.forced;
          drain_s;
          sync_s;
          persisted_epoch = (match t.frontier with None -> -1 | Some f -> f ());
        }
      in
      t.drained <- Some d;
      d

(* Aggregate counters for reporting: (accepted, bytes_in, bytes_out,
   ops) where ops sums the per-verb dispatch counters. *)
let totals t =
  let acc = Array.fold_left (fun a w -> a + w.io.accepted) 0 t.wstats in
  let bin = Array.fold_left (fun a w -> a + w.io.bytes_in) 0 t.wstats in
  let bout = Array.fold_left (fun a w -> a + w.io.bytes_out) 0 t.wstats in
  let ops =
    Array.fold_left (fun a w -> a + Array.fold_left ( + ) 0 w.verb_counts) 0 t.wstats
  in
  (acc, bin, bout, ops)

module Poller = Poller
module Conn_core = Conn_core
module Loadgen = Loadgen
module Client = Client
