(* The connection core: the one readiness loop under the netserve
   workers, the cluster router and the load generator.

   A loop owns an epoll instance ({!Poller}) and a table of nonblocking
   connections, each with a growable [pos, len) input and output
   buffer.  The owner plugs in per-loop handlers: [input] consumes
   whatever complete units the input buffer holds and queues replies
   with [send]; [paused] and [finished] say when to stop reading and
   when a drained connection should close; [connected]/[closed] report
   life-cycle edges.  The core does the rest, once:

   - reads drain a ready socket into the input buffer (stopping early
     once the handler pauses, e.g. above an output high-water mark, and
     after a read shorter than the chunk);
   - a read of 0 bytes (the peer's EOF, a half-close included) only
     marks the connection: reading stops, the replies already queued
     are still written, and the owner's [finished] (which counts
     [at_eof]) decides when the drained connection closes;
   - [send] only buffers and queues the connection in a dirty set,
     flushed with one write per dirty connection per cycle — O(active),
     never O(connections);
   - each connection's [want_r]/[want_w] (and the listener's
     [lfd_armed]) is the only record of what epoll holds: interest is
     re-derived after every event and reaches the kernel only on
     change — ADD from none, MOD between two non-empty sets, DEL to
     none — so idle connections cost nothing per tick;
   - an optional listener accepts up to [max_conns], backs off on
     EMFILE/ENFILE, refuses fds epoll rejects and goes deaf rather
     than dead if epoll rejects the listener itself;
   - outbound connects are nonblocking and complete on writability;
   - a periodic sweep on the monotonic clock reaps finished and idle
     accepted connections.

   Everything runs on the calling domain; [step] is one readiness cycle
   and the only blocking point ([Poller.wait]). *)

type buf = {
  mutable bytes : Bytes.t; [@montage.thread_local]
  mutable pos : int; [@montage.thread_local]
  mutable len : int; [@montage.thread_local]
}

let buf () = { bytes = Bytes.empty; pos = 0; len = 0 }
let pending b = b.len - b.pos

(* Room for [n] more bytes at [len]: compact when the consumed prefix
   suffices, otherwise grow.  Live bytes move to offset 0. *)
let reserve b n =
  if b.len + n > Bytes.length b.bytes then begin
    let live = pending b in
    if live + n <= Bytes.length b.bytes then Bytes.blit b.bytes b.pos b.bytes 0 live
    else begin
      let nb = Bytes.create (max 1024 (max (live + n) (2 * Bytes.length b.bytes))) in
      Bytes.blit b.bytes b.pos nb 0 live;
      b.bytes <- nb
    end;
    b.pos <- 0;
    b.len <- live
  end

let add_subbytes b src off n =
  reserve b n;
  Bytes.blit src off b.bytes b.len n;
  b.len <- b.len + n

let consume b n =
  b.pos <- b.pos + n;
  if b.pos = b.len then begin
    b.pos <- 0;
    b.len <- 0
  end

type counters = {
  mutable accepted : int; [@montage.thread_local]
  mutable rejected : int; [@montage.thread_local]
  mutable cur : int; [@montage.thread_local]
  mutable bytes_in : int; [@montage.thread_local]
  mutable bytes_out : int; [@montage.thread_local]
}

let counters () = { accepted = 0; rejected = 0; cur = 0; bytes_in = 0; bytes_out = 0 }

type 'a t = {
  name : string;
  poller : Poller.t;
  conns : (Unix.file_descr, 'a conn) Hashtbl.t;
  h : 'a handlers;
  ctr : counters;
  rbuf : Bytes.t;
  idle_timeout_s : float;
  sweep_period : float;
  mutable now : float; [@montage.thread_local]
  mutable next_sweep : float; [@montage.thread_local]
  mutable dirty_set : 'a conn list; [@montage.thread_local]
  mutable listener : (Unix.file_descr * int * (Unix.file_descr -> 'a)) option;
      [@montage.thread_local]
  mutable accepting : bool; [@montage.thread_local]
  mutable lfd_armed : bool; [@montage.thread_local]
}

and 'a conn = {
  fd : Unix.file_descr;
  data : 'a;
  inb : buf;
  outb : buf;
  loop : 'a t;
  accepted : bool;
  mutable last_active : float; [@montage.thread_local]
  mutable connecting : bool; [@montage.thread_local]
  mutable want_r : bool; [@montage.thread_local]
  mutable want_w : bool; [@montage.thread_local]
  mutable dirty : bool; [@montage.thread_local]
  mutable alive : bool; [@montage.thread_local]
  mutable eof : bool; [@montage.thread_local]  (** the peer sent its last byte *)
}

and 'a handlers = {
  input : 'a conn -> unit;
  paused : 'a conn -> bool;
  finished : 'a conn -> bool;
  connected : 'a conn -> unit;
  closed : 'a conn -> string -> unit;
}

let create ?(read_chunk = 1 lsl 16) ?(idle_timeout_s = 0.0) ?(counters = counters ()) ~name h =
  let now = Poller.mono_s () in
  (* the idle/finished sweep runs on a coarse period, not per tick *)
  let sweep_period = if idle_timeout_s > 0.0 then Float.min 1.0 (idle_timeout_s /. 4.0) else 1.0 in
  {
    name;
    poller = Poller.create ();
    conns = Hashtbl.create 256;
    h;
    ctr = counters;
    rbuf = Bytes.create read_chunk;
    idle_timeout_s;
    sweep_period;
    now;
    next_sweep = now +. sweep_period;
    dirty_set = [];
    listener = None;
    accepting = false;
    lfd_armed = false;
  }

let count t = Hashtbl.length t.conns
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close c reason =
  if c.alive then begin
    c.alive <- false;
    let t = c.loop in
    Hashtbl.remove t.conns c.fd;
    (if c.want_r || c.want_w then try Poller.delete t.poller c.fd with Unix.Unix_error _ -> ());
    if c.accepted then t.ctr.cur <- t.ctr.cur - 1;
    close_quietly c.fd;
    t.h.closed c reason
  end

let send_sub c src off n =
  if c.alive && n > 0 then begin
    add_subbytes c.outb src off n;
    if not c.dirty then begin
      c.dirty <- true;
      c.loop.dirty_set <- c :: c.loop.dirty_set
    end
  end

let send c s = send_sub c (Bytes.unsafe_of_string s) 0 (String.length s)

(* Re-derive the interest pair from connection state; reach epoll
   only when it changed.  A kernel refusal closes the connection. *)
let update_interest c =
  let r = (not c.connecting) && (not c.eof) && not (c.loop.h.paused c) in
  let w = c.connecting || pending c.outb > 0 in
  if r <> c.want_r || w <> c.want_w then begin
    let p = c.loop.poller and registered = c.want_r || c.want_w in
    c.want_r <- r;
    c.want_w <- w;
    try
      if not (r || w) then Poller.delete p c.fd
      else if registered then Poller.modify p c.fd ~read:r ~write:w
      else Poller.add p c.fd ~read:r ~write:w
    with Unix.Unix_error (e, _, _) -> close c ("epoll_ctl: " ^ Unix.error_message e)
  end

let close_reason c = if c.eof then "peer closed the connection" else "finished"

(* After any I/O: a finished connection closes once drained, every
   other one re-derives its interest. *)
let settle c =
  if c.alive then
    if c.loop.h.finished c && pending c.outb = 0 then close c (close_reason c)
    else update_interest c

(* One write of the pending output; a dead peer closes the connection. *)
let flush c =
  let n = pending c.outb in
  if n > 0 then
    match Unix.write c.fd c.outb.bytes c.outb.pos n with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> close c (Unix.error_message e)
    | k ->
        if c.accepted then c.loop.ctr.bytes_out <- c.loop.ctr.bytes_out + k;
        c.last_active <- c.loop.now;
        consume c.outb k

(* Drain the socket into the input buffer, handing each chunk to the
   owner; stop once it pauses, or after a read shorter than the chunk:
   the socket is empty then, and level-triggered epoll reports it
   again when more bytes (or the peer's close) arrive, so the drain
   ends without the read that would fail with EAGAIN. *)
let read c =
  let t = c.loop in
  let again = ref true in
  while !again do
    match Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        again := false
    | exception Unix.Unix_error (e, _, _) ->
        again := false;
        close c (Unix.error_message e)
    | 0 ->
        again := false;
        c.eof <- true
    | n ->
        if c.accepted then t.ctr.bytes_in <- t.ctr.bytes_in + n;
        c.last_active <- t.now;
        add_subbytes c.inb t.rbuf 0 n;
        t.h.input c;
        if (not c.alive) || t.h.paused c || n < Bytes.length t.rbuf then again := false
  done

(* Register a connected fd; an fd epoll rejects is closed and refused. *)
let register t fd ~accepted ~connecting data =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  match Poller.add t.poller fd ~read:(not connecting) ~write:connecting with
  | exception Unix.Unix_error (e, _, _) ->
      close_quietly fd;
      Error ("epoll_ctl: " ^ Unix.error_message e)
  | () ->
      let c =
        {
          fd;
          data = data ();
          inb = buf ();
          outb = buf ();
          loop = t;
          accepted;
          last_active = t.now;
          connecting;
          want_r = not connecting;
          want_w = connecting;
          dirty = false;
          alive = true;
          eof = false;
        }
      in
      Hashtbl.replace t.conns fd c;
      Ok c

let add t fd data = register t fd ~accepted:false ~connecting:false (fun () -> data)

let connect t addr data =
  match Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
      Unix.set_nonblock fd;
      match Unix.connect fd addr with
      | () | (exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _))
        ->
          (* completion (or failure) surfaces as writability *)
          register t fd ~accepted:false ~connecting:true (fun () -> data)
      | exception Unix.Unix_error (e, _, _) ->
          close_quietly fd;
          Error (Unix.error_message e))

let finish_connect c =
  match Unix.getsockopt_error c.fd with
  | None ->
      c.connecting <- false;
      c.loop.h.connected c
  | Some e -> close c ("connect: " ^ Unix.error_message e)

let listen t lfd ~max_conns make =
  t.listener <- Some (lfd, max_conns, make);
  t.accepting <- true

let stop_accepting t = t.accepting <- false

let accept_all t lfd max_conns make =
  let again = ref true in
  while !again && t.ctr.cur < max_conns do
    match Unix.accept ~cloexec:true lfd with
    | exception
        Unix.Unix_error
          ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED | Unix.EINTR | Unix.EMFILE
            | Unix.ENFILE ),
            _,
            _ ) ->
        (* EMFILE/ENFILE: out of descriptors right now — back off and
           let the sweep free some before trying again *)
        again := false
    | fd, _ -> (
        match register t fd ~accepted:true ~connecting:false (fun () -> make fd) with
        | Ok _ ->
            t.ctr.accepted <- t.ctr.accepted + 1;
            t.ctr.cur <- t.ctr.cur + 1
        | Error _ -> t.ctr.rejected <- t.ctr.rejected + 1)
  done

(* Listener interest changes only at the max_conns edge or when
   accepting stops. *)
let arm_listener t =
  match t.listener with
  | None -> ()
  | Some (lfd, max_conns, _) ->
      let want = t.accepting && t.ctr.cur < max_conns in
      if want <> t.lfd_armed then begin
        match
          if want then Poller.add t.poller lfd ~read:true ~write:false
          else Poller.delete t.poller lfd
        with
        | () -> t.lfd_armed <- want
        | exception Unix.Unix_error (e, _, _) ->
            (* keep serving the connections already held: a deaf loop
               beats a dead one *)
            t.listener <- None;
            Printf.eprintf "[%s] epoll refused the listener (%s); not accepting\n%!" t.name
              (Unix.error_message e)
      end

let on_event t fd ~readable ~writable =
  match t.listener with
  | Some (lfd, max_conns, make) when fd = lfd -> if readable then accept_all t lfd max_conns make
  | _ -> (
      match Hashtbl.find_opt t.conns fd with
      | None -> () (* closed earlier in this very cycle *)
      | Some c ->
          if c.connecting then finish_connect c
          else begin
            if writable then flush c;
            if readable && c.alive && not c.eof then read c
          end;
          settle c)

let flush_dirty t =
  if t.dirty_set <> [] then begin
    let d = t.dirty_set in
    t.dirty_set <- [];
    List.iter
      (fun c ->
        c.dirty <- false;
        if c.alive && not c.connecting then begin
          flush c;
          settle c
        end)
      d
  end

let sweep t =
  let reap = ref [] in
  Hashtbl.iter
    (fun _ c ->
      if t.h.finished c && pending c.outb = 0 then reap := (c, close_reason c) :: !reap
      else if c.accepted && t.idle_timeout_s > 0.0 && t.now -. c.last_active > t.idle_timeout_s
      then reap := (c, "idle timeout") :: !reap)
    t.conns;
  List.iter (fun (c, why) -> close c why) !reap

let step t ~timeout_s =
  t.now <- Poller.mono_s ();
  flush_dirty t;
  arm_listener t;
  ignore (Poller.wait t.poller ~timeout_s (on_event t));
  t.now <- Poller.mono_s ();
  flush_dirty t;
  if t.now >= t.next_sweep then begin
    t.next_sweep <- t.now +. t.sweep_period;
    sweep t
  end

let shutdown t =
  let rest = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter
    (fun c ->
      (* one last write of what is pending, then cut it *)
      (if pending c.outb > 0 && not c.connecting then
         try ignore (Unix.write c.fd c.outb.bytes c.outb.pos (pending c.outb))
         with Unix.Unix_error _ -> ());
      c.alive <- false;
      if c.accepted then t.ctr.cur <- t.ctr.cur - 1;
      close_quietly c.fd)
    rest;
  Hashtbl.reset t.conns;
  t.dirty_set <- [];
  Poller.close t.poller;
  List.length rest

let data c = c.data
let inbuf c = c.inb
let alive c = c.alive
let at_eof c = c.eof
let out_pending c = pending c.outb
