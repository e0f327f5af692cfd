module C = Kvstore.Protocol.Client

(* Attempts before a transient connect failure is final: with the
   backoff doubling from 5 ms to a 250 ms cap, about 14 s in all. *)
let retries = 60

(* Under a C10K ramp the listen backlog overflows transiently, and a
   driver that dies on the first ECONNREFUSED measures nothing. *)
let connect ?(host = "127.0.0.1") port =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let rec go attempt backoff =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
    match Unix.connect fd addr with
    | () ->
        Unix.setsockopt_float fd SO_RCVTIMEO 10.0;
        fd
    | exception
        Unix.Unix_error
          ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EAGAIN | Unix.EWOULDBLOCK
            | Unix.EINTR | Unix.ETIMEDOUT ),
            _,
            _ )
      when attempt < retries ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (Unix.sleepf backoff
        [@montage.allow
          "R5: bounded connect backoff in client tooling; the server \
           under test is not on this thread"]);
        go (attempt + 1) (Float.min 0.25 (backoff *. 2.0))
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  go 0 0.005

let send fd s =
  let off = ref 0 in
  let n = String.length s in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let recv_exact fd n =
  let buf = Bytes.create n in
  let off = ref 0 in
  (try
     while !off < n do
       let k = Unix.read fd buf !off (n - !off) in
       if k = 0 then raise Exit;
       off := !off + k
     done
   with Exit | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  Bytes.sub_string buf 0 !off

let recv_until fd suffix =
  let acc = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  (try
     while not (String.ends_with ~suffix (Buffer.contents acc)) do
       let k = Unix.read fd chunk 0 (Bytes.length chunk) in
       if k = 0 then raise Exit;
       Buffer.add_subbytes acc chunk 0 k
     done
   with Exit | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  Buffer.contents acc

let recv_all fd =
  let acc = Buffer.create 1024 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 | (exception Unix.Unix_error _) -> Buffer.contents acc
    | k ->
        Buffer.add_subbytes acc chunk 0 k;
        go ()
  in
  go ()

(* Peek at what has arrived, let the decoder find the unit's end, and
   only then read: exactly the unit's bytes leave the socket, so a
   pipelined reply behind it is still there for the next call.  The
   bytes [read] returns are the ones just peeked. *)
let recv_unit fd =
  let dec = C.decoder () in
  let rec take buf off stop =
    if off < stop then take buf (off + Unix.read fd buf off (stop - off)) stop
  in
  let rec go buf len =
    let buf = if len = Bytes.length buf then Bytes.extend buf 0 len else buf in
    match Unix.recv fd buf len (Bytes.length buf - len) [ Unix.MSG_PEEK ] with
    | 0 | (exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)) ->
        Bytes.sub_string buf 0 len
    | k -> (
        match C.next_unit dec buf ~pos:0 ~len:(len + k) with
        | Some (stop, _) ->
            take buf len stop;
            Bytes.sub_string buf 0 stop
        | None ->
            take buf len (len + k);
            go buf (len + k))
  in
  go (Bytes.create 4096) 0

let version_sweep fds =
  List.iter (fun fd -> try send fd "version\r\n" with Unix.Unix_error _ -> ()) fds;
  List.fold_left
    (fun n fd ->
      match recv_unit fd with
      | reply -> if String.starts_with ~prefix:"VERSION" reply then n + 1 else n
      | exception Unix.Unix_error _ -> n)
    0 fds
