(* memcached text-protocol codec: one framer, two consumers.

   The paper's memcached variant dispenses with sockets (clients link
   the store directly), but a store that speaks the wire protocol is
   what makes the library adoptable.  This module frames and parses the
   text protocol — pipelining, [noreply], binary-safe data blocks
   (which may contain \r\n) — and executes the parsed requests against
   a {!Store}.

   Supported commands: get/gets, set/add/replace/append/prepend/cas,
   delete, incr/decr, touch, flush_all, stats, version, verbosity,
   quit.

   The framer ([frames]) is the only request parser in the tree.  It
   runs over any caller-owned [pos, len) byte range and reports each
   complete request as a typed {!frame} plus its raw byte span; it never
   touches a store.  Execution ([serve], [feed]) is the framer plus
   [execute]; the cluster router runs the framer alone, so the router
   and the shards behind it agree byte for byte on where requests end,
   which of them are malformed, and which expect a reply.

   Framing is amortized O(1) per byte: the framer remembers how far it
   has already looked for \r\n ([scanned], relative to the first
   unconsumed byte so callers may compact their buffers), so a data
   block or long line arriving in many small pieces is never
   re-scanned.  Command lines are capped at [max_line] bytes and data
   blocks at [max_value]; oversized input is answered with a
   CLIENT_ERROR and drained without ever being buffered. *)

type storage_op = Store.mode = Set | Add | Replace | Append | Prepend | Cas of int

type pending = {
  op : storage_op;
  key : string;
  flags : int;
  exptime : int;
  bytes : int;
  noreply : bool;
}

type command =
  | Get of { cas : bool; keys : string list }
  | Store of pending
  | Delete of { key : string; noreply : bool }
  | Arith of { key : string; delta : int }
  | Touch of { key : string; exptime : int }
  | Flush_all of { delay : int option; noreply : bool }
  | Stats
  | Version
  | Verbosity of { noreply : bool }
  | Quit
  | Answer of string option

type frame = { verb : string; cmd : command; off : int; len : int }

type state =
  | Idle
  | Awaiting of { verb : string; p : pending; need : int }
      (* storage line parsed; the frame is the line plus its block,
         [need] bytes from the first unconsumed byte *)
  | Discarding of int  (* oversized data block: bytes left to drop *)
  | Skipping_line  (* oversized command line: drop until \r\n *)
  | Closed  (* saw quit *)

type framer = {
  mutable state : state;
  mutable scanned : int; (* no \r\n starts in the first [scanned] unconsumed bytes *)
  max_line : int;
  max_value : int;
}

let framer ?(max_line = 8192) ?(max_value = 1 lsl 20) () =
  { state = Idle; scanned = 0; max_line; max_value }

let closed fr = fr.state = Closed

let crlf = "\r\n"
let line_too_long = "CLIENT_ERROR line too long"
let bad_format = "CLIENT_ERROR bad command line format"

(* ---- line parsing (no store access) ---- *)

let split_words line = String.split_on_char ' ' line |> List.filter (( <> ) "")
let int_arg s = int_of_string_opt s

(* <key> <flags> <exptime> <bytes> [cas] [noreply] *)
let parse_storage verb args =
  match args with
  | key :: flags :: exptime :: bytes :: rest -> (
      match (int_arg flags, int_arg exptime, int_arg bytes) with
      | Some flags, Some exptime, Some bytes when bytes >= 0 -> (
          let op, rest =
            match (verb, rest) with
            | "cas", cas :: tail -> (Option.map (fun c -> Cas c) (int_arg cas), tail)
            | "cas", [] -> (None, [])
            | "set", _ -> (Some Set, rest)
            | "add", _ -> (Some Add, rest)
            | "replace", _ -> (Some Replace, rest)
            | "append", _ -> (Some Append, rest)
            | _ -> (Some Prepend, rest)
          in
          let noreply = rest = [ "noreply" ] in
          match op with
          | Some op when rest = [] || noreply -> Some { op; key; flags; exptime; bytes; noreply }
          | _ -> None)
      | _ -> None)
  | _ -> None

type parsed =
  | Complete of string * command
  | Needs_block of string * pending
  | Drop_block of string * string option * int

let parse fr line =
  match split_words line with
  | [] -> Complete ("", Answer (Some "ERROR"))
  | verb :: args -> (
      let verb = String.lowercase_ascii verb in
      let complete cmd = Complete (verb, cmd) in
      let answer r = complete (Answer (Some r)) in
      match (verb, args) with
      | "get", (_ :: _ as keys) -> complete (Get { cas = false; keys })
      | "gets", (_ :: _ as keys) -> complete (Get { cas = true; keys })
      | ("set" | "add" | "replace" | "append" | "prepend" | "cas"), _ -> (
          match parse_storage verb args with
          | Some p when p.bytes > fr.max_value ->
              (* drain the announced block without buffering it *)
              Drop_block
                ( verb,
                  (if p.noreply then None else Some "CLIENT_ERROR object too large for cache"),
                  p.bytes + 2 )
          | Some p -> Needs_block (verb, p)
          | None -> answer bad_format)
      | "delete", [ key ] -> complete (Delete { key; noreply = false })
      | "delete", [ key; "noreply" ] -> complete (Delete { key; noreply = true })
      | ("incr" | "decr"), [ key; amount ] -> (
          match int_arg amount with
          | None -> answer "CLIENT_ERROR invalid numeric delta argument"
          | Some d -> complete (Arith { key; delta = (if verb = "decr" then -d else d) }))
      | "touch", [ key; exptime ] -> (
          match int_arg exptime with
          | None -> answer "CLIENT_ERROR invalid exptime argument"
          | Some exptime -> complete (Touch { key; exptime }))
      | "flush_all", args -> (
          let args, noreply =
            match List.rev args with
            | "noreply" :: rest -> (List.rev rest, true)
            | _ -> (args, false)
          in
          match args with
          | [] -> complete (Flush_all { delay = None; noreply })
          | [ d ] -> (
              match int_arg d with
              | Some d when d >= 0 -> complete (Flush_all { delay = Some d; noreply })
              | _ -> answer "CLIENT_ERROR invalid delay argument")
          | _ -> answer bad_format)
      | "stats", [] -> complete Stats
      | "version", [] -> complete Version
      | "verbosity", args ->
          complete (Verbosity { noreply = (match List.rev args with "noreply" :: _ -> true | _ -> false) })
      | "quit", [] -> complete Quit
      | _ -> answer "ERROR")

(* ---- the framer ---- *)

(* First "\r\n" in [buf.[start + fr.scanned, stop)]; remembers the scan
   frontier so a line split across calls is scanned once. *)
let find_crlf fr buf start stop =
  let i = ref (start + fr.scanned) in
  let found = ref (-1) in
  while !found < 0 && !i < stop - 1 do
    if Bytes.unsafe_get buf !i = '\r' && Bytes.unsafe_get buf (!i + 1) = '\n' then found := !i
    else incr i
  done;
  if !found < 0 then begin
    (* everything up to the last byte (a possible lone \r) is clean *)
    fr.scanned <- max 0 (stop - 1 - start);
    None
  end
  else Some !found

let frames fr buf ~pos ~len f =
  let start = ref pos and stop = pos + len in
  let consume_to e =
    start := e;
    fr.scanned <- 0
  in
  let progressing = ref true in
  while !progressing do
    match fr.state with
    | Closed -> progressing := false
    | Idle -> (
        match find_crlf fr buf !start stop with
        | None ->
            (* a line of L <= max_line bytes occupies at most
               max_line + 1 bytes without its final \n, so anything
               longer is already oversized *)
            if stop - !start >= fr.max_line + 2 then begin
              f { verb = ""; cmd = Answer (Some line_too_long); off = !start; len = 0 };
              fr.state <- Skipping_line
            end
            else progressing := false
        | Some eol -> (
            let off = !start and flen = eol + 2 - !start in
            if eol - off > fr.max_line then begin
              consume_to (eol + 2);
              f { verb = ""; cmd = Answer (Some line_too_long); off; len = flen }
            end
            else
              match parse fr (Bytes.sub_string buf off (eol - off)) with
              | Complete (verb, cmd) ->
                  consume_to (eol + 2);
                  (match cmd with Quit -> fr.state <- Closed | _ -> ());
                  f { verb; cmd; off; len = flen }
              | Needs_block (verb, p) -> fr.state <- Awaiting { verb; p; need = flen + p.bytes + 2 }
              | Drop_block (verb, reply, n) ->
                  consume_to (eol + 2);
                  fr.state <- Discarding n;
                  f { verb; cmd = Answer reply; off; len = flen }))
    | Awaiting { verb; p; need } ->
        if stop - !start >= need then begin
          let off = !start in
          let e = off + need in
          let cmd =
            if Bytes.get buf (e - 2) = '\r' && Bytes.get buf (e - 1) = '\n' then Store p
            else Answer (Some "CLIENT_ERROR bad data chunk")
          in
          consume_to e;
          fr.state <- Idle;
          f { verb; cmd; off; len = need }
        end
        else progressing := false
    | Discarding remaining ->
        let take = min (stop - !start) remaining in
        consume_to (!start + take);
        if take = remaining then fr.state <- Idle
        else begin
          fr.state <- Discarding (remaining - take);
          progressing := false
        end
    | Skipping_line -> (
        (* the error was already answered; drop bytes until \r\n *)
        match find_crlf fr buf !start stop with
        | Some eol ->
            consume_to (eol + 2);
            fr.state <- Idle
        | None ->
            consume_to (max !start (stop - 1));
            progressing := false)
  done;
  !start - pos

(* ---- execution ---- *)

(* Replies are written straight into the connection's reply buffer,
   [out.[0, olen)], CRLF included: a get's data is copied once, from
   the store's item (the payload's bytes in the region) into [out],
   with the header's numbers written as digits in place. *)
type conn = {
  store : Store.t;
  tid : int;
  fr : framer;
  mutable ibuf : Bytes.t; (* [feed]'s unconsumed input lives in [ipos, ilen) *)
  mutable ipos : int;
  mutable ilen : int;
  mutable out : Bytes.t;
  mutable olen : int;
  mutable replies : int; (* replies in [out] *)
  on_command : string -> unit;
  extra_stats : unit -> (string * string) list;
}

let create ?max_line ?max_value ?(extra_stats = fun () -> []) ?(on_command = fun _ -> ()) store
    ~tid =
  {
    store;
    tid;
    fr = framer ?max_line ?max_value ();
    ibuf = Bytes.empty;
    ipos = 0;
    ilen = 0;
    out = Bytes.empty;
    olen = 0;
    replies = 0;
    extra_stats;
    on_command;
  }

let is_closed c = closed c.fr

(* -- the reply buffer -- *)

let reserve c n =
  if c.olen + n > Bytes.length c.out then begin
    let nb = Bytes.create (max 1024 (max (c.olen + n) (2 * Bytes.length c.out))) in
    Bytes.blit c.out 0 nb 0 c.olen;
    c.out <- nb
  end

let add_sub c src off n =
  reserve c n;
  Bytes.blit src off c.out c.olen n;
  c.olen <- c.olen + n

let add_string c s = add_sub c (Bytes.unsafe_of_string s) 0 (String.length s)

let add_char c ch =
  reserve c 1;
  Bytes.unsafe_set c.out c.olen ch;
  c.olen <- c.olen + 1

(* A decimal in place, without building its string. *)
let add_int c n =
  if n < 0 then add_string c (string_of_int n)
  else begin
    let digits = ref 1 and p = ref 10 in
    while !digits < 19 && n >= !p do
      incr digits;
      p := !p * 10
    done;
    reserve c !digits;
    let v = ref n in
    for i = c.olen + !digits - 1 downto c.olen do
      Bytes.unsafe_set c.out i (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10
    done;
    c.olen <- c.olen + !digits
  end

let reply c r =
  add_string c r;
  add_string c crlf

let unless c noreply r = if not noreply then reply c r

(* -- commands -- *)

let outcome_reply = function
  | Store.Stored -> "STORED"
  | Store.Not_stored -> "NOT_STORED"
  | Store.Exists -> "EXISTS"
  | Store.Not_found -> "NOT_FOUND"

(* VALUE <key> <flags> <bytes>[ <cas>]\r\n<data>\r\n for one hit, run
   under the store's lock: the data is copied once, from where the
   store keeps it straight into the reply buffer. *)
let add_value c ~with_cas key (it : Store.item) =
  let len = Store.View.length it.data in
  add_string c "VALUE ";
  add_string c key;
  add_char c ' ';
  add_int c it.flags;
  add_char c ' ';
  add_int c len;
  if with_cas then begin
    add_char c ' ';
    add_int c it.cas
  end;
  add_string c crlf;
  reserve c len;
  Store.View.blit it.data ~pos:0 c.out c.olen len;
  c.olen <- c.olen + len;
  add_string c crlf

(* One VALUE block per hit, then END. *)
let rec exec_get c ~with_cas = function
  | [] -> reply c "END"
  | key :: keys ->
      ignore (Store.find c.store ~tid:c.tid key (add_value c ~with_cas key));
      exec_get c ~with_cas keys

let exec_stats c =
  let hits, misses, sets, deletes, expired = Store.stats c.store in
  let base =
    [
      Printf.sprintf "STAT get_hits %d" hits;
      Printf.sprintf "STAT get_misses %d" misses;
      Printf.sprintf "STAT cmd_set %d" sets;
      Printf.sprintf "STAT delete_hits %d" deletes;
      Printf.sprintf "STAT expired_unfetched %d" expired;
    ]
  in
  let extra = List.map (fun (k, v) -> Printf.sprintf "STAT %s %s" k v) (c.extra_stats ()) in
  String.concat crlf (base @ extra @ [ "END" ])

(* Run one frame against the store, appending its reply (if the
   request asked for one) to the reply buffer. *)
let execute c buf fr =
  if fr.verb <> "" then c.on_command fr.verb;
  match fr.cmd with
  | Answer r -> Option.iter (reply c) r
  | Get { cas; keys } -> exec_get c ~with_cas:cas keys
  | Store p ->
      (* the block sits just before the frame's final \r\n; the store
         reads it from there *)
      let expiry = Store.expiry_of_exptime c.store p.exptime in
      Store.store c.store ~tid:c.tid p.op ~flags:p.flags ~expiry p.key buf
        (fr.off + fr.len - 2 - p.bytes)
        p.bytes
      |> outcome_reply |> unless c p.noreply
  | Delete { key; noreply } ->
      unless c noreply (if Store.delete c.store ~tid:c.tid key then "DELETED" else "NOT_FOUND")
  | Arith { key; delta } -> (
      match Store.incr c.store ~tid:c.tid key delta with
      | Some v -> reply c (string_of_int v)
      | None -> reply c "NOT_FOUND")
  | Touch { key; exptime } ->
      let expiry = Store.expiry_of_exptime c.store exptime in
      reply c (if Store.touch c.store ~tid:c.tid key ~expiry then "TOUCHED" else "NOT_FOUND")
  | Flush_all { delay; noreply } ->
      Store.flush_all c.store ?delay_s:(Option.map float_of_int delay) ();
      unless c noreply "OK"
  | Stats -> reply c (exec_stats c)
  | Version -> reply c "VERSION montage-ocaml 1.0"
  | Verbosity { noreply } -> unless c noreply "OK"
  | Quit -> ()

(* Frame and execute; [k] runs after each request that replied. *)
let run c buf ~pos ~len k =
  frames c.fr buf ~pos ~len (fun fr ->
      let before = c.olen in
      execute c buf fr;
      if c.olen > before then k ())

let serve c buf ~pos ~len = run c buf ~pos ~len (fun () -> c.replies <- c.replies + 1)

let flush_replies c sink =
  let n = c.replies in
  if c.olen > 0 then sink c.out 0 c.olen;
  c.olen <- 0;
  c.replies <- 0;
  n

(* Make room for [n] more bytes of [feed] input: compact in place when
   the dead prefix suffices, otherwise reallocate. *)
let ensure_room c n =
  if c.ilen + n > Bytes.length c.ibuf then begin
    let live = c.ilen - c.ipos in
    if live + n <= Bytes.length c.ibuf then Bytes.blit c.ibuf c.ipos c.ibuf 0 live
    else begin
      let nb = Bytes.create (max 256 (max (live + n) (2 * Bytes.length c.ibuf))) in
      Bytes.blit c.ibuf c.ipos nb 0 live;
      c.ibuf <- nb
    end;
    c.ilen <- live;
    c.ipos <- 0
  end

let feed c input =
  if is_closed c then []
  else begin
    let n = String.length input in
    ensure_room c n;
    Bytes.blit_string input 0 c.ibuf c.ilen n;
    c.ilen <- c.ilen + n;
    (* cut each reply out of the reply buffer as it lands *)
    let start = c.olen in
    let mark = ref start and replies = ref [] in
    c.ipos <-
      c.ipos
      + run c c.ibuf ~pos:c.ipos ~len:(c.ilen - c.ipos) (fun () ->
            replies := Bytes.sub_string c.out !mark (c.olen - !mark) :: !replies;
            mark := c.olen);
    c.olen <- start;
    if c.ipos = c.ilen then begin
      c.ipos <- 0;
      c.ilen <- 0
    end;
    List.rev !replies
  end

(* ---- client side: request encoders + reply-unit decoder ----

   The other half of the wire: what a *client* of this protocol needs.
   Every in-tree client (the load generator, the cluster router's
   shard upstreams) frames replies with this one decoder.

   A reply "unit" is the complete answer to one command: a single
   \r\n-terminated line (STORED, DELETED, OK, a decimal, VERSION ..., any
   ERROR flavor), or a get/stats reply — any number of VALUE blocks
   (header line + <bytes>+2 of binary-safe data) or STAT lines,
   terminated by END.  Counting units against commands issued keeps a
   pipelined client in lockstep without knowing each verb's reply
   shape. *)

module Client = struct
  type unit_class = U_ok | U_error | U_server_error

  type unit_result = { cls : unit_class; hits : int }

  (* Decoder state for the unit that starts at the caller's [pos]:
     [parsed] bytes of it are already consumed, the line being scanned
     (if any) starts at unit-relative offset [line_start], and [skip]
     counts VALUE data bytes (+2 for the trailing CRLF) still to
     discard.  The unit's bytes must stay in place (at [pos]) until the
     unit completes — the scanner re-reads only the current line, never
     earlier bytes, so callers may compact consumed units away. *)
  type decoder = {
    mutable parsed : int;
    mutable line_start : int;
    mutable skip : int;
    mutable d_hits : int;
  }

  let decoder () = { parsed = 0; line_start = 0; skip = 0; d_hits = 0 }

  let reset d =
    d.parsed <- 0;
    d.line_start <- 0;
    d.skip <- 0;
    d.d_hits <- 0

  let has_prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p

  (* VALUE <key> <flags> <bytes> [cas] *)
  let value_bytes line =
    match String.split_on_char ' ' line with
    | _ :: _ :: _ :: b :: _ -> ( match int_of_string_opt b with Some n when n >= 0 -> n | _ -> 0)
    | _ -> 0

  (* Resume scanning the unit starting at [pos]; [pos + len) bounds the
     bytes available.  Returns [Some (end_pos, result)] when the unit
     completes — it occupies [pos, end_pos) — or [None] when more bytes
     are needed (state is kept; append bytes and call again). *)
  let next_unit d buf ~pos ~len =
    let limit = pos + len in
    let result = ref None in
    let continue = ref true in
    while !continue && !result = None do
      if d.skip > 0 then begin
        let take = min d.skip (limit - (pos + d.parsed)) in
        d.skip <- d.skip - take;
        d.parsed <- d.parsed + take;
        if d.skip > 0 then continue := false else d.line_start <- d.parsed
      end
      else begin
        (* scan for the next \r\n from the parse frontier: a bare \n
           is line content, as it is to the server's framer *)
        let i = ref (pos + d.parsed) in
        let line_start = pos + d.line_start in
        while
          !i < limit
          && not (Bytes.get buf !i = '\n' && !i > line_start && Bytes.get buf (!i - 1) = '\r')
        do
          incr i
        done;
        if !i >= limit then begin
          d.parsed <- !i - pos;
          continue := false
        end
        else begin
          let line = Bytes.sub_string buf line_start (!i - 1 - line_start) in
          d.parsed <- !i - pos + 1;
          d.line_start <- d.parsed;
          if has_prefix "VALUE " line then begin
            d.d_hits <- d.d_hits + 1;
            d.skip <- value_bytes line + 2
          end
          else if has_prefix "STAT " line then ()  (* stats body: continue to END *)
          else begin
            let cls =
              if line = "END" then U_ok
              else if has_prefix "SERVER_ERROR" line then U_server_error
              else if has_prefix "ERROR" line || has_prefix "CLIENT_ERROR" line then U_error
              else U_ok
            in
            let r = { cls; hits = d.d_hits } in
            let e = d.parsed in
            reset d;
            result := Some (pos + e, r)
          end
        end
      end
    done;
    !result

  let is_err r = r.cls <> U_ok

  (* -- request encoders (append to [Buffer.t], CRLF included) -- *)

  let encode_get out keys =
    Buffer.add_string out "get";
    List.iter
      (fun k ->
        Buffer.add_char out ' ';
        Buffer.add_string out k)
      keys;
    Buffer.add_string out crlf

  let encode_gets out keys =
    Buffer.add_string out "gets";
    List.iter
      (fun k ->
        Buffer.add_char out ' ';
        Buffer.add_string out k)
      keys;
    Buffer.add_string out crlf

  let encode_set out ?(flags = 0) ?(exptime = 0) ?(noreply = false) ~key value =
    Buffer.add_string out
      (Printf.sprintf "set %s %d %d %d%s%s" key flags exptime (String.length value)
         (if noreply then " noreply" else "")
         crlf);
    Buffer.add_string out value;
    Buffer.add_string out crlf

  let encode_delete out ?(noreply = false) key =
    Buffer.add_string out
      (Printf.sprintf "delete %s%s%s" key (if noreply then " noreply" else "") crlf)

  let encode_incr out key delta = Buffer.add_string out (Printf.sprintf "incr %s %d%s" key delta crlf)
  let encode_version out = Buffer.add_string out ("version" ^ crlf)
  let encode_stats out = Buffer.add_string out ("stats" ^ crlf)

  let encode_flush_all out ?delay () =
    match delay with
    | None -> Buffer.add_string out ("flush_all" ^ crlf)
    | Some d -> Buffer.add_string out (Printf.sprintf "flush_all %d%s" d crlf)
end
