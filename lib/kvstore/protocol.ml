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

   Command lines are parsed where they lie in the caller's buffer:
   words are offsets, verbs and keywords are compared in place, and
   only keys are copied out.

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
  mutable words : int array;
      (* the line being parsed: word k is [words.(2k), words.(2k+1)) *)
  max_line : int;
  max_value : int;
}

let framer ?(max_line = 8192) ?(max_value = 1 lsl 20) () =
  { state = Idle; scanned = 0; words = Array.make 32 0; max_line; max_value }

let closed fr = match fr.state with Closed -> true | _ -> false

let crlf = "\r\n"

(* The framer's own answers, built once. *)
let error = Answer (Some "ERROR")
let too_long = Answer (Some "CLIENT_ERROR line too long")
let malformed = Answer (Some "CLIENT_ERROR bad command line format")
let bad_delta = Answer (Some "CLIENT_ERROR invalid numeric delta argument")
let bad_exptime = Answer (Some "CLIENT_ERROR invalid exptime argument")
let bad_delay = Answer (Some "CLIENT_ERROR invalid delay argument")
let bad_chunk = Answer (Some "CLIENT_ERROR bad data chunk")
let too_large = Answer (Some "CLIENT_ERROR object too large for cache")
let silent = Answer None

(* ---- bytes in place ----

   Command lines and reply lines are read where they lie in the
   caller's buffer: words are offsets, verbs and keywords are compared
   byte by byte, and numbers are read digit by digit.  Only keys (and
   the rare number that is not plain digits) are copied out. *)

(* [buf.[s + i, s + n)] equals [lit.[i, n)]; [fold] lowercases the
   buffer's bytes first. *)
let rec same_from ~fold buf s lit i n =
  i = n
  ||
  let c = Bytes.unsafe_get buf (s + i) in
  (if fold then Char.lowercase_ascii c else c) = String.unsafe_get lit i
  && same_from ~fold buf s lit (i + 1) n

let is_word buf s e lit = e - s = String.length lit && same_from ~fold:false buf s lit 0 (e - s)
let is_verb buf s e lit = e - s = String.length lit && same_from ~fold:true buf s lit 0 (e - s)

let has_prefix buf s e lit =
  e - s >= String.length lit && same_from ~fold:false buf s lit 0 (String.length lit)

exception Not_a_number

(* [acc] extended by the decimal digits of [buf.[i, e)]; -1 at the
   first byte that is not a digit. *)
let rec digits buf i e acc =
  if i = e then acc
  else
    match Bytes.unsafe_get buf i with
    | '0' .. '9' as c -> digits buf (i + 1) e ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* [int_of_string_opt]'s reading of [buf.[s, e)].  Up to 18 plain
   digits cannot overflow and are read in place; anything else (a
   sign, a 0x/0o/0b/0u prefix, an underscore, a longer number) goes
   through [int_of_string_opt] on a copy.
   @raise Not_a_number where [int_of_string_opt] answers [None]. *)
let int_at buf s e =
  let n = if e > s && e - s <= 18 then digits buf s e 0 else -1 in
  if n >= 0 then n
  else
    match int_of_string_opt (Bytes.sub_string buf s (e - s)) with
    | Some n -> n
    | None -> raise_notrace Not_a_number

(* ---- command lines (no store access) ---- *)

(* Every verb, each as the one string its frames carry. *)
let verbs =
  [|
    "get"; "set"; "gets"; "delete"; "add"; "replace"; "append"; "prepend"; "cas"; "incr"; "decr";
    "touch"; "flush_all"; "stats"; "version"; "verbosity"; "quit";
  |]

let rec known_verb buf s e i =
  if i = Array.length verbs then
    (* unknown: answered ERROR, and reported under its lowercased self *)
    String.init (e - s) (fun j -> Char.lowercase_ascii (Bytes.get buf (s + j)))
  else if is_verb buf s e verbs.(i) then verbs.(i)
  else known_verb buf s e (i + 1)

let rec word_end buf j eol =
  if j < eol && Bytes.unsafe_get buf j <> ' ' then word_end buf (j + 1) eol else j

(* Split [buf.[i, eol)] at runs of spaces into [fr.words] from word
   [n] on; returns the word count. *)
let rec split fr buf i eol n =
  if i >= eol then n
  else if Bytes.unsafe_get buf i = ' ' then split fr buf (i + 1) eol n
  else begin
    let e = word_end buf i eol in
    if (2 * n) + 1 >= Array.length fr.words then begin
      let w = Array.make (2 * Array.length fr.words) 0 in
      Array.blit fr.words 0 w 0 (Array.length fr.words);
      fr.words <- w
    end;
    fr.words.(2 * n) <- i;
    fr.words.((2 * n) + 1) <- e;
    split fr buf e eol (n + 1)
  end

let w_start fr k = Array.unsafe_get fr.words (2 * k)
let w_end fr k = Array.unsafe_get fr.words ((2 * k) + 1)
let word fr buf k = Bytes.sub_string buf (w_start fr k) (w_end fr k - w_start fr k)
let int_word fr buf k = int_at buf (w_start fr k) (w_end fr k)
let noreply_word fr buf k = is_word buf (w_start fr k) (w_end fr k) "noreply"

(* words [first, k] as a list *)
let rec words_to fr buf first k acc =
  if k < first then acc else words_to fr buf first (k - 1) (word fr buf k :: acc)

(* Report the request that is the line [buf.[off, eol)] alone and
   return where the next one starts. *)
let emit fr f verb cmd off eol =
  fr.scanned <- 0;
  (match cmd with Quit -> fr.state <- Closed | _ -> ());
  f { verb; cmd; off; len = eol + 2 - off };
  eol + 2

(* <verb> <key> <flags> <exptime> <bytes> [cas] [noreply], in [n]
   words.  A well-formed line waits for its block (the request starts
   at [off] still); an oversized block is refused and drained. *)
let storage_line fr buf f verb off eol n =
  let cas = verb = "cas" in
  let last = if cas then 5 else 4 in
  if n <= last || n > last + 2 || (n = last + 2 && not (noreply_word fr buf (last + 1))) then
    emit fr f verb malformed off eol
  else
    match
      ( int_word fr buf 2,
        int_word fr buf 3,
        int_word fr buf 4,
        if cas then int_word fr buf 5 else 0 )
    with
    | exception Not_a_number -> emit fr f verb malformed off eol
    | _, _, bytes, _ when bytes < 0 -> emit fr f verb malformed off eol
    | flags, exptime, bytes, unique ->
        let noreply = n = last + 2 in
        if bytes > fr.max_value then begin
          (* drain the announced block without buffering it; a count
             within 2 of max_int saturates instead of wrapping negative *)
          fr.state <- Discarding (if bytes > max_int - 2 then max_int else bytes + 2);
          emit fr f verb (if noreply then silent else too_large) off eol
        end
        else begin
          let op =
            match verb with
            | "set" -> Set
            | "add" -> Add
            | "replace" -> Replace
            | "append" -> Append
            | "prepend" -> Prepend
            | _ -> Cas unique
          in
          let p = { op; key = word fr buf 1; flags; exptime; bytes; noreply } in
          fr.state <- Awaiting { verb; p; need = eol + 2 - off + bytes + 2 };
          off
        end

(* The request a line of [n] words holds, verb (word 0) aside; storage
   lines are {!storage_line}'s. *)
let command fr buf verb n =
  match verb with
  | "get" when n >= 2 -> Get { cas = false; keys = words_to fr buf 1 (n - 1) [] }
  | "gets" when n >= 2 -> Get { cas = true; keys = words_to fr buf 1 (n - 1) [] }
  | "delete" when n = 2 -> Delete { key = word fr buf 1; noreply = false }
  | "delete" when n = 3 && noreply_word fr buf 2 -> Delete { key = word fr buf 1; noreply = true }
  | ("incr" | "decr") when n = 3 -> (
      match int_word fr buf 2 with
      | exception Not_a_number -> bad_delta
      | d -> Arith { key = word fr buf 1; delta = (if verb = "decr" then -d else d) })
  | "touch" when n = 3 -> (
      match int_word fr buf 2 with
      | exception Not_a_number -> bad_exptime
      | exptime -> Touch { key = word fr buf 1; exptime })
  | "flush_all" -> (
      let noreply = n >= 2 && noreply_word fr buf (n - 1) in
      match n - if noreply then 1 else 0 with
      | 1 -> Flush_all { delay = None; noreply }
      | 2 -> (
          match int_word fr buf 1 with
          | exception Not_a_number -> bad_delay
          | d when d >= 0 -> Flush_all { delay = Some d; noreply }
          | _ -> bad_delay)
      | _ -> malformed)
  | "stats" when n = 1 -> Stats
  | "version" when n = 1 -> Version
  | "verbosity" -> Verbosity { noreply = n >= 2 && noreply_word fr buf (n - 1) }
  | "quit" when n = 1 -> Quit
  | _ -> error

(* Frame the command line [buf.[off, eol)] (its \r\n follows) and
   return where the next request starts. *)
let command_line fr buf f off eol =
  let n = split fr buf off eol 0 in
  if n = 0 then emit fr f "" error off eol
  else
    let verb = known_verb buf (w_start fr 0) (w_end fr 0) 0 in
    match verb with
    | "set" | "add" | "replace" | "append" | "prepend" | "cas" ->
        storage_line fr buf f verb off eol n
    | _ -> emit fr f verb (command fr buf verb n) off eol

(* ---- the framer ---- *)

(* First "\r\n" at or after [i] whose \r lies before [last]; -1 if none. *)
let rec crlf_from buf i last =
  if i >= last then -1
  else if Bytes.unsafe_get buf i = '\r' && Bytes.unsafe_get buf (i + 1) = '\n' then i
  else crlf_from buf (i + 1) last

(* First "\r\n" in [buf.[start + fr.scanned, stop)], or -1; remembers
   the scan frontier so a line split across calls is scanned once. *)
let find_crlf fr buf start stop =
  let eol = crlf_from buf (start + fr.scanned) (stop - 1) in
  (* everything up to the last byte (a possible lone \r) is clean *)
  if eol < 0 then fr.scanned <- max 0 (stop - 1 - start);
  eol

(* Frame requests from [start]; returns where the unconsumed input
   starts. *)
let rec frames_from fr buf f start stop =
  match fr.state with
  | Closed -> start
  | Idle ->
      let eol = find_crlf fr buf start stop in
      if eol < 0 then
        (* a line of L <= max_line bytes occupies at most max_line + 1
           bytes without its final \n, so anything longer is already
           oversized *)
        if stop - start >= fr.max_line + 2 then begin
          f { verb = ""; cmd = too_long; off = start; len = 0 };
          fr.state <- Skipping_line;
          frames_from fr buf f start stop
        end
        else start
      else if eol - start > fr.max_line then begin
        fr.scanned <- 0;
        f { verb = ""; cmd = too_long; off = start; len = eol + 2 - start };
        frames_from fr buf f (eol + 2) stop
      end
      else frames_from fr buf f (command_line fr buf f start eol) stop
  | Awaiting { verb; p; need } ->
      if stop - start >= need then begin
        let e = start + need in
        let cmd =
          if Bytes.get buf (e - 2) = '\r' && Bytes.get buf (e - 1) = '\n' then Store p else bad_chunk
        in
        fr.scanned <- 0;
        fr.state <- Idle;
        f { verb; cmd; off = start; len = need };
        frames_from fr buf f e stop
      end
      else start
  | Discarding remaining ->
      let take = min (stop - start) remaining in
      fr.scanned <- 0;
      if take = remaining then begin
        fr.state <- Idle;
        frames_from fr buf f (start + take) stop
      end
      else begin
        fr.state <- Discarding (remaining - take);
        start + take
      end
  | Skipping_line ->
      (* the error was already answered; drop bytes until \r\n *)
      let eol = find_crlf fr buf start stop in
      if eol >= 0 then begin
        fr.scanned <- 0;
        fr.state <- Idle;
        frames_from fr buf f (eol + 2) stop
      end
      else begin
        fr.scanned <- 0;
        max start (stop - 1)
      end

let frames fr buf ~pos ~len f = frames_from fr buf f pos (pos + len) - pos

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

  (* Position of the [k]-th space at or after [i] in [buf.[i, e)], or
     [e]. *)
  let rec nth_space buf i e k =
    if i >= e then e
    else if Bytes.unsafe_get buf i <> ' ' then nth_space buf (i + 1) e k
    else if k = 1 then i
    else nth_space buf (i + 1) e (k - 1)

  (* The <bytes> field of [VALUE <key> <flags> <bytes> [cas]] in
     [buf.[s, e)]: the fourth of the fields single spaces separate; 0
     when it is missing or not a count. *)
  let value_bytes buf s e =
    let a = nth_space buf s e 3 in
    if a >= e then 0
    else
      match int_at buf (a + 1) (nth_space buf (a + 1) e 1) with
      | n when n >= 0 -> n
      | _ | (exception Not_a_number) -> 0

  (* The first \n in [buf.[i, limit)] that a \r inside the line
     [line_start, ...) precedes, or [limit]: a bare \n is line content,
     as it is to the server's framer. *)
  let rec line_end buf i line_start limit =
    if i >= limit then limit
    else if Bytes.unsafe_get buf i = '\n' && i > line_start && Bytes.unsafe_get buf (i - 1) = '\r'
    then i
    else line_end buf (i + 1) line_start limit

  (* Resume scanning the unit starting at [pos]; [pos + len) bounds the
     bytes available.  Returns [Some (end_pos, result)] when the unit
     completes — it occupies [pos, end_pos) — or [None] when more bytes
     are needed (state is kept; append bytes and call again).  Lines
     are classified where they lie. *)
  let next_unit d buf ~pos ~len =
    let limit = pos + len in
    let result = ref None in
    let continue = ref true in
    while !continue do
      if d.skip > 0 then begin
        let take = min d.skip (limit - (pos + d.parsed)) in
        d.skip <- d.skip - take;
        d.parsed <- d.parsed + take;
        if d.skip > 0 then continue := false else d.line_start <- d.parsed
      end
      else begin
        let s = pos + d.line_start in
        let i = line_end buf (pos + d.parsed) s limit in
        if i >= limit then begin
          d.parsed <- i - pos;
          continue := false
        end
        else begin
          (* the line is [s, e), its \r\n at e *)
          let e = i - 1 in
          d.parsed <- i - pos + 1;
          d.line_start <- d.parsed;
          if has_prefix buf s e "VALUE " then begin
            d.d_hits <- d.d_hits + 1;
            d.skip <- value_bytes buf s e + 2
          end
          else if has_prefix buf s e "STAT " then ()  (* stats body: continue to END *)
          else begin
            let cls =
              if is_word buf s e "END" then U_ok
              else if has_prefix buf s e "SERVER_ERROR" then U_server_error
              else if has_prefix buf s e "ERROR" || has_prefix buf s e "CLIENT_ERROR" then U_error
              else U_ok
            in
            let r = { cls; hits = d.d_hits } in
            let e = d.parsed in
            reset d;
            result := Some (pos + e, r);
            continue := false
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
