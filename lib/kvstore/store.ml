(* A memcached-like key-value store over a pluggable map backend.

   The paper's §6.2 validates Montage on the Kjellqvist et al. variant
   of memcached: a protected-library build that client threads call
   directly, with no socket layer.  This store reproduces that
   configuration: memcached item semantics (flags, expiry, CAS id,
   incr/decr, stats) over any of the maps in this repository — the
   Montage hashmap for the persistent build, the transient map for the
   DRAM (T) / NVM (T) references.

   Item format inside the backend value:
     [4 flags | 8 expiry_unix_s (0 = never) | 8 cas id | data].

   One copy per value.  A store lays its item out in place: the header
   and the data (read straight from the caller's buffer — the request
   framer's input on the wire path) are written once, straight into the
   payload (a SET) or into the buffer the backend stores.  A read
   parses the item where the backend keeps it (the payload's bytes in
   the region) and hands a consumer an {!item} that views those bytes;
   the wire reply copies the data once, into the connection's reply
   buffer, while the backend's lock is held. *)

module View = Montage.Payload.View

type fill = Montage.Payload.fill = { len : int; write : Bytes.t -> int -> unit }

type backend = {
  get : 'a. tid:int -> string -> (View.t -> 'a) -> 'a option;
      (* the value in place: [Some (f v)], [f] run on a view of the
         value under the backend's per-key synchronization *)
  put : tid:int -> string -> fill -> unit;
  remove : tid:int -> string -> string option;
  update : tid:int -> string -> (View.t option -> fill option) -> unit;
      (* atomic read-modify-write: [f] runs on the current value under
         the backend's per-key synchronization; its [Some] result is
         stored (inserting if absent), [None] leaves the map unchanged.
         Conditional ops (add/replace/append/prepend/cas/incr/decr/
         touch) go through this hook — composing them from [get] +
         [put] loses updates under concurrency. *)
}

let string_of_fill f = Bytes.unsafe_to_string (Montage.Payload.bytes_of_fill f)

let of_strings ~get ~put ~remove ~update =
  {
    get = (fun ~tid k f -> Option.map (fun v -> f (View.of_string v)) (get ~tid k));
    put = (fun ~tid k f -> ignore (put ~tid k (string_of_fill f)));
    remove;
    update =
      (fun ~tid k f ->
        ignore
          (update ~tid k (fun cur ->
               Option.map string_of_fill (f (Option.map View.of_string cur)))));
  }

(* Assemble a backend from bare map operations.  When the map exposes
   no atomic read-modify-write, the derived [update] is a plain
   get-then-put: fine for single-writer use and reference benchmarks,
   NOT linearizable under racing conditional ops. *)
let backend ~get ~put ~remove ?update () =
  let update =
    match update with
    | Some u -> u
    | None ->
        fun ~tid key f ->
          let old = get ~tid key in
          (match f old with Some v -> ignore (put ~tid key v) | None -> ());
          old
  in
  of_strings ~get ~put ~remove ~update

(* statistic slots in the padded counter block *)
let stat_hits = 0
and stat_misses = 1
and stat_sets = 2
and stat_deletes = 3
and stat_expired = 4

(* One flush_all order: items whose cas id is below [mark] become
   invisible once the wall clock reaches [at].  A single atomic record
   swap makes the whole flush O(1) — no per-key deletes, mirroring how
   the epoch clock retires whole generations at once. *)
type flush_order = { mark : int; at : float }

type t = {
  backend : backend;
  cas_counter : int Atomic.t;
  stats : Util.Padded.counters; (* lock-free, padded: no hot-path lock *)
  flush : flush_order Atomic.t;
  (* test hook: lets expiry tests travel in time *)
  mutable now : unit -> float;
}

let create backend =
  {
    backend;
    cas_counter = Atomic.make 1;
    stats = Util.Padded.make_counters 5;
    flush = Atomic.make { mark = 0; at = 0.0 };
    now = Unix.gettimeofday;
  }

let bump t slot = Util.Padded.incr t.stats slot
let next_cas t = Atomic.fetch_and_add t.cas_counter 1

(* ---- the item, in place ---- *)

let item_header = 20

type item = { flags : int; expiry : float; cas : int; data : View.t }

(* An item whose data is [data] followed by [rest] (append/prepend join
   two pieces; every other store passes an empty second one), written
   where the backend asks: the one copy of each piece. *)
let item_fill ~flags ~expiry ~cas ?(rest = View.empty) data =
  let len = View.length data and len' = View.length rest in
  {
    len = item_header + len + len';
    write =
      (fun b at ->
        Bytes.set_int32_le b at (Int32.of_int flags);
        Bytes.set_int64_le b (at + 4) (Int64.of_float expiry);
        Bytes.set_int64_le b (at + 12) (Int64.of_int cas);
        View.blit data ~pos:0 b (at + item_header) len;
        View.blit rest ~pos:0 b (at + item_header + len) len');
  }

let parse v =
  let h = Bytes.create item_header in
  View.blit v ~pos:0 h 0 item_header;
  {
    flags = Int32.to_int (Bytes.get_int32_le h 0);
    expiry = Int64.to_float (Bytes.get_int64_le h 4);
    cas = Int64.to_int (Bytes.get_int64_le h 12);
    data = View.sub v ~pos:item_header ~len:(View.length v - item_header);
  }

(* ---- expiry ---- *)

(* memcached's exptime: 0 never expires, a negative value stores an
   item that is already expired, up to 30 days it is seconds from now,
   and above that an absolute Unix time.  Stored expiries are absolute;
   "already expired" is a time before any clock reading. *)
let thirty_days = 2_592_000
let already_expired = -1.0

let expiry_of_exptime t exptime =
  if exptime = 0 then 0.0
  else if exptime < 0 then already_expired
  else if exptime > thirty_days then float_of_int exptime
  else t.now () +. float_of_int exptime

let expiry_of_ttl t ttl_s = if ttl_s > 0.0 then t.now () +. ttl_s else 0.0

(* memcached FLUSH_ALL: retire every current item in one step.  The
   watermark is the cas counter at command time: every existing item has
   a smaller cas id, every later store a larger one, so visibility is a
   single integer compare on the read path.  With [delay_s > 0] the
   order arms in the future; items stored during the delay window carry
   ids above the watermark and survive (memcached's time-based variant
   would also retire those — we document the divergence in the mli). *)
let flush_all t ?(delay_s = 0.0) () =
  let at = if delay_s > 0.0 then t.now () +. delay_s else t.now () in
  let mark = Atomic.get t.cas_counter in
  (* keep the strongest order: a later watermark never retreats, and of
     equal watermarks the earlier deadline wins *)
  let rec install () =
    let cur = Atomic.get t.flush in
    let next =
      if mark > cur.mark then { mark; at }
      else if mark = cur.mark && at < cur.at then { mark; at }
      else cur
    in
    if next != cur && not (Atomic.compare_and_set t.flush cur next) then install ()
  in
  install ()

(* An item is dead once its expiry has passed, or when an armed flush
   order's deadline has passed and the item predates its watermark.
   The clock is read only when one of the two can apply. *)
let dead t it =
  let o = Atomic.get t.flush in
  let flushable = o.mark > 0 && it.cas < o.mark in
  (it.expiry <> 0.0 || flushable)
  &&
  let now = t.now () in
  (it.expiry <> 0.0 && it.expiry < now) || (flushable && now >= o.at)

(* The live item under a backend view, if any: a stored item whose TTL
   has lapsed or that a flush retired counts as absent. *)
let live t = function
  | None -> None
  | Some v ->
      let it = parse v in
      if dead t it then None else Some it

(* ---- reads ---- *)

(* memcached GET, in place: [f] runs on the live item under the
   backend's lock.  A lapsed item leaves the consumer by [Expired] and
   is removed after the lock is released, lazily, as memcached does;
   flushed items expire the same way on first touch. *)
exception Expired

let find t ~tid key f =
  match
    t.backend.get ~tid key (fun v ->
        let it = parse v in
        if dead t it then raise_notrace Expired;
        f it)
  with
  | Some _ as r ->
      bump t stat_hits;
      r
  | None ->
      bump t stat_misses;
      None
  | exception Expired ->
      ignore (t.backend.remove ~tid key);
      bump t stat_misses;
      bump t stat_expired;
      None

let copy_data it = View.to_string it.data
let get_full t ~tid key = find t ~tid key (fun it -> (copy_data it, it.flags, it.cas))
let get t ~tid key = find t ~tid key copy_data

let delete t ~tid key =
  match t.backend.remove ~tid key with
  | None -> false
  | Some _ ->
      bump t stat_deletes;
      true

(* ---- stores ---- *)

type mode = Set | Add | Replace | Append | Prepend | Cas of int
type outcome = Stored | Not_stored | Exists | Not_found

(* Every storage command.  A SET is unconditional and never reads the
   value it replaces.  The others decide inside [backend.update], so
   the check and the store are one atomic step that a racing writer
   cannot slip between. *)
let store t ~tid mode ?(flags = 0) ~expiry key src off len =
  let data = View.of_bytes src ~off ~len in
  let outcome =
    match mode with
    | Set ->
        t.backend.put ~tid key (item_fill ~flags ~expiry ~cas:(next_cas t) data);
        Stored
    | Add | Replace | Append | Prepend | Cas _ ->
        let fresh () = item_fill ~flags ~expiry ~cas:(next_cas t) data in
        let outcome = ref Not_stored in
        t.backend.update ~tid key (fun cur ->
            let o, fill =
              match (mode, live t cur) with
              | Set, _ | Add, None | Replace, Some _ -> (Stored, Some (fresh ()))
              | Cas id, Some it when it.cas = id -> (Stored, Some (fresh ()))
              | Cas _, Some _ -> (Exists, None)
              | Cas _, None -> (Not_found, None)
              | Append, Some it ->
                  (* the item keeps its flags *)
                  ( Stored,
                    Some (item_fill ~flags:it.flags ~expiry ~cas:(next_cas t) ~rest:data it.data) )
              | Prepend, Some it ->
                  ( Stored,
                    Some (item_fill ~flags:it.flags ~expiry ~cas:(next_cas t) ~rest:it.data data) )
              | Add, Some _ | (Replace | Append | Prepend), None -> (Not_stored, None)
            in
            outcome := o;
            fill);
        !outcome
  in
  if outcome = Stored then bump t stat_sets;
  outcome

let store_string t ~tid mode ?flags ~ttl_s key data =
  store t ~tid mode ?flags ~expiry:(expiry_of_ttl t ttl_s) key (Bytes.unsafe_of_string data) 0
    (String.length data)

(* memcached SET: unconditional store. *)
let set t ~tid ?flags ?(ttl_s = 0.0) key data = ignore (store_string t ~tid Set ?flags ~ttl_s key data)

(* memcached ADD: store only if absent. *)
let add t ~tid ?flags ?(ttl_s = 0.0) key data = store_string t ~tid Add ?flags ~ttl_s key data = Stored

(* memcached REPLACE: store only if present. *)
let replace t ~tid ?flags ?(ttl_s = 0.0) key data =
  store_string t ~tid Replace ?flags ~ttl_s key data = Stored

(* memcached CAS: store only if the item's id matches the one the
   client last read. *)
let compare_and_set t ~tid ?flags ?(ttl_s = 0.0) key ~cas data =
  store_string t ~tid (Cas cas) ?flags ~ttl_s key data

(* memcached TOUCH: a new expiry for a live item; its data, flags and
   cas id stay. *)
let touch t ~tid key ~expiry =
  let touched = ref false in
  t.backend.update ~tid key (fun cur ->
      match live t cur with
      | None -> None
      | Some it ->
          touched := true;
          Some (item_fill ~flags:it.flags ~expiry ~cas:it.cas it.data));
  !touched

(* memcached INCR/DECR on a decimal value; [None] if missing or NaN.
   DECR saturates at zero, as memcached specifies.  Flags and expiry
   survive the arithmetic. *)
let incr t ~tid key delta =
  let result = ref None in
  t.backend.update ~tid key (fun cur ->
      match live t cur with
      | None -> None
      | Some it -> (
          match int_of_string_opt (String.trim (copy_data it)) with
          | None -> None
          | Some v ->
              let v' = max 0 (v + delta) in
              result := Some v';
              let s = string_of_int v' in
              Some
                (item_fill ~flags:it.flags ~expiry:it.expiry ~cas:(next_cas t) (View.of_string s))));
  if !result <> None then bump t stat_sets;
  !result

let decr t ~tid key delta = incr t ~tid key (-delta)

let stats t =
  ( Util.Padded.get t.stats stat_hits,
    Util.Padded.get t.stats stat_misses,
    Util.Padded.get t.stats stat_sets,
    Util.Padded.get t.stats stat_deletes,
    Util.Padded.get t.stats stat_expired )

(* test hook *)
let set_clock t clock = t.now <- clock

(* ---- ready-made backends ---- *)

let of_mhashmap (m : Pstructs.Mhashmap.t) =
  {
    get = (fun ~tid k -> Pstructs.Mhashmap.find m ~tid k);
    put = (fun ~tid k f -> Pstructs.Mhashmap.set m ~tid k f);
    remove = (fun ~tid k -> Pstructs.Mhashmap.remove m ~tid k);
    update = (fun ~tid k f -> Pstructs.Mhashmap.modify m ~tid k f);
  }

let of_mhamt (m : Pstructs.Mhamt.t) =
  of_strings ~get:(Pstructs.Mhamt.get m) ~put:(Pstructs.Mhamt.set m)
    ~remove:(Pstructs.Mhamt.remove m) ~update:(Pstructs.Mhamt.update m)

let of_transient_map (m : Baselines.Transient_map.t) =
  of_strings ~get:(Baselines.Transient_map.get m) ~put:(Baselines.Transient_map.put m)
    ~remove:(Baselines.Transient_map.remove m) ~update:(Baselines.Transient_map.update m)
