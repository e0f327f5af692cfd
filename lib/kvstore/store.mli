(** A memcached-like key-value store over a pluggable map backend —
    the paper's §6.2 validation vehicle, reproducing the Kjellqvist et
    al. configuration: a protected-library build that client threads
    call directly, no socket layer.

    Items carry memcached metadata (flags, expiry, CAS id); expiry is
    lazy, as in memcached. *)

(** A value read in place (see {!Montage.Payload.View}). *)
module View = Montage.Payload.View

(** A value written in place (see {!Montage.Payload.fill}). *)
type fill = Montage.Payload.fill = { len : int; write : Bytes.t -> int -> unit }

(** The map the store persists through: the Montage hashmap for the
    persistent build, a transient map for the DRAM/NVM references.
    Values cross it in place: an item's bytes are copied once on the
    way in (straight into the payload, for the Montage hashmap) and
    once on the way out (straight to where the reader wants them). *)
type backend = {
  get : 'a. tid:int -> string -> (View.t -> 'a) -> 'a option;
      (** The value in place: [Some (f v)] where [f] runs on a view of
          the value under the backend's per-key synchronization (for
          the Montage hashmap, the bucket lock, and the view reads the
          payload in the region); [f] copies what it needs before it
          returns. *)
  put : tid:int -> string -> fill -> unit;
      (** Store the value [fill] writes, without reading the old one. *)
  remove : tid:int -> string -> string option;
  update : tid:int -> string -> (View.t option -> fill option) -> unit;
      (** Atomic read-modify-write: [f] runs on a view of the current
          value under the backend's per-key synchronization; its [Some]
          result is stored (inserting if absent), [None] leaves the map
          unchanged.  The fill may read the view.  Every conditional
          store op (add/replace/append/prepend/cas/incr/decr/touch)
          goes through this hook. *)
}

(** Assemble a backend from bare string map operations.  Without
    [?update], the derived read-modify-write is a plain get-then-put —
    fine for single-writer use and reference benchmarks, {e not}
    linearizable under racing conditional ops. *)
val backend :
  get:(tid:int -> string -> string option) ->
  put:(tid:int -> string -> string -> string option) ->
  remove:(tid:int -> string -> string option) ->
  ?update:(tid:int -> string -> (string option -> string option) -> string option) ->
  unit ->
  backend

type t

val create : backend -> t

(** A live item read in place: its data is [data], a view of the
    backend's own bytes (the payload in the region, for the Montage
    hashmap), valid only inside the consumer it is handed to.
    [expiry] is an absolute Unix time, [0.] for never. *)
type item = { flags : int; expiry : float; cas : int; data : View.t }

(** memcached GET in place: [Some (f it)] for the live item [it], with
    [f] run under the backend's lock (a reply copies the data straight
    into its buffer); [None] on miss or lazy expiry. *)
val find : t -> tid:int -> string -> (item -> 'a) -> 'a option

(** Returns (data, flags, cas id): {!find}, with the data copied out. *)
val get_full : t -> tid:int -> string -> (string * int * int) option

val get : t -> tid:int -> string -> string option

(** [true] when the key existed. *)
val delete : t -> tid:int -> string -> bool

(** {1 Stores} *)

type mode = Set | Add | Replace | Append | Prepend | Cas of int

type outcome =
  | Stored
  | Not_stored  (** add over a live item; replace/append/prepend over none *)
  | Exists  (** cas: the item changed since the client read its id *)
  | Not_found  (** cas: no live item under the key *)

(** The absolute expiry for memcached's [exptime]: [0] never expires,
    a negative value gives an item that is already expired, up to
    30 days (2,592,000 s) it counts seconds from now, and above that it
    is an absolute Unix time. *)
val expiry_of_exptime : t -> int -> float

(** [store t ~tid mode ~expiry key src off len]: every memcached
    storage command, with the data at [src.[off, off + len)].  The item
    header and the data are written once, straight into where the
    backend keeps them (the payload, for a [Set] on the Montage
    hashmap).  [Set] is unconditional and never reads the value it
    replaces; the others decide atomically inside [backend.update].
    [Append]/[Prepend] keep the item's flags and take [expiry].  A
    lapsed or flushed item counts as absent. *)
val store :
  t -> tid:int -> mode -> ?flags:int -> expiry:float -> string -> Bytes.t -> int -> int -> outcome

(** Unconditional store (memcached SET).  [ttl_s <= 0] means never
    expires. *)
val set : t -> tid:int -> ?flags:int -> ?ttl_s:float -> string -> string -> unit

(** Store only if absent (memcached ADD). *)
val add : t -> tid:int -> ?flags:int -> ?ttl_s:float -> string -> string -> bool

(** Store only if present (memcached REPLACE). *)
val replace : t -> tid:int -> ?flags:int -> ?ttl_s:float -> string -> string -> bool

(** Store only if the item's CAS id still equals [cas] — the id a prior
    {!get_full} returned (memcached CAS): [Stored], [Exists] or
    [Not_found]. *)
val compare_and_set :
  t -> tid:int -> ?flags:int -> ?ttl_s:float -> string -> cas:int -> string -> outcome

(** memcached TOUCH: give a live item a new absolute [expiry] in one
    atomic step, keeping its data, flags and CAS id; [false] when there
    is no live item. *)
val touch : t -> tid:int -> string -> expiry:float -> bool

(** Arithmetic on a decimal value; [None] if missing or non-numeric.
    DECR saturates at zero, as memcached specifies. *)
val incr : t -> tid:int -> string -> int -> int option

val decr : t -> tid:int -> string -> int -> int option

(** memcached FLUSH_ALL: retire every item currently in the store in
    O(1), with no per-key deletes — a cas-id watermark is published and
    the read path treats older items as lazily expired (removed on
    first touch, counted as [expired]).  With [delay_s > 0] the order
    takes effect that many seconds in the future.  Divergence from
    memcached's time-based rule: items stored {e during} the delay
    window carry ids above the watermark and survive the deadline. *)
val flush_all : t -> ?delay_s:float -> unit -> unit

(** (hits, misses, sets, deletes, expired). *)
val stats : t -> int * int * int * int * int

(** Test hook: replace the wall clock for expiry checks. *)
val set_clock : t -> (unit -> float) -> unit

(** {1 Ready-made backends} *)

val of_mhashmap : Pstructs.Mhashmap.t -> backend
val of_mhamt : Pstructs.Mhamt.t -> backend
val of_transient_map : Baselines.Transient_map.t -> backend
