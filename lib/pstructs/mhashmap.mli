(** Montage hashmap (paper Fig. 2): a chained map under striped bucket
    locks whose abstract state — the bag of key/value pairs — lives in NVM
    payloads, while the entire lookup structure is transient OCaml-heap
    data rebuilt on recovery.

    All operations are linearizable; persistence follows the Montage
    buffered-durability contract: a crash rolls the map back to a
    consistent prefix two epochs old (or newer), and
    {!Montage.Epoch_sys.sync} forces the frontier forward. *)

type t

(** The size of the map's lock table: bucket [i] is guarded by lock
    [i land (min buckets stripes - 1)], so a map of at most [stripes]
    buckets has a lock per bucket. *)
val stripes : int

(** @raise Invalid_argument unless [buckets] (default 65,536) is a
    positive power of two. *)
val create : ?buckets:int -> Montage.Epoch_sys.t -> t

val esys : t -> Montage.Epoch_sys.t
val size : t -> int

(** Read-only lookup in place (no epoch bracketing; the bucket lock is
    the transient synchronization): [Some (f v)] where [v] views the
    key's value straight in the region — the first read of a cold
    payload pays its charged load, later ones are uncharged.  [f] runs
    under the bucket lock, so it sees one version, and copies what it
    needs before it returns; the view is not valid after.  [f] must not
    call into the same map. *)
val find : t -> tid:int -> string -> (Montage.Payload.View.t -> 'a) -> 'a option

(** {!find}, copied out. *)
val get : t -> tid:int -> string -> string option

val contains : t -> tid:int -> string -> bool

(** Insert, or update if present, with the value written in place:
    the key and [fill]'s bytes are written once, straight into the
    payload, through one [pnew_fill]/[pset_fill].  The value it replaces
    is never read, and nothing value-sized is allocated. *)
val set : t -> tid:int -> string -> Montage.Payload.fill -> unit

(** Insert, or update if present; returns the previous value. *)
val put : t -> tid:int -> string -> string -> string option

(** Insert only if absent; [true] on success. *)
val put_if_absent : t -> tid:int -> string -> string -> bool

(** Atomic read-modify-write in place: [modify t ~tid key f] runs [f]
    on a view of the key's current value (as {!find} hands it; [None]
    if absent) under the bucket lock; [Some fill] stores the value
    [fill] writes (inserting if absent), [None] leaves the map
    unchanged.  [fill] may read the view: it is laid out in a staging
    buffer before the store.  The primitive behind the kvstore's
    conditional operations.  [f] must not call into the same map: the
    lock it runs under also guards every other bucket of its stripe. *)
val modify :
  t ->
  tid:int ->
  string ->
  (Montage.Payload.View.t option -> Montage.Payload.fill option) ->
  unit

(** {!modify} over strings: [f] sees the current value copied out,
    [Some v'] stores [v'].  Returns the previous value. *)
val update : t -> tid:int -> string -> (string option -> string option) -> string option

(** Remove; returns the removed value. *)
val remove : t -> tid:int -> string -> string option

(** All pairs (quiescent use: tests, verification). *)
val to_alist : t -> tid:int -> (string * string) list

(** {1 Recovery} *)

(** Rebuild from recovered payloads, reading only each key, so the
    handles stay cold until their first get; [threads > 1] rebuilds
    slices in parallel domains.
    @raise Montage.Errors.Corrupt when two payloads carry one key.
    @raise Invalid_argument as {!create} does. *)
val recover : ?buckets:int -> ?threads:int -> Montage.Epoch_sys.t -> Montage.Epoch_sys.pblk array -> t

(** Insert one recovered slice into an existing map (parallel callers
    synchronize via the bucket locks). *)
val recover_slice : t -> Montage.Epoch_sys.pblk array -> unit
