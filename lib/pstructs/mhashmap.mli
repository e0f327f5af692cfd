(** Montage hashmap (paper Fig. 2): lock-per-bucket chained map whose
    abstract state — the bag of key/value pairs — lives in NVM
    payloads, while the entire lookup structure is transient OCaml-heap
    data rebuilt on recovery.

    All operations are linearizable; persistence follows the Montage
    buffered-durability contract: a crash rolls the map back to a
    consistent prefix two epochs old (or newer), and
    {!Montage.Epoch_sys.sync} forces the frontier forward. *)

type t

(** [buckets] must be a power of two. *)
val create : ?buckets:int -> Montage.Epoch_sys.t -> t

val esys : t -> Montage.Epoch_sys.t
val size : t -> int

(** Read-only lookup (no epoch bracketing; the bucket lock is the
    transient synchronization). *)
val get : t -> tid:int -> string -> string option

val contains : t -> tid:int -> string -> bool

(** Insert, or update if present; returns the previous value. *)
val put : t -> tid:int -> string -> string -> string option

(** Insert only if absent; [true] on success. *)
val put_if_absent : t -> tid:int -> string -> string -> bool

(** Atomic read-modify-write: [update t ~tid key f] runs [f] on the
    key's current value ([None] if absent) under the bucket lock;
    [Some v'] stores [v'] (inserting if absent), [None] leaves the map
    unchanged.  Returns the previous value.  The primitive behind the
    kvstore's add/replace/incr/decr/CAS operations. *)
val update : t -> tid:int -> string -> (string option -> string option) -> string option

(** Remove; returns the removed value. *)
val remove : t -> tid:int -> string -> string option

(** All pairs (quiescent use: tests, verification). *)
val to_alist : t -> tid:int -> (string * string) list

(** {1 Recovery} *)

(** Rebuild from recovered payloads, reading only each key, so the
    handles stay cold until their first get; [threads > 1] rebuilds
    slices in parallel domains.
    @raise Montage.Errors.Corrupt when two payloads carry one key. *)
val recover : ?buckets:int -> ?threads:int -> Montage.Epoch_sys.t -> Montage.Epoch_sys.pblk array -> t

(** Insert one recovered slice into an existing map (parallel callers
    synchronize via the bucket locks). *)
val recover_slice : t -> Montage.Epoch_sys.pblk array -> unit
