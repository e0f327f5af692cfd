(** Mutual-exclusion lock for short critical sections.

    Backed by an OS mutex rather than a pure spin: with more domains
    than cores a spinning waiter burns the timeslice the holder needs.
    The module keeps its historical name; call sites are agnostic. *)

type t

val create : unit -> t
val acquire : t -> unit
val try_acquire : t -> bool
val release : t -> unit

(** Run [f] holding the lock; released on return or raise. *)
val with_lock : t -> (unit -> 'a) -> 'a

(** {1 Lock striping}

    A fixed table of locks for an array of [slots] slots: [min slots
    stripes] locks, slot [i] guarded by lock [i land (locks - 1)].
    Every slot maps to exactly one lock, and with [slots <= stripes]
    each slot has its own. *)

type table

(** @raise Invalid_argument unless [stripes] and [slots] are positive
    powers of two. *)
val table : stripes:int -> slots:int -> table

(** The lock guarding slot [i]. *)
val stripe : table -> int -> t
