(** Montage ordered map: a concurrent skip list whose key/value
    payloads live in NVM while the entire tower structure is transient
    and rebuilt on recovery — the repository's representative of the
    paper's "various tree-based maps".

    Mutations take a structural lock; reads are lock-free over the
    transient index and touch NVM only for the final payload. *)

type t

val create : ?seed:int -> Montage.Epoch_sys.t -> t
val esys : t -> Montage.Epoch_sys.t
val size : t -> int
val get : t -> tid:int -> string -> string option

(** Insert or update; returns the previous value. *)
val put : t -> tid:int -> string -> string -> string option

(** {!put} that does not read the value it replaces. *)
val set : t -> tid:int -> string -> string -> unit

val remove : t -> tid:int -> string -> string option

(** Ordered fold over keys in [lo, hi] — what a hash map cannot give. *)
val fold_range : t -> tid:int -> lo:string -> hi:string -> init:'a -> ('a -> string -> string -> 'a) -> 'a

val min_binding : t -> tid:int -> (string * string) option

(** All pairs in key order (quiescent use). *)
val to_alist : t -> tid:int -> (string * string) list

(** Rebuild from recovered payloads, reading only each key (key reads
    parallelize over [threads]; insertion is ordered).  The handles
    stay cold until their first get. *)
val recover : ?threads:int -> Montage.Epoch_sys.t -> Montage.Epoch_sys.pblk array -> t
