(** Transient reference hashmaps — the paper's DRAM (T) and NVM (T):
    the Montage hashmap's shape with no persistence support.  DRAM (T)
    pays the per-operation value memcpy a C structure pays; NVM (T)
    stores values in unflushed region blocks.

    The node representation is exposed because Pronto's checkpointer
    serializes the whole map through {!iter}. *)

type placement = Dram | Nvm of Pmem.t

type node = {
  key : string;
  mutable value : string;  (** Dram placement *)
  mutable block : int;  (** Nvm placement; -1 if unused *)
  mutable next : node option;
}

type t

(** Mhashmap's stripe count: chain [i] is guarded by lock
    [i land (min buckets stripes - 1)].  {!Soft_map} and
    {!Nvtraverse_map} use it too. *)
val stripes : int

val create : ?buckets:int -> placement -> t
val size : t -> int

(** [iter t f] applies [f] to every node, each chain under its
    bucket's lock; [f] must not call into [t]. *)
val iter : t -> (node -> unit) -> unit

val get : t -> tid:int -> string -> string option
val put : t -> tid:int -> string -> string -> string option

(** Atomic read-modify-write under the bucket lock; [Some v'] stores
    (inserting if absent), [None] leaves the map unchanged.  Returns
    the previous value. *)
val update : t -> tid:int -> string -> (string option -> string option) -> string option

val remove : t -> tid:int -> string -> string option
