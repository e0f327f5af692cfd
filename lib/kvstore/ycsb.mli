(** YCSB core-workload generator (Cooper et al., SoCC '10), as used by
    the paper's memcached experiment (§6.2, workload A).  Deterministic
    given a seed, so every system in a comparison sees an identical
    request stream. *)

type op =
  | Read of string
  | Update of string * string
  | Insert of string * string
  | Rmw of string * string

type spec = {
  records : int;
  read_pct : float;
  update_pct : float;
  insert_pct : float;
  rmw_pct : float;
  value_size : int;
  zipfian : bool;
}

(** The named core workloads.  A: 50r/50u; B: 95r/5u; C: 100r — all
    zipfian. *)

val workload_a : ?records:int -> ?value_size:int -> unit -> spec
val workload_b : ?records:int -> ?value_size:int -> unit -> spec
val workload_c : ?records:int -> ?value_size:int -> unit -> spec

type t

val create : spec -> t

(** YCSB key convention: "user" + zero-padded record number. *)
val key_of_record : int -> string

(** Draw the next operation (thread-safe given per-thread RNGs). *)
val next : t -> Util.Xoshiro.t -> op

(** Preload all records through [set]. *)
val load : t -> set:(string -> string -> unit) -> Util.Xoshiro.t -> unit

(** Run one drawn operation against a store. *)
val execute : t -> tid:int -> Store.t -> op -> unit
