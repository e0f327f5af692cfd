(** Consistent-hash ring mapping keys to shard ids.

    Each shard contributes [vnodes] points on a 64-bit hash circle
    (FNV-1a of ["shard-<id>-<vnode>"]); a key is owned by the first
    point clockwise from its own hash.  Because a shard's points
    depend only on its id and vnode index, removing one shard moves
    exactly that shard's keyspace onto the survivors — every other
    key's assignment is untouched.  That stability is what lets the
    router answer [SERVER_ERROR shard down] for precisely the dead
    shard's keys while the survivors keep serving theirs. *)

type t

(** [create ?vnodes ids] builds a ring over the given shard ids
    (duplicates ignored).  [vnodes] defaults to 128 points per
    shard, enough to bound per-shard load skew to a few percent at
    small cluster sizes (see the qcheck bound in test_cluster). *)
val create : ?vnodes:int -> int list -> t

val vnodes : t -> int
val shards : t -> int list

(** The 64-bit FNV-1a hash that places keys and vnode points on the
    circle.  Shard heap images depend on key placement, so its values
    never change. *)
val fnv1a_64 : string -> int64

(** Owning shard id for a key.  Raises [Invalid_argument] on an empty
    ring. *)
val lookup : t -> string -> int

(** [keys_on t sid ~prefix n]: the first [n] keys of [prefix0],
    [prefix1], ... that shard [sid] owns — keys a driver can aim at one
    shard.  Raises [Invalid_argument] if [sid] is not on the ring. *)
val keys_on : t -> int -> prefix:string -> int -> string list

(** Ring with shard [id] removed (no-op if absent). *)
val remove : t -> int -> t

(** Ring with shard [id] added (no-op if present). *)
val add : t -> int -> t
