(** Montage-backed persistent HAMT with O(1) snapshots.

    A hash-array-mapped trie (branching factor 16, inlined collision
    leaves) whose abstract state — the bag of key/value records — lives
    in NVM payloads, while the trie itself is {e immutable} transient
    OCaml-heap data: every mutation path-copies the nodes from the
    changed leaf to the root and publishes the new root with one atomic
    store.  A {!snapshot} is therefore a single root read: the returned
    {!view} names an immutable version that {!View.find}/{!View.fold}
    can traverse concurrently with writers, for as long as the caller
    keeps it — long scans and online backups never block the write
    path, and writers never block scans.

    Persistence follows the Montage buffered-durability contract.  Each
    record payload carries [(key, seq, value-or-tombstone)] where [seq]
    is the map's version counter at the mutation: an overwrite writes a
    fresh payload (never [pset] — a snapshot may still be reading the
    old bytes) and a remove writes a tombstone, so recovery keeps, per
    key, the record with the largest [seq] and drops tombstoned keys.
    Superseded payloads are {e retired}, not deleted: a retired payload
    is handed to {!Montage.Epoch_sys.pdelete} (and from there to the
    epoch system's exchange-claimed reclamation) only once no live
    snapshot can still reach it — the tombstone that shadows it is
    deleted in the same operation, keeping every crash state
    prefix-consistent.

    Reads of the {e current} map are lock-free and optimistic: a lookup
    that loses a race against retirement of the very payload it resolved
    (observable only as [Use_after_free]) retries from the newer root.
    View reads need no retry — an unreleased view pins its payloads. *)

type t

type view

(** [hash] defaults to {!Hashtbl.hash}; tests inject degenerate hashes
    to force collision leaves.  Only the low 30 bits are used. *)
val create : ?hash:(string -> int) -> Montage.Epoch_sys.t -> t

val esys : t -> Montage.Epoch_sys.t

(** Number of live keys. *)
val size : t -> int

(** The version counter: total mutations applied (also the [seq]
    stamped into the newest payload). *)
val version : t -> int

(** Retired payloads still pinned by live snapshots (or awaiting the
    next reclamation point).  Reaches 0 once every view is released and
    a mutation or {!release} has run. *)
val pending_reclaim : t -> int

(** Lock-free read of the current version. *)
val get : t -> tid:int -> string -> string option

val contains : t -> tid:int -> string -> bool

(** Insert, or overwrite if present; returns the previous value. *)
val put : t -> tid:int -> string -> string -> string option

(** {!put} that does not read the value it replaces. *)
val set : t -> tid:int -> string -> string -> unit

(** Insert only if absent; [true] on success. *)
val put_if_absent : t -> tid:int -> string -> string -> bool

(** Atomic read-modify-write under the writer lock: [Some v'] stores
    [v'] (inserting if absent), [None] leaves the map unchanged.
    Returns the previous value. *)
val update : t -> tid:int -> string -> (string option -> string option) -> string option

(** Remove; returns the removed value.  Durability is carried by a
    tombstone payload until the removed record is reclaimed. *)
val remove : t -> tid:int -> string -> string option

(** Consistent listing of the current version (an internal snapshot —
    safe concurrently with writers). *)
val to_alist : t -> tid:int -> (string * string) list

(** {1 Snapshots} *)

(** O(1): one atomic root read plus a registry insert.  The view pins
    every payload reachable from its root until {!release}. *)
val snapshot : t -> view

(** Unpin the view and reclaim whatever it alone was holding.  The
    first call wins; reading a released view raises
    [Invalid_argument]. *)
val release : t -> view -> tid:int -> unit

module View : sig
  (** The map version this view names. *)
  val version : view -> int

  val find : view -> tid:int -> string -> string option
  val mem : view -> string -> bool
  val iter : view -> tid:int -> (string -> string -> unit) -> unit
  val fold : view -> tid:int -> ('a -> string -> string -> 'a) -> 'a -> 'a
  val to_alist : view -> tid:int -> (string * string) list
  val cardinal : view -> int
end

(** {1 Recovery} *)

(** Rebuild from recovered payloads: per key the largest-[seq] record
    wins, tombstone winners erase the key, and every superseded block
    is queued for reclamation at the first post-recovery mutation.
    Each record is read only up to its key (seq, kind, key), never its
    value, so the recovered handles stay cold until their first get.
    [threads > 1] reads payload slices in parallel domains. *)
val recover :
  ?hash:(string -> int) -> ?threads:int -> Montage.Epoch_sys.t -> Montage.Epoch_sys.pblk array -> t

(** The record payload codec, [(key, seq, value or tombstone)]:
    [8B seq | 1B kind | 4B klen | key | value].  Exposed so tests can
    check recovery against a full decode. *)
module Rec_content : Montage.Payload.CONTENT with type t = string * int * string option
