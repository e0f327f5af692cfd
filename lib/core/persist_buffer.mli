(** Per-thread circular write-back buffer (paper §5.2).

    Workers append (offset, length) records of payload ranges that must
    reach NVM by the end of their epoch.  The owner is the only
    producer.  Consumers never pop: {!publish} emits the buffered
    records in place, the caller writes them back and fences, and only
    then does {!retire_upto} move the head past them.  A record is
    therefore always either in the ring or durable, and any thread (an
    epoch advance, a [sync] caller, the owner on a full ring) can help
    flush a peer's records.  Wait-free for the producer and for
    consumers. *)

type t

(** Largest representable record length (payloads are at most 8 KB, so
    the 14-bit packed length field is ample). *)
val max_len : int

val create : capacity:int -> t
val is_empty : t -> bool

(** Owner-called: the ring has no free slot; the owner must publish,
    fence and retire before its next {!push}. *)
val is_full : t -> bool

(** Owner-only append.
    @raise Invalid_argument when the ring is full (see {!is_full}), or
    when [len] exceeds {!max_len} (or is negative, or [off] is
    negative): packing would corrupt the record. *)
val push : t -> off:int -> len:int -> unit

(** Emit every record in [head, tail-observed-at-entry), oldest first,
    without consuming; returns the exclusive stop index for
    {!retire_upto}.  Records pushed during the call (by [f] or by the
    owner) are left for the next publication.  Safe from any thread;
    emitting a record another thread already retired re-issues an
    idempotent write-back. *)
val publish : t -> (int -> int -> unit) -> int

(** Advance the head to at least [upto] (monotonic; cooperating CAS
    steps, at most [upto - head] iterations).  Call only after fencing
    the write-backs of everything below [upto]. *)
val retire_upto : t -> upto:int -> unit

(** Fault injection for the Dsched durable-linearizability harness:
    while set, {!publish} skips its first record but still returns the
    stop index past it — a lost publication the schedule explorer must
    detect.  Test-only; never set in production code. *)
val test_drop_first_publish_record : bool ref
