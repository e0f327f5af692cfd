(** Line-granular write-back coalescer.

    A drain collects the byte ranges of every persist record it is
    about to flush, then {!flush}es: runs are sorted by first 64 B line
    and overlapping or adjacent runs merged, so each line is written
    back at most once per drain regardless of how many buffered records
    covered it.  Single-owner: a coalescer belongs to the draining
    thread; no internal synchronization. *)

type t

val create : ?initial_capacity:int -> unit -> t
val is_empty : t -> bool

(** Queue the lines covering byte range [off, off+len).  [len <= 0] is
    a no-op. *)
val add : t -> off:int -> len:int -> unit

(** Sort, merge, and [emit] each merged line run exactly once (runs
    separated by a gap are never bridged).  Resets the coalescer and
    returns [(ranges, lines_in, lines_out)]: records added, lines they
    covered before merging, lines emitted. *)
val flush : t -> emit:(first:int -> lines:int -> unit) -> int * int * int
