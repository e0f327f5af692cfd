(** Pcheck — a persistency-ordering checker and durability linter for
    the simulated NVM substrate (PMTest-style assertion checking).

    Attach a checker to a region with {!Region.enable_pcheck}; the
    region and the Montage runtime then feed it the per-line event
    lattice (store → writeback → fence → epoch-advance → crash) and it
    enforces correctness rules online and accumulates performance
    lints.  Disabled, the substrate pays one branch per primitive and
    allocates nothing.

    See DESIGN.md "Pcheck" for the event model and the rule catalog. *)

(** {1 Findings} *)

type violation =
  | Read_unfenced_after_crash of { off : int; len : int; line : int }
      (** a post-crash read touched a line whose media content was
          produced by unfenced persistence, outside a declared
          recovery scan *)
  | Store_flush_race of { tid : int; off : int; len : int; line : int }
      (** a line reached its fence with a store newer than its last
          write-back: the queued CLWB may have completed without that
          data.  Detected at drain time; a re-issued write-back before
          the fence restores coverage and is clean, as does
          re-registering the line with a persist buffer
          ({!on_buffer_push}) — that re-opens the flush contract for
          the new content, enforced by {!Epoch_retired_unflushed};
          a store made while a thread's {!on_rewrite} declaration
          covers the line never makes it racy. *)
  | Epoch_retired_unflushed of { tid : int; epoch : int; off : int; len : int; clock : int }
      (** a persist-buffer range missed its two-epoch durability
          deadline *)
  | Linearize_epoch_mismatch of { epoch : int; clock : int }
      (** an epoch-verified DCSS decided success against the wrong
          clock *)
  | Epoch_clock_regression of { from_ : int; to_ : int }
      (** {!on_epoch_advance} reported an epoch lower than one already
          observed in this pre-crash execution — under the nonblocking
          advance only the winning helper may report its tick, and a
          loser publishing a stale epoch would move recovery cutoffs
          backwards.  The watermark resets on crash (recovery may
          legally resume at a lower clock). *)
  | Contract of { what : string; off : int; len : int; line : int }
      (** an {!expect_fenced} assertion failed *)

val violation_to_string : violation -> string

exception Violation of violation

type lint = Clean_writeback | Empty_fence | Duplicate_flush

val lint_name : lint -> string

(** [Record] accumulates violations for later inspection; [Enforce]
    additionally raises {!Violation} at the detection point.  Lints are
    always only recorded. *)
type mode = Record | Enforce

type t

(** Usually called via {!Region.enable_pcheck}.  [log_events] keeps a
    replayable event log (required by {!explore}); [max_log] bounds it. *)
val create :
  ?mode:mode -> ?log_events:bool -> ?max_log:int -> capacity:int -> max_threads:int -> unit -> t

val mode : t -> mode

(** {1 Hooks} — invoked by [Region] and [Montage.Epoch_sys]; not meant
    for application code (tests may drive them directly). *)

val on_store : t -> off:int -> len:int -> work:Bytes.t -> unit
val on_read : t -> off:int -> len:int -> unit
val on_writeback : t -> tid:int -> off:int -> len:int -> unit
val on_drain : t -> tid:int -> unit
val on_fence : t -> tid:int -> pending:int -> unit
val on_crash : t -> injected:int list -> unit
val on_buffer_push : t -> tid:int -> epoch:int -> off:int -> len:int -> unit

(** [tid] is about to store into [\[off, off+len)] and then re-register
    the range with a persist buffer ({!on_buffer_push}) or its own
    write-back ({!on_writeback}), either of which closes the
    declaration.  Stores into the declared lines do not make another
    thread's queued write-back of them racy: without the declaration a
    drain landing between the store and the push would flag a race the
    push is about to forgive. *)
val on_rewrite : t -> tid:int -> off:int -> len:int -> unit
val on_epoch_advance : t -> epoch:int -> unit
val on_linearize : t -> epoch:int -> clock:int -> success:bool -> unit

(** {1 Declared contracts} *)

(** Assert that every line covering [off, off+len) has reached media
    since its last store (not dirty, not write-pending).  Structures
    place these at the points their flush contract requires durability,
    so a violation names the broken contract ([what]). *)
val expect_fenced : t -> what:string -> off:int -> len:int -> unit

(** Recovery code whose design makes reading unfenced-persisted lines
    sound (e.g. Montage's epoch-filtered header scan) brackets the scan
    with [set_recovery_scan true/false] to suppress the
    read-after-crash rule. *)
val set_recovery_scan : t -> bool -> unit

(** {1 Findings access} *)

val violations : t -> violation list
val clear_violations : t -> unit

(** (lint, attributed call site, count), most frequent first. *)
val lint_counts : t -> (lint * string * int) list

val lint_total : t -> int

(** Human-readable digest of violations and per-site lint counts. *)
val summary : t -> string

(** {1 Bounded crash-state enumeration} *)

type explore_report = {
  states : int;  (** media states materialized and checked *)
  failures : int;  (** states on which the predicate returned false *)
  first_failure : string option;
  truncated : bool;  (** log overflowed or the state bound was hit *)
}

(** Replay the event log and assert [predicate] on every
    fence-respecting media state: at each point where durable state
    could change, the fenced prefix plus each subset of
    queued-but-unfenced ranges (every CLWB may independently have
    completed).  [max_states] bounds total predicate calls;
    [max_pending_bits] bounds per-point subset enumeration (beyond it
    only the none/all extremes are checked and the report is marked
    truncated).
    @raise Invalid_argument if the checker was created without
    [~log_events:true]. *)
val explore : ?max_states:int -> ?max_pending_bits:int -> t -> (string -> bool) -> explore_report
