(** Dsched — a deterministic scheduler and schedule/crash-space
    explorer for the Montage runtime.

    The concurrency-bearing modules mark their interesting points with
    {!Util.Sched.yield}/{!Util.Sched.await}.  In production no hook is
    installed and those are no-ops; here, Dsched installs a hook that
    turns every mark into an effect, runs each logical thread as a
    cooperative fiber on one domain, and decides at every scheduling
    point which fiber runs next — or that the machine loses power right
    there.  A scenario is thus explored over the cross product of
    thread interleavings and crash points, deterministically and
    replayably (see DESIGN.md, "Dsched").

    Three exploration modes:
    - {!Exhaustive}: depth-first over every schedule within a
      context-switch (preemption) bound, optionally branching a crash
      at every scheduling point of every explored prefix;
    - {!Pct}: PCT-style randomized priority schedules with [d] priority
      change points, seeded — a failing run prints its per-run seed,
      and re-running with that seed reproduces it exactly;
    - {!Replay}: follow a recorded (typically shrunk) trace.

    Failing schedules are automatically shrunk to a minimal trace by
    greedy choice deletion with replay validation. *)

(** One scheduling decision: run fiber [i] next, or lose power here. *)
type choice = Run of int | Crash

(** A schedule as executed: the choice taken at each scheduling point. *)
type trace = choice list

(** Compact, stable serialization ("0.0.1.c") for CI logs and replay. *)
val trace_to_string : trace -> string

(** @raise Invalid_argument on malformed input. *)
val trace_of_string : string -> trace

type failure = {
  reason : string;  (** what went wrong (check failed, deadlock, exception) *)
  trace : trace;  (** shrunk to a locally-minimal failing schedule *)
  raw_trace : trace;  (** the originally observed failing schedule *)
  seed : int option;  (** per-run PCT seed, when the mode was {!Pct} *)
}

(** Render a failure with its seed and shrunk trace — the two things
    needed to reproduce it (see README, "Replaying a Dsched failure"). *)
val failure_to_string : failure -> string

type report = {
  schedules : int;  (** completed-run attempts explored *)
  crash_branches : int;  (** crash attempts explored *)
  max_points : int;  (** scheduling points on the longest schedule *)
  failure : failure option;
  truncated : bool;  (** an exploration bound was hit before exhaustion *)
}

(** A scenario under test.  [init] builds a fresh instance per attempt
    (exploration re-executes from scratch for every branch — state must
    be fully reconstructed).  [threads] are the logical threads, run as
    fibers.  [check_crash], when provided, is invoked at injected crash
    points — typically: crash the region, run recovery, validate the
    recovered state — and enables crash branching.  [check_done]
    validates the final state of a completed run.  Both run with the
    scheduler hook uninstalled, so they may freely call instrumented
    code.  Scenario code must be deterministic up to scheduling: no
    wall-clock, no unseeded randomness, no [auto_advance] domains. *)
type 'a scenario = {
  init : unit -> 'a;
  threads : ('a -> unit) array;
  check_crash : ('a -> bool) option;
  check_done : ('a -> bool) option;
}

type mode =
  | Exhaustive of { preemptions : int; max_attempts : int; crashes : bool }
      (** DFS over all schedules with at most [preemptions] involuntary
          context switches; when [crashes] (and [check_crash] is
          provided), additionally branch a crash at every scheduling
          point of every explored prefix.  [max_attempts] bounds total
          attempts (schedules + crash branches); hitting it marks the
          report truncated. *)
  | Pct of { runs : int; seed : int; change_points : int }
      (** [runs] random priority schedules derived from [seed]; each
          run demotes the running fiber at [change_points] random
          points, and (when [check_crash] is provided) crashes at a
          random point on half the runs. *)
  | Replay of trace
      (** Follow [trace]; diverging points (a chosen fiber no longer
          enabled) fall back deterministically, and execution continues
          to completion past the end of the trace. *)

(** Explore the scenario's schedule space.  Stops at the first failure
    (shrinking it before reporting).  Runs with a minor heap of at
    least 32 MiB, so an attempt's region and structure die young; the
    caller's minor heap size is restored on return and on raise. *)
val explore : mode -> 'a scenario -> report

(** Exploration mode requested by the environment, for the CI legs:
    [MONTAGE_SCHED] = [random]/[pct] (uses [MONTAGE_SCHED_RUNS],
    default 200, and [MONTAGE_SCHED_SEED], default 1),
    [exhaustive] (uses [MONTAGE_SCHED_PREEMPTIONS], default 2), or
    [replay] (uses [MONTAGE_SCHED_TRACE]).  [None] when unset, empty,
    or [off] — callers then use their built-in default mode. *)
val mode_from_env : unit -> mode option
