(** Cost model for the simulated persistent-memory device.

    Costs are realized as calibrated busy-waits on the calling thread
    ({!Util.Spin_wait}), so they consume real time and show up in
    measured throughput.  The paper's performance phenomenon — how much
    write-back, fencing and NVM reading sits on an operation's critical
    path — is charged exactly where the thread would wait. *)

type t = {
  writeback_ns : int;  (** CLWB issue cost *)
  writeback_batch_ns : int;
      (** per-line CLWB issue inside a coalesced batch: back-to-back
          CLWBs pipeline in the store buffer, so the marginal cost is
          below an isolated issue *)
  fence_base_ns : int;  (** SFENCE with pending write-backs *)
  fence_empty_ns : int;  (** SFENCE with nothing pending *)
  fence_per_line_ns : int;  (** drain wait per pending 64 B line *)
  read_per_line_ns : int;  (** NVM load amortized cost per 64 B line *)
}

(** Optane-flavoured defaults; see DESIGN.md "Cost model". *)
val default : t

(** All-zero model for unit tests that only care about semantics. *)
val zero : t

val charge_fence : t -> lines:int -> unit
val charge_read : t -> lines:int -> unit
