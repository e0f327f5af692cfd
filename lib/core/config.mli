(** Montage configuration.

    These knobs correspond to the design-space axes explored in §5.2
    and Figures 4–5 of the paper: write-back buffer size, epoch length,
    where reclamation runs, and the reference configurations (DirWB,
    Montage(T), DirFree) used for comparison. *)

(** Who reclaims payloads whose two-epoch delay has elapsed. *)
type reclaim_policy =
  | Background  (** the epoch advancer reclaims (paper's default) *)
  | Workers  (** workers reclaim their own garbage at [begin_op] (+LocalFree) *)

(** When payload write-backs are issued. *)
type writeback_policy =
  | Buffered  (** per-thread circular buffer, drained at epoch advance *)
  | Direct  (** write back + fence immediately on every update (DirWB) *)

(** Whether {!Epoch_sys.create} attaches a persistency-ordering checker
    ({!Nvm.Pcheck}) to the region. *)
type pcheck_policy =
  | Pcheck_off  (** fast path: no checker attached *)
  | Pcheck_record  (** record violations and lints for inspection *)
  | Pcheck_enforce  (** additionally raise [Nvm.Pcheck.Violation] at the detection point *)

type t = {
  max_threads : int;  (** worker thread-id space is [0, max_threads) *)
  buffer_size : int;  (** entries in each per-thread write-back ring *)
  epoch_length_ns : int;  (** background advance period *)
  reclaim : reclaim_policy;
  writeback : writeback_policy;
  drain_on_end_op : bool;  (** Montage (dw) in Fig. 9: flush at END_OP *)
  direct_free : bool;  (** reclaim instantly; breaks persistence (reference) *)
  persist : bool;  (** [false] = Montage (T): payloads in NVM, no persistence *)
  auto_advance : bool;  (** spawn the background epoch-advancing domain *)
  pcheck : pcheck_policy;  (** persistency-ordering checker (Pcheck) *)
  mirror_max_bytes : int;
      (** byte budget of the warm set: the content bytes of the
          payloads modelled as resident in DRAM, whose reads (raw
          copies and typed decodes alike) are uncharged copies out of
          the region; warmed by [pnew], [pset] and the
          first (charged) read, cooled by [pdelete], all cold after
          recovery.  Clock (second-chance) eviction keeps the warm
          bytes under the budget.  [0] means every read is charged
          cold *)
}

(** The [MONTAGE_PCHECK] environment variable, decoded:
    ["1"]/["record"]/["on"] → [Pcheck_record],
    ["strict"]/["enforce"] → [Pcheck_enforce], otherwise [Pcheck_off]. *)
val pcheck_from_env : unit -> pcheck_policy

(** The [MONTAGE_MIRROR_BYTES] environment variable: a non-negative
    warm-set byte budget, defaulting to 64 MB; [0] charges every
    read cold. *)
val mirror_bytes_from_env : unit -> int

(** The paper's recommended configuration: 10 ms epochs, 64-entry
    write-back buffers, background reclamation.  [pcheck] and
    [mirror_max_bytes] follow their environment variables (see the
    [_from_env] decoders above). *)
val default : t

(** Montage (T): payloads placed in NVM, all persistence elided. *)
val transient : t

(** Unit-test configuration: no background domain, so tests control the
    epoch clock deterministically via {!Epoch_sys.advance_epoch}; the
    persistency checker runs in enforce mode so every test doubles as a
    crash-consistency proof obligation. *)
val testing : t
