(* Montage configuration knobs.

   These correspond to the design-space axes explored in §5.2 and
   Figures 4–5 of the paper: write-back buffer size, epoch length,
   where reclamation runs, and the reference configurations (DirWB,
   Montage(T), DirFree) used for comparison. *)

type reclaim_policy =
  | Background (* the epoch advancer reclaims (paper's default) *)
  | Workers (* workers reclaim their own garbage at begin_op (+LocalFree) *)

type writeback_policy =
  | Buffered (* per-thread circular buffer, drained at epoch advance *)
  | Direct (* write back + fence immediately on every update (DirWB) *)

type pcheck_policy =
  | Pcheck_off (* fast path: no checker attached *)
  | Pcheck_record (* record violations and lints for inspection *)
  | Pcheck_enforce (* additionally raise Nvm.Pcheck.Violation at the detection point *)

type t = {
  max_threads : int;
  buffer_size : int; (* entries in each per-thread write-back ring *)
  epoch_length_ns : int; (* background advance period *)
  reclaim : reclaim_policy;
  writeback : writeback_policy;
  drain_on_end_op : bool; (* Montage (dw) in Fig. 9: flush at END_OP *)
  direct_free : bool; (* reclaim instantly; breaks persistence (reference) *)
  persist : bool; (* false = Montage (T): payloads in NVM, no persistence *)
  auto_advance : bool; (* spawn the background epoch-advancing domain *)
  pcheck : pcheck_policy; (* persistency-ordering checker (Pcheck) *)
  mirror_max_bytes : int; (* warm-set (DRAM read cache) byte budget; 0 = every read charged cold *)
}

(* MONTAGE_PCHECK=1|record  → record; MONTAGE_PCHECK=strict|enforce →
   enforce; anything else (or unset) → off.  Lets any benchmark or CLI
   run double as a flush-redundancy profile without a rebuild. *)
let pcheck_from_env () =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "MONTAGE_PCHECK") with
  | Some ("1" | "record" | "on") -> Pcheck_record
  | Some ("strict" | "enforce") -> Pcheck_enforce
  | _ -> Pcheck_off

(* MONTAGE_MIRROR_BYTES=<n> bounds the content bytes of warm payloads
   (0 charges every read cold; default 64 MB).  The CI matrix uses 0 to
   run the whole suite down the charged read path. *)
let mirror_bytes_from_env () =
  match Option.bind (Sys.getenv_opt "MONTAGE_MIRROR_BYTES") int_of_string_opt with
  | Some n when n >= 0 -> n
  | _ -> 1 lsl 26

let default =
  {
    max_threads = 16;
    buffer_size = 64;
    epoch_length_ns = 10_000_000 (* 10 ms, the paper's sweet spot *);
    reclaim = Background;
    writeback = Buffered;
    drain_on_end_op = false;
    direct_free = false;
    persist = true;
    auto_advance = true;
    pcheck = pcheck_from_env ();
    mirror_max_bytes = mirror_bytes_from_env ();
  }

(* Montage (T): payloads placed in NVM, all persistence elided. *)
let transient = { default with persist = false; auto_advance = false }

(* Unit-test configuration: manual epoch control, no timing dependence.
   The persistency checker runs in enforce mode so every unit test
   doubles as a crash-consistency proof obligation. *)
let testing = { default with auto_advance = false; pcheck = Pcheck_enforce }
