(* Cost model for the simulated persistent-memory device.

   The paper's performance results are driven by how much write-back and
   fencing sits on an operation's critical path, so the simulator
   charges time exactly there:

   - [writeback_ns]: issuing a CLWB (cheap; the store buffer accepts it)
   - [fence_base_ns]: an SFENCE with an empty write-pending queue
   - [fence_per_line_ns]: drain cost per outstanding 64 B line; models
     Optane's per-DIMM write bandwidth (~64 ns per line).  A system that
     flushes and fences on every operation pays base + per-line each
     time, while Montage batches many lines behind a single fence off
     the critical path.

   Costs are realized as calibrated busy-waits (Util.Spin_wait), so they
   consume real time and show up in measured throughput. *)

type t = {
  writeback_ns : int; (* CLWB issue cost *)
  writeback_batch_ns : int; (* per-line CLWB issue inside a coalesced batch *)
  fence_base_ns : int; (* SFENCE with pending write-backs *)
  fence_empty_ns : int; (* SFENCE with nothing pending *)
  fence_per_line_ns : int; (* drain wait per pending 64 B line *)
  read_per_line_ns : int; (* NVM load amortized cost per 64 B line *)
}

(* read_per_line_ns models Optane's ~3x-DRAM read latency amortized
   over cache hits: payload reads pay it, transient-index reads do
   not — the asymmetry that rewards Montage's DRAM lookup structures
   and SOFT's DRAM shadow copies, as in the paper's §6.1. *)
(* writeback_batch_ns models consecutive CLWBs issued back-to-back in a
   coalesced drain: the store buffer pipelines them, so the marginal
   issue cost per line is well below an isolated CLWB (Cohen et al.,
   ASPLOS '19 measure the same effect for in-cache-line log batches). *)
let default =
  {
    writeback_ns = 8;
    writeback_batch_ns = 2;
    fence_base_ns = 100;
    fence_empty_ns = 25;
    fence_per_line_ns = 64;
    read_per_line_ns = 25;
  }

(* A zero-cost model, for unit tests that only care about semantics. *)
let zero =
  {
    writeback_ns = 0;
    writeback_batch_ns = 0;
    fence_base_ns = 0;
    fence_empty_ns = 0;
    fence_per_line_ns = 0;
    read_per_line_ns = 0;
  }

let charge_read t ~lines = if t.read_per_line_ns > 0 then Util.Spin_wait.ns (lines * t.read_per_line_ns)

let charge_fence t ~lines =
  let cost =
    if lines = 0 then t.fence_empty_ns else t.fence_base_ns + (lines * t.fence_per_line_ns)
  in
  if cost > 0 then Util.Spin_wait.ns cost
