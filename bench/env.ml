(* Benchmark scaling knobs, settable from the environment.

   The paper ran 30 s per data point on an 80-hyperthread, 1.5 TB-NVM
   server; defaults here are scaled so the full suite finishes in a few
   minutes on a small container while preserving every comparison.

     BENCH_ONLY=fig7a         run only these figures, comma-separated:
                              fig4 fig5 fig6 fig7a fig7b fig8a fig8b
                              fig9 fig10 snapshot fig11 fig12 recovery
                              ablation coalesce readpath netserve c10k
                              cluster bechamel (an unknown name exits 2)
     BENCH_DURATION_MS=400    per-point measurement window
     BENCH_THREADS="1 2 4"    thread counts for scaling sweeps
     BENCH_PRELOAD=20000      map preload (paper: 500,000)
     BENCH_VALUE=1024         value size in bytes (paper: 1 KB)
     BENCH_GRAPH_CAP=20000    graph vertex capacity (paper: 1,000,000)
     BENCH_GRAPH_DEGREE=8     graph average degree (paper: 32)
     BENCH_RECOVERY_MB="16 64"  recovery-table data-set sizes in MB
     BENCH_FULL=1             paper-scale parameters (slow) *)

let getenv_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

let full = Sys.getenv_opt "BENCH_FULL" = Some "1"

let duration_ms = getenv_int "BENCH_DURATION_MS" (if full then 5000 else 400)
let duration_s = float_of_int duration_ms /. 1000.0

let threads =
  match Sys.getenv_opt "BENCH_THREADS" with
  | Some s -> String.split_on_char ' ' s |> List.filter (( <> ) "") |> List.map int_of_string
  | None -> if full then [ 1; 2; 4; 8; 16 ] else [ 1; 2; 4 ]

let max_threads = List.fold_left max 1 threads

let preload = getenv_int "BENCH_PRELOAD" (if full then 500_000 else 20_000)
let value_size = getenv_int "BENCH_VALUE" 1024

let only =
  match Sys.getenv_opt "BENCH_ONLY" with
  | None -> None
  | Some s -> Some (String.split_on_char ',' s)

let selected name = match only with None -> true | Some l -> List.mem name l

(* Graph-benchmark scale *)
let graph_capacity = getenv_int "BENCH_GRAPH_CAP" (if full then 1_000_000 else 20_000)
let graph_degree = getenv_int "BENCH_GRAPH_DEGREE" (if full then 32 else 8)

(* Recovery-table scale: dataset sizes in MB *)
let recovery_sizes_mb =
  match Sys.getenv_opt "BENCH_RECOVERY_MB" with
  | Some s -> String.split_on_char ' ' s |> List.filter (( <> ) "") |> List.map int_of_string
  | None -> if full then [ 1024; 4096 ] else [ 16; 64 ]
