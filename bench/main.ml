(* Benchmark entry point: regenerates every table and figure from the
   paper's evaluation.  See bench/env.ml for scaling knobs; run a
   single figure with e.g. BENCH_ONLY=fig7a dune exec bench/main.exe.
   Each selected figure also leaves BENCH_<name>.json in the current
   directory: its tables and verdicts as printed, plus provenance. *)

module R = Benchlib.Report

let figures =
  [
    ("fig4", Figures.fig4);
    ("fig5", Figures.fig5);
    ("fig6", Figures.fig6);
    ("fig7a", Figures.fig7a);
    ("fig7b", Figures.fig7b);
    ("fig8a", Figures.fig8a);
    ("fig8b", Figures.fig8b);
    ("fig9", Figures.fig9);
    ("fig10", Figures.fig10);
    ("snapshot", Figures.snapshot_scan);
    ("fig11", Figures.fig11);
    ("fig12", Figures.fig12);
    ("recovery", Figures.recovery_table);
    ("ablation", Figures.ablations);
    ("coalesce", Figures.coalesce);
    ("readpath", Figures.readpath);
    ("netserve", Figures.netserve);
    ("c10k", Figures.c10k);
    ("cluster", Figures.cluster);
    ("bechamel", Bechamel_suite.run);
  ]

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let rev = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with Unix.WEXITED 0 when rev <> "" -> rev | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* git rev, every BENCH_* / MONTAGE_* variable that is set, and the
   scale those resolved to *)
let provenance () =
  let knobs =
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | Some i
             when String.starts_with ~prefix:"BENCH_" kv || String.starts_with ~prefix:"MONTAGE_" kv ->
               Some (String.sub kv 0 i, R.Str (String.sub kv (i + 1) (String.length kv - i - 1)))
           | _ -> None)
    |> List.sort compare
  in
  let num n = R.Num (float_of_int n) in
  R.Obj
    [
      ("git_rev", R.Str (git_rev ()));
      ("env", R.Obj knobs);
      ( "scale",
        R.Obj
          [
            ("full", R.Bool Env.full);
            ("duration_ms", num Env.duration_ms);
            ("threads", R.Arr (List.map num Env.threads));
            ("preload", num Env.preload);
            ("value_size", num Env.value_size);
            ("graph_capacity", num Env.graph_capacity);
            ("graph_degree", num Env.graph_degree);
            ("recovery_sizes_mb", R.Arr (List.map num Env.recovery_sizes_mb));
          ] );
    ]

let () =
  (match Option.map (List.filter (fun n -> not (List.mem_assoc n figures))) Env.only with
  | Some (_ :: _ as unknown) ->
      Printf.eprintf "BENCH_ONLY: unknown figure(s) %s; valid names: %s\n" (String.concat ", " unknown)
        (String.concat " " (List.map fst figures));
      exit 2
  | _ -> ());
  Printf.printf "Montage benchmark suite — %s scale\n" (if Env.full then "paper" else "scaled");
  Printf.printf
    "duration/point=%dms threads=[%s] preload=%d value=%dB (override via BENCH_* env vars)\n%!"
    Env.duration_ms
    (String.concat "; " (List.map string_of_int Env.threads))
    Env.preload Env.value_size;
  let provenance = provenance () in
  List.iter
    (fun (name, f) ->
      if Env.selected name then begin
        R.start name;
        f ();
        (* stop any background domain a failed point left behind *)
        Systems.stop_leaked ();
        Out_channel.with_open_text (Printf.sprintf "BENCH_%s.json" name) (fun oc ->
            output_string oc (R.record_json ~provenance))
      end)
    figures;
  Systems.report_coalescing ();
  Systems.report_mirror ();
  Systems.report_netserve ();
  Systems.report_pcheck ();
  R.summary ()
