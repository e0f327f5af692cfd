(* Table/series rendering and result recording for the benchmark harness.

   Each figure prints as a labeled table of series (system → value per
   x-point), in the units the paper uses, plus a one-line "shape"
   verdict where the paper makes an ordering claim.  Every [table] and
   [check] call also appends what it printed to the running figure's
   record ([start]), which [record_json] renders for the harness to
   write as BENCH_<figure>.json: the text and the JSON come from the
   same call, so they cannot disagree. *)

(* ---- JSON, written by hand (no JSON library in the toolchain) ---- *)

type json = Null | Bool of bool | Num of float | Str of string | Arr of json list | Obj of (string * json) list

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* NaN and inf have no JSON spelling: null.  Otherwise the shorter of
   %.15g and %.17g that reads back exactly. *)
let json_number v =
  if not (Float.is_finite v) then "null"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* A container that fits in 80 columns stays on one line; a longer one
   puts one element per line. *)
let rec json_to_string ?(indent = 0) j =
  let block opening closing items =
    let pad = String.make (indent + 2) ' ' in
    let flat = opening ^ String.concat ", " (List.map (fun f -> f 0) items) ^ closing in
    if indent + String.length flat <= 80 then flat
    else
      opening ^ "\n"
      ^ String.concat ",\n" (List.map (fun f -> pad ^ f (indent + 2)) items)
      ^ "\n" ^ String.make indent ' ' ^ closing
  in
  match j with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num v -> json_number v
  | Str s -> json_string s
  | Arr l -> block "[" "]" (List.map (fun v indent -> json_to_string ~indent v) l)
  | Obj kv ->
      block "{" "}" (List.map (fun (k, v) indent -> json_string k ^ ": " ^ json_to_string ~indent v) kv)

(* ---- the running figure's record ---- *)

type recorded_table = {
  t_heading : string;
  t_unit : string;
  t_columns : string list;
  t_rows : (string * float list) list;
}

type record = {
  figure : string;
  mutable heading : string;
  mutable section : string;
  mutable tables : recorded_table list; (* newest first *)
  mutable checks : (string * bool) list; (* newest first *)
}

let fresh figure = { figure; heading = ""; section = ""; tables = []; checks = [] }
let current = ref (fresh "bench")

(* Open a fresh record: every later table and check belongs to [figure]. *)
let start figure = current := fresh figure

let heading title =
  !current.heading <- title;
  !current.section <- "";
  Printf.printf "\n=== %s ===\n%!" title

(* A labelled part of the current heading (one table of several). *)
let subheading label =
  !current.section <- label;
  Printf.printf "-- %s --\n" label

let pretty v =
  if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fK" (v /. 1e3)
  else Printf.sprintf "%.1f" v

(* Append a table to the record without printing it (for data a figure
   draws with its own printer). *)
let record ~columns ~rows ~unit_label () =
  let r = !current in
  let t_heading = if r.section = "" then r.heading else r.heading ^ " -- " ^ r.section in
  r.tables <- { t_heading; t_unit = unit_label; t_columns = columns; t_rows = rows } :: r.tables

(* [rows]: (name, value per column).  Missing points are [nan].
   [fmt] overrides the human-size formatting (e.g. seconds tables). *)
let table ?(fmt = pretty) ~columns ~rows ~unit_label () =
  let name_width =
    List.fold_left (fun acc (name, _) -> max acc (String.length name)) 12 rows
  in
  Printf.printf "%-*s" (name_width + 2) (Printf.sprintf "(%s)" unit_label);
  List.iter (fun c -> Printf.printf "%12s" c) columns;
  print_newline ();
  List.iter
    (fun (name, values) ->
      Printf.printf "%-*s" (name_width + 2) name;
      List.iter
        (fun v -> if Float.is_nan v then Printf.printf "%12s" "-" else Printf.printf "%12s" (fmt v))
        values;
      print_newline ())
    rows;
  flush stdout;
  record ~columns ~rows ~unit_label ()

(* ---- guarded sweeps ---- *)

(* Run [point row column] for every row × column, in order.  A point
   that raises becomes [None], with one line naming it on stderr; the
   sweep moves on. *)
let sweep ~rows ~columns point =
  let figure = !current.figure in
  List.map
    (fun (rname, row) ->
      ( rname,
        List.map
          (fun (cname, column) ->
            try Some (point row column)
            with e ->
              Printf.eprintf "[bench] %s %s %s failed: %s\n%!" figure rname cname (Printexc.to_string e);
              None)
          columns ))
    rows

exception Missing_point of string * int

(* The point at [row], column [i]; raises when it is missing, which a
   [check] records as MISS. *)
let at sweep row i =
  match List.nth (List.assoc row sweep) i with Some p -> p | None -> raise (Missing_point (row, i))

(* Table rows from a sweep: [f] per point, [nan] where it failed. *)
let cells f sweep =
  List.map (fun (name, ps) -> (name, List.map (function Some p -> f p | None -> nan) ps)) sweep

(* ---- shape verdicts ---- *)

(* Whether the paper's ordering claim holds in this run, for the summary
   and EXPERIMENTS.md.  A claim that raises (e.g. on a missing point)
   is a MISS. *)
let verdicts : (string * bool * string) list ref = ref []

let check ~claim ok =
  let r = !current in
  let ok =
    try ok ()
    with e ->
      Printf.eprintf "[bench] %s check raised %s: %s\n%!" r.figure (Printexc.to_string e) claim;
      false
  in
  r.checks <- (claim, ok) :: r.checks;
  verdicts := (r.figure, ok, claim) :: !verdicts;
  Printf.printf "  [%s] %s: %s\n%!" (if ok then "ok" else "MISS") r.figure claim

(* The current record as JSON: figure, [provenance], tables in print
   order, verdicts. *)
let record_json ~provenance =
  let r = !current in
  let table t =
    Obj
      [
        ("heading", Str t.t_heading);
        ("unit", Str t.t_unit);
        ("columns", Arr (List.map (fun c -> Str c) t.t_columns));
        ( "rows",
          Arr
            (List.map
               (fun (name, vs) -> Obj [ ("name", Str name); ("cells", Arr (List.map (fun v -> Num v) vs)) ])
               t.t_rows) );
      ]
  in
  json_to_string
    (Obj
       [
         ("figure", Str r.figure);
         ("provenance", provenance);
         ("tables", Arr (List.rev_map table r.tables));
         ("verdicts", Arr (List.rev_map (fun (claim, ok) -> Obj [ ("claim", Str claim); ("ok", Bool ok) ]) r.checks));
       ])
  ^ "\n"

(* One line of write-back accounting — for a single region or an
   aggregate the caller assembled across systems.  [writebacks] counts
   queued cache lines, [fences] ordering points; the coalescer fields
   are zero when it never ran, in which case the dedup tail is
   omitted. *)
let writeback_line ~label ~writebacks ~fences ~ranges ~lines_in ~lines_out =
  Printf.printf "  %-28s %12d wb-lines %10d fences" label writebacks fences;
  if ranges > 0 then
    Printf.printf "   %d ranges, %d->%d lines (dedup %.2fx)" ranges lines_in lines_out
      (float_of_int lines_in /. float_of_int (max 1 lines_out));
  print_newline ();
  flush stdout

(* Persistency-checker digest for a benchmarked region: violation count
   plus the per-site performance-lint table ([Pcheck.lint_counts]), so a
   run under MONTAGE_PCHECK=1 ends with an attributable flush-hygiene
   report.  No-op when the region runs checker-off (the default). *)
let pcheck_summary ?(label = "pcheck") region =
  match Nvm.Region.checker region with
  | None -> ()
  | Some c ->
      heading (Printf.sprintf "%s: persistency report" label);
      let violations = Nvm.Pcheck.violations c in
      Printf.printf "  violations: %d\n" (List.length violations);
      List.iter (fun v -> Printf.printf "    %s\n" (Nvm.Pcheck.violation_to_string v)) violations;
      let lints = Nvm.Pcheck.lint_counts c in
      Printf.printf "  lints: %d total across %d sites\n" (Nvm.Pcheck.lint_total c)
        (List.length lints);
      List.iter
        (fun (lint, site, count) ->
          Printf.printf "    %8d  %-16s %s\n" count (Nvm.Pcheck.lint_name lint) site)
        lints;
      flush stdout

let summary () =
  let all = List.rev !verdicts in
  let good = List.length (List.filter (fun (_, ok, _) -> ok) all) in
  Printf.printf "\n=== shape summary: %d/%d paper claims reproduced ===\n" good (List.length all);
  List.iter
    (fun (fig, ok, claim) -> Printf.printf "  [%s] %s: %s\n" (if ok then "ok" else "MISS") fig claim)
    all;
  flush stdout
