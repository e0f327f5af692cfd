(* Benchlib.Report: table text, guarded sweeps, check thunks and the
   per-figure JSON record the bench harness writes.  No timing. *)

module R = Benchlib.Report

(* What [f] prints on stdout. *)
let capture f =
  flush stdout;
  let file = Filename.temp_file "report" ".out" in
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let out = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  out

let table_text () =
  R.start "t";
  let rows = [ ("Montage", [ 1500.0; nan ]); ("a longer row name", [ 2.5e6; 12.0 ]) ] in
  Alcotest.(check string)
    "default format, NaN as -"
    "(ops/s)                       1           2\n\
     Montage                    1.5K           -\n\
     a longer row name         2.50M        12.0\n"
    (capture (fun () -> R.table ~columns:[ "1"; "2" ] ~rows ~unit_label:"ops/s" ()));
  Alcotest.(check string)
    "custom fmt"
    "(seconds)             1thr\nrecover              0.125\n"
    (capture (fun () ->
         R.table ~fmt:(Printf.sprintf "%.3f") ~columns:[ "1thr" ]
           ~rows:[ ("recover", [ 0.125 ]) ]
           ~unit_label:"seconds" ()))

let sweep_survives_a_raising_point () =
  R.start "s";
  let ran = ref [] in
  let pts =
    R.sweep
      ~rows:[ ("a", 1); ("b", 2) ]
      ~columns:[ ("x", 10); ("y", 20) ]
      (fun r c ->
        ran := (r, c) :: !ran;
        if (r, c) = (1, 10) then failwith "boom";
        float_of_int (r * c))
  in
  Alcotest.(check (list (pair int int)))
    "every point ran, in order" [ (1, 10); (1, 20); (2, 10); (2, 20) ] (List.rev !ran);
  Alcotest.(check (list (option (float 0.0))))
    "the raising point is None" [ None; Some 20.0 ] (List.assoc "a" pts);
  (match R.cells Fun.id pts with
  | [ ("a", [ missing; 20.0 ]); ("b", [ 20.0; 40.0 ]) ] ->
      Alcotest.(check bool) "its cell is NaN" true (Float.is_nan missing)
  | _ -> Alcotest.fail "unexpected cells");
  Alcotest.(check (float 0.0)) "lookup" 40.0 (R.at pts "b" 1);
  Alcotest.(check string)
    "a check on the missing point is a MISS, not an exception"
    "  [MISS] s: a needs its first point\n"
    (capture (fun () -> R.check ~claim:"a needs its first point" (fun () -> R.at pts "a" 0 > 0.0)))

let golden_json () =
  R.start "demo";
  ignore
    (capture (fun () ->
         R.heading "Demo";
         R.subheading "part";
         R.table ~columns:[ "1"; "2"; "3"; "4" ]
           ~rows:[ ("row", [ 1.0; nan; infinity; 0.1 ]) ]
           ~unit_label:"ops/s" ();
         R.check ~claim:"say \"hi\" \\ then\nnewline" (fun () -> true);
         R.check ~claim:"raises" (fun () -> raise Not_found)));
  Alcotest.(check string)
    "record"
    "{\n\
    \  \"figure\": \"demo\",\n\
    \  \"provenance\": {\"git_rev\": \"abc\", \"scale\": {\"threads\": [1, 2]}},\n\
    \  \"tables\": [\n\
    \    {\n\
    \      \"heading\": \"Demo -- part\",\n\
    \      \"unit\": \"ops/s\",\n\
    \      \"columns\": [\"1\", \"2\", \"3\", \"4\"],\n\
    \      \"rows\": [{\"name\": \"row\", \"cells\": [1, null, null, 0.1]}]\n\
    \    }\n\
    \  ],\n\
    \  \"verdicts\": [\n\
    \    {\"claim\": \"say \\\"hi\\\" \\\\ then\\nnewline\", \"ok\": true},\n\
    \    {\"claim\": \"raises\", \"ok\": false}\n\
    \  ]\n\
     }\n"
    (R.record_json
       ~provenance:
         (R.Obj
            [ ("git_rev", R.Str "abc"); ("scale", R.Obj [ ("threads", R.Arr [ R.Num 1.0; R.Num 2.0 ]) ]) ]))

let fresh_record_per_figure () =
  R.start "one";
  ignore
    (capture (fun () ->
         R.table ~columns:[ "1" ] ~rows:[ ("r", [ 1.0 ]) ] ~unit_label:"u" ();
         R.check ~claim:"c" (fun () -> true)));
  R.start "two";
  Alcotest.(check string)
    "nothing carried over"
    "{\"figure\": \"two\", \"provenance\": null, \"tables\": [], \"verdicts\": []}\n"
    (R.record_json ~provenance:R.Null)

let () =
  Alcotest.run "benchlib"
    [
      ( "report",
        [
          Alcotest.test_case "table text" `Quick table_text;
          Alcotest.test_case "sweep survives a raising point" `Quick sweep_survives_a_raising_point;
          Alcotest.test_case "golden JSON record" `Quick golden_json;
          Alcotest.test_case "fresh record per figure" `Quick fresh_record_per_figure;
        ] );
    ]
