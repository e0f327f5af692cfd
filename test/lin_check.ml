(* A small Wing–Gong linearizability checker.

   Concurrent test drivers record each operation's invocation and
   response instants (global atomic stamps); the checker then searches
   for a linearization: a total order of operations that (a) respects
   real-time precedence (op A's response before op B's invocation
   forces A before B) and (b) is legal for a sequential model of the
   abstraction.

   Exponential in the worst case, fine for the small windows the tests
   generate (dozens of overlapping ops).  This is the same criterion
   the paper's §4 proofs target, checked mechanically on real
   executions of the nonblocking structures. *)

type ('op, 'res) event = {
  op : 'op;
  result : 'res;
  invoked : int;
  responded : int;
}

(* Global stamp source for drivers. *)
let clock = Atomic.make 0
let stamp () = Atomic.fetch_and_add clock 1
let reset_clock () = Atomic.set clock 0

(* Record one operation: stamps around the call. *)
let record op f =
  let invoked = stamp () in
  let result = f () in
  let responded = stamp () in
  { op; result; invoked; responded }

(* A sequential specification: apply an op to a model state, returning
   the expected result and the new state.  States must be comparable
   for the memoization cut. *)
type ('st, 'op, 'res) spec = { initial : 'st; apply : 'st -> 'op -> 'res * 'st }

(* Is there a linearization of [events] legal for [spec]?  Classic
   backtracking: at each step, try every minimal (by real-time order)
   pending event whose result matches the model. *)
let check spec events =
  let events = Array.of_list events in
  let n = Array.length events in
  let taken = Array.make n false in
  (* memoize failed (taken-set, state) configurations *)
  let failed = Hashtbl.create 1024 in
  let key state =
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.set b i (if taken.(i) then '1' else '0')
    done;
    (Bytes.to_string b, state)
  in
  (* event i is minimal if no un-taken event responded before i's
     invocation *)
  let minimal i =
    let ok = ref true in
    for j = 0 to n - 1 do
      if (not taken.(j)) && j <> i && events.(j).responded < events.(i).invoked then ok := false
    done;
    !ok
  in
  let rec search state depth =
    if depth = n then true
    else if Hashtbl.mem failed (key state) then false
    else begin
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < n do
        let e = events.(!i) in
        if (not taken.(!i)) && minimal !i then begin
          let expected, state' = spec.apply state e.op in
          if expected = e.result then begin
            taken.(!i) <- true;
            if search state' (depth + 1) then found := true;
            taken.(!i) <- false
          end
        end;
        incr i
      done;
      if not !found then Hashtbl.replace failed (key state) ();
      !found
    end
  in
  search spec.initial 0

(* ---- ready-made specs ---- *)

type stack_op = Push of string | Pop
type queue_op = Enq of string | Deq
type set_op = Add of string | Remove of string | Contains of string

(* Results are encoded as [string option] for pop/deq, [bool] for set
   ops; pushes return [None]/[true] markers chosen by the drivers. *)

let stack_spec : (string list, stack_op, string option) spec =
  {
    initial = [];
    apply =
      (fun st op ->
        match (op, st) with
        | Push v, _ -> (None, v :: st)
        | Pop, [] -> (None, [])
        | Pop, x :: rest -> (Some x, rest));
  }

let queue_spec : (string list, queue_op, string option) spec =
  {
    initial = [];
    apply =
      (fun st op ->
        match (op, st) with
        | Enq v, _ -> (None, st @ [ v ])
        | Deq, [] -> (None, [])
        | Deq, x :: rest -> (Some x, rest));
  }

let set_spec : (string list, set_op, bool) spec =
  {
    initial = [];
    apply =
      (fun st op ->
        match op with
        | Add v -> if List.mem v st then (false, st) else (true, v :: st)
        | Remove v -> if List.mem v st then (true, List.filter (( <> ) v) st) else (false, st)
        | Contains v -> (List.mem v st, st));
  }

(* Map-with-snapshot model mirroring Mhamt's semantics: the state is
   the current association plus every snapshot ever taken (id -> the
   association at that instant).  [Msnapshot id] must linearize at one
   point — every later [Mview_find (id, _)] reads that frozen map, so a
   view that mixed values from two versions (a torn read across a path
   copy) has no legal linearization.  Associations stay sorted so equal
   abstract states memoize to equal keys.  Snapshot ops answer [None]
   by convention; a find against an id the model never saw answers a
   sentinel no real execution produces, making it unsatisfiable. *)
type map_op =
  | Mput of string * string
  | Mremove of string
  | Mget of string
  | Msnapshot of int
  | Mview_find of int * string

type map_state = { cur : (string * string) list; views : (int * (string * string) list) list }

let map_snap_spec : (map_state, map_op, string option) spec =
  let sorted_replace l k v = List.sort compare ((k, v) :: List.remove_assoc k l) in
  {
    initial = { cur = []; views = [] };
    apply =
      (fun st op ->
        match op with
        | Mput (k, v) -> (List.assoc_opt k st.cur, { st with cur = sorted_replace st.cur k v })
        | Mremove k -> (List.assoc_opt k st.cur, { st with cur = List.remove_assoc k st.cur })
        | Mget k -> (List.assoc_opt k st.cur, st)
        | Msnapshot id -> (None, { st with views = List.sort compare ((id, st.cur) :: st.views) })
        | Mview_find (id, k) -> (
            match List.assoc_opt id st.views with
            | Some frozen -> (List.assoc_opt k frozen, st)
            | None -> (Some "\000unregistered-view", st)));
  }

(* Undirected-graph model mirroring Mgraph's semantics: vertex adds
   reject duplicates, edge adds reject self-loops / missing endpoints /
   duplicates, vertex removal drops incident edges.  Both components
   stay sorted so equal abstract states memoize to equal keys. *)
type graph_op =
  | Gadd_vertex of int * string
  | Gremove_vertex of int
  | Gadd_edge of int * int * string
  | Gremove_edge of int * int
  | Gedge_attrs of int * int
  | Gvertex_attrs of int

type graph_res = GB of bool | GS of string option

type graph_state = { verts : (int * string) list; edges : ((int * int) * string) list }

let graph_spec : (graph_state, graph_op, graph_res) spec =
  let ekey a b = (min a b, max a b) in
  let sorted_insert l kv = List.sort compare (kv :: l) in
  {
    initial = { verts = []; edges = [] };
    apply =
      (fun st op ->
        match op with
        | Gadd_vertex (v, attrs) ->
            if List.mem_assoc v st.verts then (GB false, st)
            else (GB true, { st with verts = sorted_insert st.verts (v, attrs) })
        | Gremove_vertex v ->
            if not (List.mem_assoc v st.verts) then (GB false, st)
            else
              ( GB true,
                {
                  verts = List.remove_assoc v st.verts;
                  edges = List.filter (fun ((a, b), _) -> a <> v && b <> v) st.edges;
                } )
        | Gadd_edge (a, b, attrs) ->
            if
              a = b
              || (not (List.mem_assoc a st.verts))
              || (not (List.mem_assoc b st.verts))
              || List.mem_assoc (ekey a b) st.edges
            then (GB false, st)
            else (GB true, { st with edges = sorted_insert st.edges (ekey a b, attrs) })
        | Gremove_edge (a, b) ->
            if List.mem_assoc (ekey a b) st.edges then
              (GB true, { st with edges = List.remove_assoc (ekey a b) st.edges })
            else (GB false, st)
        | Gedge_attrs (a, b) -> (GS (List.assoc_opt (ekey a b) st.edges), st)
        | Gvertex_attrs v -> (GS (List.assoc_opt v st.verts), st));
  }
