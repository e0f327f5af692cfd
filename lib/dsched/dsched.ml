(* Dsched engine (see dsched.mli and DESIGN.md, "Dsched").

   Logical threads run as effect-based fibers on one domain.  The hook
   installed into [Util.Sched] turns every yield/await mark in the
   runtime into an effect; the handler parks the fiber's continuation
   and hands control back to the engine loop, which consults the active
   exploration strategy for the next choice.  Every branch re-executes
   the scenario from scratch ([init] builds a fresh instance), so the
   engine itself is stateless across attempts — the classic stateless
   model-checking discipline, which is also what makes traces
   replayable: a schedule is fully described by its choice sequence. *)

type choice = Run of int | Crash
type trace = choice list

let choice_to_string = function Run i -> string_of_int i | Crash -> "c"

let trace_to_string t = String.concat "." (List.map choice_to_string t)

let trace_of_string s =
  if String.trim s = "" then []
  else
    String.split_on_char '.' (String.trim s)
    |> List.map (fun tok ->
           match String.trim tok with
           | "c" | "C" -> Crash
           | tok -> (
               match int_of_string_opt tok with
               | Some i when i >= 0 -> Run i
               | _ -> invalid_arg ("Dsched.trace_of_string: bad token " ^ tok)))

type failure = { reason : string; trace : trace; raw_trace : trace; seed : int option }

let failure_to_string f =
  let seed = match f.seed with None -> "" | Some s -> Printf.sprintf " seed=%d" s in
  Printf.sprintf "%s%s trace=%s (raw %d points)" f.reason seed (trace_to_string f.trace)
    (List.length f.raw_trace)

type report = {
  schedules : int;
  crash_branches : int;
  max_points : int;
  failure : failure option;
  truncated : bool;
}

type 'a scenario = {
  init : unit -> 'a;
  threads : ('a -> unit) array;
  check_crash : ('a -> bool) option;
  check_done : ('a -> bool) option;
}

type mode =
  | Exhaustive of { preemptions : int; max_attempts : int; crashes : bool }
  | Pct of { runs : int; seed : int; change_points : int }
  | Replay of trace

(* ---- fibers ---- *)

type _ Effect.t +=
  | Yield_eff : string -> unit Effect.t
  | Await_eff : (string * (unit -> bool)) -> unit Effect.t

type outcome = Yielded | Exited | Raised of exn

type fiber = { id : int; mutable status : status }

and status =
  | Fresh of (unit -> unit)
  | Suspended of (unit, outcome) Effect.Deep.continuation
  | Waiting of (unit -> bool) * (unit, outcome) Effect.Deep.continuation
  | Finished

let handler fiber =
  let open Effect.Deep in
  {
    retc = (fun () -> Exited);
    exnc = (fun e -> Raised e);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Yield_eff _ ->
            Some
              (fun (k : (b, outcome) continuation) ->
                fiber.status <- Suspended k;
                Yielded)
        | Await_eff (_, pred) ->
            Some
              (fun (k : (b, outcome) continuation) ->
                fiber.status <- Waiting (pred, k);
                Yielded)
        | _ -> None);
  }

(* Run the fiber until its next scheduling point; [Some e] when it died
   on an uncaught exception. *)
let run_step f =
  let out =
    match f.status with
    | Fresh body -> Effect.Deep.match_with body () (handler f)
    | Suspended k -> Effect.Deep.continue k ()
    | Waiting (_, k) -> Effect.Deep.continue k ()
    | Finished ->
        Montage.Errors.corrupt
          "dsched: run_step on a finished fiber — the engine's runnable \
           filter should make this unreachable"
  in
  match out with
  | Yielded -> None (* status already parked by the handler *)
  | Exited ->
      f.status <- Finished;
      None
  | Raised e ->
      f.status <- Finished;
      Some e

let runnable f =
  match f.status with
  | Fresh _ | Suspended _ -> true
  | Waiting (pred, _) -> pred ()
  | Finished -> false

let finished f = match f.status with Finished -> true | _ -> false

(* ---- one attempt under a chooser ---- *)

(* The chooser sees the scheduling point index, the fiber that ran
   last, and the ids of the currently runnable fibers (non-empty,
   ascending).  It may return [Crash] only when the engine offered it
   ([can_crash]). *)
type chooser = step:int -> current:int option -> enabled:int list -> can_crash:bool -> choice

type attempt_end =
  | A_pass
  | A_check_failed of string
  | A_deadlock
  | A_exn of int * exn

let hook =
  {
    Util.Sched.yield = (fun tag -> Effect.perform (Yield_eff tag));
    await = (fun tag pred -> if not (pred ()) then Effect.perform (Await_eff (tag, pred)));
  }

let run_attempt scenario (choose : chooser) =
  let st = scenario.init () in
  let fibers =
    Array.mapi (fun i body -> { id = i; status = Fresh (fun () -> body st) }) scenario.threads
  in
  let taken = ref [] in
  let current = ref None in
  let step = ref 0 in
  let can_crash = Option.is_some scenario.check_crash in
  let check name f =
    match f st with
    | true -> A_pass
    | false -> A_check_failed (name ^ " check failed")
    | exception e -> A_check_failed (Printf.sprintf "%s check raised %s" name (Printexc.to_string e))
  in
  let finish r = (r, List.rev !taken) in
  Util.Sched.install hook;
  Fun.protect ~finally:Util.Sched.uninstall (fun () ->
      let rec loop () =
        if Array.for_all finished fibers then begin
          Util.Sched.uninstall ();
          match scenario.check_done with
          | None -> finish A_pass
          | Some f -> finish (check "final-state" f)
        end
        else begin
          let enabled =
            Array.fold_right (fun f acc -> if runnable f then f.id :: acc else acc) fibers []
          in
          if enabled = [] then finish A_deadlock
          else begin
            match choose ~step:!step ~current:!current ~enabled ~can_crash with
            | Crash when can_crash ->
                taken := Crash :: !taken;
                Util.Sched.uninstall ();
                finish (check "crash-recovery" (Option.get scenario.check_crash))
            | Crash -> invalid_arg "Dsched: chooser crashed a scenario without check_crash"
            | Run i ->
                if not (List.mem i enabled) then
                  invalid_arg "Dsched: chooser picked a non-runnable fiber";
                taken := Run i :: !taken;
                current := Some i;
                incr step;
                (match run_step fibers.(i) with
                | Some e -> finish (A_exn (i, e))
                | None -> loop ())
          end
        end
      in
      loop ())

let classify = function
  | A_pass -> None
  | A_check_failed r -> Some r
  | A_deadlock -> Some "deadlock: every live fiber is blocked"
  | A_exn (i, e) -> Some (Printf.sprintf "uncaught exception in fiber %d: %s" i (Printexc.to_string e))

(* ---- replay ---- *)

let fallback ~current ~enabled =
  match current with
  | Some j when List.mem j enabled -> Run j
  | _ -> Run (List.hd enabled)

let replay_chooser tr : chooser =
  let arr = Array.of_list tr in
  fun ~step ~current ~enabled ~can_crash ->
    if step < Array.length arr then
      match arr.(step) with
      | Crash when can_crash -> Crash
      | Run i when List.mem i enabled -> Run i
      | _ -> fallback ~current ~enabled
    else fallback ~current ~enabled

(* ---- shrinking ---- *)

(* Greedy deletion with replay validation: drop one choice at a time,
   keep any candidate that still fails and is no larger (points, then
   context switches).  Replay's divergence fallback makes every
   candidate executable, and we always adopt the trace as executed, so
   the result is a real schedule, not a description of one. *)
let switches tr =
  let rec count prev = function
    | [] -> 0
    | Crash :: rest -> count prev rest
    | Run i :: rest -> (match prev with Some j when j <> i -> 1 | _ -> 0) + count (Some i) rest
  in
  count None tr

let size tr = (List.length tr, switches tr)

let shrink scenario ~budget (reason0, trace0) =
  let attempts = ref 0 in
  let try_replay cand =
    if !attempts >= budget then None
    else begin
      incr attempts;
      let end_, executed = run_attempt scenario (replay_chooser cand) in
      match classify end_ with Some r -> Some (r, executed) | None -> None
    end
  in
  let best = ref (reason0, trace0) in
  let improved = ref true in
  while !improved && !attempts < budget do
    improved := false;
    let _, tr = !best in
    let arr = Array.of_list tr in
    let i = ref 0 in
    while (not !improved) && !i < Array.length arr do
      let cand = List.filteri (fun j _ -> j <> !i) tr in
      (match try_replay cand with
      | Some ((_, executed) as res) when size executed < size tr ->
          best := res;
          improved := true
      | _ -> ());
      incr i
    done
  done;
  !best

(* ---- exhaustive DFS ---- *)

(* A growable stack of decision points; each remembers the ordered
   alternatives computed when the point was first reached and which one
   the current path takes.  Re-execution is deterministic, so replaying
   [taken] prefixes reconstructs the identical state at each point. *)
type dpoint = { alts : choice array; mutable pick : int }

let explore_exhaustive scenario ~preemptions ~max_attempts ~crashes =
  let points : dpoint array ref = ref [||] in
  let len = ref 0 in
  let push p =
    if !len = Array.length !points then begin
      let bigger = Array.make (max 64 (2 * !len)) p in
      Array.blit !points 0 bigger 0 !len;
      points := bigger
    end;
    !points.(!len) <- p;
    incr len
  in
  let schedules = ref 0 and crash_branches = ref 0 and max_points = ref 0 in
  let truncated = ref false in
  let failure = ref None in
  let attempts = ref 0 in
  let continue_dfs = ref true in
  while !continue_dfs do
    (* one attempt following the prefix in [points], extending past it
       with first alternatives *)
    let depth = ref 0 in
    let budget = ref preemptions in
    let chooser ~step:_ ~current ~enabled ~can_crash =
      let d = !depth in
      incr depth;
      let choice =
        if d < !len then !points.(d).alts.(!points.(d).pick)
        else begin
          let runs =
            match current with
            | Some j when List.mem j enabled ->
                if !budget > 0 then Run j :: List.filter_map (fun i -> if i <> j then Some (Run i) else None) enabled
                else [ Run j ]
            | _ -> List.map (fun i -> Run i) enabled
          in
          let alts = if crashes && can_crash then runs @ [ Crash ] else runs in
          push { alts = Array.of_list alts; pick = 0 };
          List.hd alts
        end
      in
      (match (choice, current) with
      | Run i, Some j when i <> j && List.mem j enabled -> decr budget
      | _ -> ());
      choice
    in
    incr attempts;
    let end_, executed = run_attempt scenario chooser in
    if !depth > !max_points then max_points := !depth;
    (match List.rev executed with Crash :: _ -> incr crash_branches | _ -> incr schedules);
    (match classify end_ with
    | Some reason ->
        let reason, tr = shrink scenario ~budget:300 (reason, executed) in
        failure := Some { reason; trace = tr; raw_trace = executed; seed = None };
        continue_dfs := false
    | None ->
        (* backtrack: advance the deepest point with untried alternatives *)
        let rec backtrack () =
          if !len = 0 then false
          else begin
            let p = !points.(!len - 1) in
            if p.pick + 1 < Array.length p.alts then begin
              p.pick <- p.pick + 1;
              true
            end
            else begin
              decr len;
              backtrack ()
            end
          end
        in
        if not (backtrack ()) then continue_dfs := false
        else if !attempts >= max_attempts then begin
          truncated := true;
          continue_dfs := false
        end)
  done;
  {
    schedules = !schedules;
    crash_branches = !crash_branches;
    max_points = !max_points;
    failure = !failure;
    truncated = !truncated;
  }

(* ---- PCT randomized ---- *)

(* Fixed decision horizon: priority change points and the crash point
   are drawn from [0, horizon) so a run's schedule depends only on its
   seed, never on lengths observed in earlier runs — that is what makes
   a printed per-run seed sufficient to reproduce a failure. *)
let pct_horizon = 256

let run_seed ~seed r = if r = 0 then seed else (seed + (r * 0x9E3779B1)) land max_int

let pct_chooser ~seed ~change_points ~can_crash nthreads : chooser =
  let rng = Util.Xoshiro.create seed in
  let prio = Array.init nthreads (fun i -> i) in
  (* Fisher-Yates: prio.(i) = rank of fiber i, higher runs first *)
  for i = nthreads - 1 downto 1 do
    let j = Util.Xoshiro.int rng (i + 1) in
    let t = prio.(i) in
    prio.(i) <- prio.(j);
    prio.(j) <- t
  done;
  let change_at = Array.init change_points (fun _ -> Util.Xoshiro.int rng pct_horizon) in
  let crash_at =
    if can_crash && Util.Xoshiro.bool rng then Some (Util.Xoshiro.int rng pct_horizon) else None
  in
  let floor_prio = ref (-1) in
  fun ~step ~current ~enabled ~can_crash ->
    if can_crash && crash_at = Some step then Crash
    else begin
      if Array.exists (( = ) step) change_at then
        (match current with
        | Some j ->
            prio.(j) <- !floor_prio;
            decr floor_prio
        | None -> ());
      let best =
        List.fold_left
          (fun acc i -> match acc with Some b when prio.(b) >= prio.(i) -> acc | _ -> Some i)
          None enabled
      in
      Run (Option.get best)
    end

let explore_pct scenario ~runs ~seed ~change_points =
  let nthreads = Array.length scenario.threads in
  let schedules = ref 0 and crash_branches = ref 0 and max_points = ref 0 in
  let failure = ref None in
  let r = ref 0 in
  while !failure = None && !r < runs do
    let s = run_seed ~seed !r in
    let chooser =
      pct_chooser ~seed:s ~change_points ~can_crash:(Option.is_some scenario.check_crash) nthreads
    in
    let end_, executed = run_attempt scenario chooser in
    let points = List.length executed in
    if points > !max_points then max_points := points;
    (match List.rev executed with Crash :: _ -> incr crash_branches | _ -> incr schedules);
    (match classify end_ with
    | Some reason ->
        let reason, tr = shrink scenario ~budget:300 (reason, executed) in
        failure := Some { reason; trace = tr; raw_trace = executed; seed = Some s }
    | None -> ());
    incr r
  done;
  {
    schedules = !schedules;
    crash_branches = !crash_branches;
    max_points = !max_points;
    failure = !failure;
    truncated = false;
  }

(* ---- replay mode ---- *)

let explore_replay scenario tr =
  let end_, executed = run_attempt scenario (replay_chooser tr) in
  let points = List.length executed in
  let crashed = match List.rev executed with Crash :: _ -> true | _ -> false in
  let failure =
    match classify end_ with
    | Some reason -> Some { reason; trace = executed; raw_trace = executed; seed = None }
    | None -> None
  in
  {
    schedules = (if crashed then 0 else 1);
    crash_branches = (if crashed then 1 else 0);
    max_points = points;
    failure;
    truncated = false;
  }

(* Every attempt builds a fresh region, epoch system and structure,
   most of which outlives a default-sized minor heap and is promoted
   only to die at the attempt's end.  An exploration runs with a 32 MiB
   minor heap (4M words), so an attempt's garbage dies young; the
   caller's setting comes back on every exit. *)
let explore_minor_heap_words = 4 * 1024 * 1024

let explore mode scenario =
  let saved = Gc.get () in
  Gc.set { saved with minor_heap_size = max saved.minor_heap_size explore_minor_heap_words };
  Fun.protect
    ~finally:(fun () -> Gc.set { (Gc.get ()) with minor_heap_size = saved.minor_heap_size })
    (fun () ->
      match mode with
      | Exhaustive { preemptions; max_attempts; crashes } ->
          explore_exhaustive scenario ~preemptions ~max_attempts ~crashes
      | Pct { runs; seed; change_points } -> explore_pct scenario ~runs ~seed ~change_points
      | Replay tr -> explore_replay scenario tr)

(* ---- environment ---- *)

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> ( match int_of_string_opt (String.trim s) with Some i -> i | None -> default)

let mode_from_env () =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "MONTAGE_SCHED") with
  | None | Some ("" | "off" | "0" | "no") -> None
  | Some ("random" | "pct") ->
      Some
        (Pct
           {
             runs = env_int "MONTAGE_SCHED_RUNS" 200;
             seed = env_int "MONTAGE_SCHED_SEED" 1;
             change_points = env_int "MONTAGE_SCHED_CHANGE_POINTS" 3;
           })
  | Some "exhaustive" ->
      Some
        (Exhaustive
           {
             preemptions = env_int "MONTAGE_SCHED_PREEMPTIONS" 2;
             max_attempts = env_int "MONTAGE_SCHED_MAX_ATTEMPTS" 20_000;
             crashes = true;
           })
  | Some "replay" -> (
      match Sys.getenv_opt "MONTAGE_SCHED_TRACE" with
      | Some t -> Some (Replay (trace_of_string t))
      | None -> None)
  | Some _ -> None
