(* The Montalint analysis engine: loads a .cmt produced by dune
   (compiler-libs [Cmt_format]) and walks the typedtree with a
   [Tast_iterator], emitting [Rule.finding]s for the five Montage rule
   families.  See DESIGN.md, "Montalint" for the rule semantics; the
   short version of the heuristics encoded here:

   - R1 considers a mutable write "guarded" when it is lexically inside
     the thunk of a with-lock combinator, or when the enclosing
     top-level binding performs a lock acquire anywhere in its body
     (this codebase's idiom is acquire-at-entry), or when the written
     field / ref carries [@montage.guarded_by "lock"] or
     [@montage.thread_local].  Local refs (let-bound inside a function)
     are never flagged; only module-level refs and record fields are.
   - R2 requires the enclosing top-level binding of any direct
     [Atomic.*] access to also contain a [Util.Sched.yield]/[await]/
     [active] call, so the deterministic scheduler sees a scheduling
     point whenever the binding touches shared atomics.
   - R3 flags stores whose value's type mentions [Epoch_sys.pblk] into
     module-level mutable state ([:=] on a toplevel ref, [r.f <- p] on
     a toplevel record, [Hashtbl.add/replace] on a toplevel table).
   - R4 flags [assert false] and [failwith _] literally.
   - R5 flags [Unix.select]/[Unix.sleepf]/[Unix.sleep]/[Mutex.lock].

   Suppressions: [@montage.allow "Rn: justification"] on an expression,
   [@@montage.allow ...] on a value binding, or [@@@montage.allow ...]
   at the top of a file.  A suppression whose payload is not of the
   form "Rn: <non-empty justification>" is itself reported (R0) —
   justifications are mandatory.  [@@@montage.scope "r1 r2 ..."]
   overrides the path-based rule scoping for a file (used by the lint
   fixture corpus, which lives outside lib/). *)

type scope = {
  r1 : bool;
  r2 : bool;
  r3 : bool;
  r4 : bool;
  r5 : bool;
}

let scope_none = { r1 = false; r2 = false; r3 = false; r4 = false; r5 = false }

(* Path-based defaults, mirroring which libraries are domain-shared
   (R1) and Dsched-instrumented (R2).  [file] is the repo-relative
   source path recorded in the .cmt. *)
let default_scope file =
  let has_prefix p = String.length file >= String.length p
                     && String.sub file 0 (String.length p) = p in
  let shared =
    List.exists has_prefix
      [ "lib/core/"; "lib/nvm/"; "lib/pstructs/"; "lib/netserve/" ]
  in
  let sched =
    List.exists has_prefix [ "lib/core/"; "lib/pstructs/"; "lib/util/" ]
  in
  {
    r1 = shared;
    r2 = sched;
    r3 = file <> "lib/core/epoch_sys.ml";
    r4 = has_prefix "lib/";
    (* the connection core IS the blocking point by design — every
       event loop (netserve workers, the cluster router, the load
       generator) waits in [Conn_core.step]; everything else must
       justify one *)
    r5 = file <> "lib/netserve/conn_core.ml";
  }

(* ---- attribute helpers ---- *)

let attr_payload_string (a : Parsetree.attribute) =
  match a.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let is_attr name (a : Parsetree.attribute) = a.attr_name.txt = name

(* "R4: reason" -> Ok (R4, reason); anything else -> Error message. *)
let parse_allow_payload s =
  match String.index_opt s ':' with
  | Some i when i > 0 ->
      let rule = String.trim (String.sub s 0 i) in
      let just = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      (match Rule.of_string rule with
      | Some r when just <> "" -> Ok (r, just)
      | Some _ -> Error "empty justification"
      | None -> Error (Printf.sprintf "unknown rule %S" rule))
  | _ -> Error "expected \"Rn: justification\""

(* ---- path helpers ---- *)

(* Normalize a [Path.t] into components, splitting dune's mangled unit
   names ("Montage__Epoch_sys" -> ["Montage"; "Epoch_sys"]). *)
let path_components p =
  let split_mangled s =
    let parts = ref [] and start = ref 0 and n = String.length s in
    let i = ref 0 in
    while !i < n - 1 do
      if s.[!i] = '_' && s.[!i + 1] = '_' then begin
        parts := String.sub s !start (!i - !start) :: !parts;
        i := !i + 2;
        start := !i
      end
      else incr i
    done;
    parts := String.sub s !start (n - !start) :: !parts;
    List.filter (fun s -> s <> "") (List.rev !parts)
  in
  String.split_on_char '.' (Path.name p)
  |> List.concat_map split_mangled

let path_ends_with p suffix =
  let comps = path_components p in
  let lc = List.length comps and ls = List.length suffix in
  lc >= ls
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  drop (lc - ls) comps = suffix

(* ---- type helpers (R3) ---- *)

let rec type_mentions_pblk ty =
  match Types.get_desc ty with
  | Tconstr (p, args, _) ->
      (match List.rev (path_components p) with
      | last :: prev :: _ -> last = "pblk" && prev = "Epoch_sys"
      | _ -> false)
      || List.exists type_mentions_pblk args
  | Tarrow (_, a, b, _) -> type_mentions_pblk a || type_mentions_pblk b
  | Ttuple l -> List.exists type_mentions_pblk l
  | _ -> false

(* ---- recognized call sets ---- *)

let atomic_ops =
  [ "get"; "set"; "exchange"; "compare_and_set"; "fetch_and_add"; "incr"; "decr" ]

let is_atomic_op p =
  List.exists (fun op -> path_ends_with p [ "Atomic"; op ]) atomic_ops

let is_sched_call p =
  List.exists (fun f -> path_ends_with p [ "Sched"; f ]) [ "yield"; "await"; "active" ]

(* Write-guarding acquires: read-side acquires are deliberately absent
   (a read lock does not license a write). *)
let lock_acquires =
  [
    [ "Spin_lock"; "acquire" ];
    [ "Spin_lock"; "try_acquire" ];
    [ "Spin_lock"; "with_lock" ];
    [ "Mutex"; "lock" ];
    [ "Mutex"; "try_lock" ];
    [ "Rw_lock"; "write_acquire" ];
    [ "Rw_lock"; "with_write" ];
  ]

let is_lock_acquire p = List.exists (path_ends_with p) lock_acquires

(* Combinators whose function argument runs with the lock held. *)
let with_lock_combinators =
  [
    [ "Spin_lock"; "with_lock" ];
    [ "Rw_lock"; "with_write" ];
    [ "Mutex"; "protect" ];
  ]

let is_with_lock p = List.exists (path_ends_with p) with_lock_combinators

let blocking_calls =
  [
    ([ "Unix"; "select" ], "Unix.select");
    ([ "Unix"; "sleepf" ], "Unix.sleepf");
    ([ "Unix"; "sleep" ], "Unix.sleep");
    ([ "Mutex"; "lock" ], "Mutex.lock");
    (* the event-loop readiness wait (epoll_wait underneath): the one
       place a netserve worker is allowed to block *)
    ([ "Poller"; "wait" ], "Netserve.Poller.wait");
  ]

let blocking_call p =
  List.find_map
    (fun (suffix, name) -> if path_ends_with p suffix then Some name else None)
    blocking_calls

let hashtbl_stores = [ [ "Hashtbl"; "add" ]; [ "Hashtbl"; "replace" ] ]
let is_hashtbl_store p = List.exists (path_ends_with p) hashtbl_stores

(* ---- analysis state ---- *)

type ctx = {
  file : string;
  scope : scope;
  mutable findings : Rule.finding list;
  (* names of module-level value bindings in this unit, with their
     binding attributes (for refs: thread_local / guarded_by live on
     the let that creates the ref) *)
  toplevel : (string, Parsetree.attributes) Hashtbl.t;
  mutable binding : string;  (* enclosing top-level binding name *)
  mutable binding_has_sched : bool;
  mutable binding_has_lock : bool;
  mutable in_lock : bool;  (* lexically inside a with-lock thunk *)
  mutable suppress : (Rule.id * string) list;  (* active allows *)
  mutable file_suppress : Rule.id list;
}

let emit ctx rule (loc : Location.t) ~detail ~hint =
  let suppressed =
    List.mem rule ctx.file_suppress
    || List.exists (fun (r, _) -> r = rule) ctx.suppress
  in
  if not suppressed then
    ctx.findings <-
      {
        Rule.rule;
        file = ctx.file;
        line = loc.loc_start.pos_lnum;
        col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        context = ctx.binding;
        detail;
        hint;
      }
      :: ctx.findings

let enabled ctx = function
  | Rule.R0 -> true
  | R1 -> ctx.scope.r1
  | R2 -> ctx.scope.r2
  | R3 -> ctx.scope.r3
  | R4 -> ctx.scope.r4
  | R5 -> ctx.scope.r5

let check ctx rule loc ~detail ~hint = if enabled ctx rule then emit ctx rule loc ~detail ~hint

(* Validate an annotation and return the suppressions it activates.
   Malformed annotations are themselves findings (R0). *)
let suppressions_of_attrs ctx (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if is_attr "montage.allow" a then
        match attr_payload_string a with
        | Some s -> (
            match parse_allow_payload s with
            | Ok (r, why) -> Some (r, why)
            | Error e ->
                emit ctx R0 a.attr_loc
                  ~detail:(Printf.sprintf "malformed [@montage.allow]: %s" e)
                  ~hint:"write [@montage.allow \"Rn: why this is safe\"]";
                None)
        | None ->
            emit ctx R0 a.attr_loc
              ~detail:"[@montage.allow] without a string payload"
              ~hint:"write [@montage.allow \"Rn: why this is safe\"]";
            None
      else if is_attr "montage.guarded_by" a then (
        (match attr_payload_string a with
        | Some s when String.trim s <> "" -> ()
        | _ ->
            emit ctx R0 a.attr_loc
              ~detail:"[@montage.guarded_by] without a lock name"
              ~hint:"name the guarding lock: [@montage.guarded_by \"t.lock\"]");
        None)
      else None)
    attrs

(* Does a field / binding attribute list mark the target as safely
   owned?  guarded_by must carry a (validated elsewhere) lock name. *)
let owned_attrs (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      is_attr "montage.thread_local" a
      || (is_attr "montage.guarded_by" a
         &&
         match attr_payload_string a with
         | Some s -> String.trim s <> ""
         | None -> false))
    attrs

(* Is [e] a reference to module-level state?  [Pdot] is a value of
   another module; a [Pident] counts when it names one of this unit's
   own top-level bindings. *)
let module_level ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pdot _, _, _) -> true
  | Texp_ident (Path.Pident id, _, _) -> Hashtbl.mem ctx.toplevel (Ident.name id)
  | _ -> false

let toplevel_attrs ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
      match Hashtbl.find_opt ctx.toplevel (Ident.name id) with
      | Some attrs -> attrs
      | None -> [])
  | _ -> []

let pat_vars (p : Typedtree.pattern) =
  let acc = ref [] in
  let rec go (p : Typedtree.pattern) =
    match p.pat_desc with
    | Tpat_var (id, _) -> acc := Ident.name id :: !acc
    | Tpat_alias (q, id, _) ->
        acc := Ident.name id :: !acc;
        go q
    | Tpat_tuple l -> List.iter go l
    | Tpat_record (fields, _) -> List.iter (fun (_, _, q) -> go q) fields
    | Tpat_construct (_, _, l, _) -> List.iter go l
    | Tpat_array l -> List.iter go l
    | Tpat_or (a, b, _) ->
        go a;
        go b
    | _ -> ()
  in
  go p;
  !acc

(* ---- per-binding pre-scan: does the body contain a Sched hook / a
   lock acquire anywhere? ---- *)

exception Found

let expr_contains pred (e : Typedtree.expression) =
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> if pred p then raise Found
    | _ -> ());
    default_iterator.expr sub e
  in
  let it = { default_iterator with expr } in
  try
    it.expr it e;
    false
  with Found -> true

(* ---- the main walk ---- *)

let iterator ctx =
  let open Tast_iterator in
  let check_expr (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_setfield (obj, _, ld, v) ->
        if
          enabled ctx R1
          && (not ctx.in_lock)
          && (not ctx.binding_has_lock)
          && not (owned_attrs ld.lbl_attributes)
        then
          check ctx R1 e.exp_loc
            ~detail:(Printf.sprintf "unguarded write to mutable field %S" ld.lbl_name)
            ~hint:
              "hold the owning lock, or annotate the field \
               [@montage.guarded_by \"lock\"] / [@montage.thread_local]";
        if enabled ctx R3 && module_level ctx obj && type_mentions_pblk v.exp_type
        then
          check ctx R3 e.exp_loc
            ~detail:
              (Printf.sprintf "pblk stored into module-level field %S" ld.lbl_name)
            ~hint:
              "payload handles must not outlive the operation that \
               obtained them; store the encoded bytes or re-resolve the \
               handle per operation"
    | Texp_assert ({ exp_desc = Texp_construct (_, c, _); _ }, _)
      when c.cstr_name = "false" ->
        check ctx R4 e.exp_loc ~detail:"bare assert false"
          ~hint:"raise Errors.corrupt \"<structure>: <violated invariant>\""
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        (* R4: failwith *)
        if path_ends_with p [ "Stdlib"; "failwith" ] then
          check ctx R4 e.exp_loc ~detail:"bare failwith"
            ~hint:"raise Errors.corrupt or a typed exception instead";
        (* R2: direct atomic access *)
        if enabled ctx R2 && is_atomic_op p && not ctx.binding_has_sched then
          check ctx R2 e.exp_loc
            ~detail:
              (Printf.sprintf "Atomic.%s in a binding with no Util.Sched hook"
                 (List.nth (path_components p)
                    (List.length (path_components p) - 1)))
            ~hint:
              "add a Util.Sched.yield/await scheduling point to this \
               binding so Dsched can interleave it, or suppress with a \
               justified [@montage.allow \"R2: ...\"]";
        (* R5: blocking calls *)
        (match blocking_call p with
        | Some name ->
            check ctx R5 e.exp_loc
              ~detail:(Printf.sprintf "blocking call %s" name)
              ~hint:
                "blocking waits belong to the netserve event loop; use \
                 Util.Sched.await / Spin_lock, or suppress with a \
                 justified [@montage.allow \"R5: ...\"]"
        | None -> ());
        (* R1 on refs: x := e / incr x / decr x, module-level x only *)
        let ref_write =
          path_ends_with p [ "Stdlib"; ":=" ]
          || path_ends_with p [ "Stdlib"; "incr" ]
          || path_ends_with p [ "Stdlib"; "decr" ]
        in
        (match (ref_write, args) with
        | true, (_, Some lhs) :: _ when module_level ctx lhs ->
            let name =
              match lhs.exp_desc with
              | Texp_ident (q, _, _) -> Path.last q
              | _ -> "?"
            in
            if
              enabled ctx R1
              && (not ctx.in_lock)
              && (not ctx.binding_has_lock)
              && not (owned_attrs (toplevel_attrs ctx lhs))
            then
              check ctx R1 e.exp_loc
                ~detail:
                  (Printf.sprintf "unguarded write to module-level ref %S" name)
                ~hint:
                  "hold the owning lock, use Atomic, or annotate the \
                   binding [@@montage.guarded_by \"lock\"] / \
                   [@@montage.thread_local]";
            (* R3 on refs: cache := Some pblk *)
            (match args with
            | _ :: (_, Some v) :: _
              when enabled ctx R3
                   && path_ends_with p [ "Stdlib"; ":=" ]
                   && type_mentions_pblk v.exp_type ->
                check ctx R3 e.exp_loc
                  ~detail:
                    (Printf.sprintf "pblk stored into module-level ref %S" name)
                  ~hint:
                    "payload handles must not outlive the operation that \
                     obtained them; store the encoded bytes or re-resolve \
                     the handle per operation"
            | _ -> ())
        | _ -> ());
        (* R3 via Hashtbl.add/replace into a module-level table *)
        match (is_hashtbl_store p, args) with
        | true, (_, Some tbl) :: rest when enabled ctx R3 && module_level ctx tbl ->
            if
              List.exists
                (fun (_, a) ->
                  match a with
                  | Some (v : Typedtree.expression) -> type_mentions_pblk v.exp_type
                  | None -> false)
                rest
            then
              check ctx R3 e.exp_loc
                ~detail:"pblk stored into module-level hash table"
                ~hint:
                  "payload handles must not outlive the operation that \
                   obtained them; key the table by uid/bytes instead"
        | _ -> ())
    | _ -> ()
  in
  let expr sub (e : Typedtree.expression) =
    let saved_suppress = ctx.suppress in
    ctx.suppress <- suppressions_of_attrs ctx e.exp_attributes @ ctx.suppress;
    check_expr e;
    (match e.exp_desc with
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as f), args)
      when is_with_lock p ->
        sub.expr sub f;
        let saved_lock = ctx.in_lock in
        ctx.in_lock <- true;
        List.iter (fun (_, a) -> Option.iter (sub.expr sub) a) args;
        ctx.in_lock <- saved_lock
    | _ -> default_iterator.expr sub e);
    ctx.suppress <- saved_suppress
  in
  let structure_item sub (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let saved_binding = ctx.binding in
            let saved_sched = ctx.binding_has_sched in
            let saved_lock = ctx.binding_has_lock in
            let saved_suppress = ctx.suppress in
            (match pat_vars vb.vb_pat with
            | name :: _ -> ctx.binding <- name
            | [] -> ());
            ctx.binding_has_sched <- expr_contains is_sched_call vb.vb_expr;
            ctx.binding_has_lock <- expr_contains is_lock_acquire vb.vb_expr;
            ctx.suppress <-
              suppressions_of_attrs ctx vb.vb_attributes @ ctx.suppress;
            sub.expr sub vb.vb_expr;
            ctx.binding <- saved_binding;
            ctx.binding_has_sched <- saved_sched;
            ctx.binding_has_lock <- saved_lock;
            ctx.suppress <- saved_suppress)
          vbs
    | _ -> default_iterator.structure_item sub item
  in
  { default_iterator with expr; structure_item }

(* Collect module-level binding names (including inside submodules —
   they are module state too) with their attributes. *)
let rec collect_toplevel ctx (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              List.iter
                (fun name -> Hashtbl.replace ctx.toplevel name vb.vb_attributes)
                (pat_vars vb.vb_pat))
            vbs
      | Tstr_module mb -> collect_toplevel_mod ctx mb.mb_expr
      | Tstr_recmodule mbs ->
          List.iter (fun (mb : Typedtree.module_binding) -> collect_toplevel_mod ctx mb.mb_expr) mbs
      | _ -> ())
    str.str_items

and collect_toplevel_mod ctx (m : Typedtree.module_expr) =
  match m.mod_desc with
  | Tmod_structure s -> collect_toplevel ctx s
  | Tmod_constraint (me, _, _, _) -> collect_toplevel_mod ctx me
  | Tmod_functor (_, me) -> collect_toplevel_mod ctx me
  | _ -> ()

(* File-level floating attributes: [@@@montage.allow "..."] and
   [@@@montage.scope "r1 r2"]. *)
let file_directives ctx (str : Typedtree.structure) =
  let scope = ref None in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_attribute a ->
          if is_attr "montage.allow" a then
            ctx.file_suppress <-
              (List.map fst (suppressions_of_attrs ctx [ a ])) @ ctx.file_suppress
          else if is_attr "montage.scope" a then (
            match attr_payload_string a with
            | Some s ->
                let tokens =
                  String.split_on_char ' ' s
                  |> List.concat_map (String.split_on_char ',')
                  |> List.filter (fun t -> t <> "")
                in
                let has t = List.mem t tokens in
                scope :=
                  Some
                    {
                      r1 = has "r1";
                      r2 = has "r2";
                      r3 = has "r3";
                      r4 = has "r4";
                      r5 = has "r5";
                    }
            | None ->
                emit ctx R0 a.attr_loc
                  ~detail:"[@@@montage.scope] without a string payload"
                  ~hint:"write [@@@montage.scope \"r1 r2\"]")
      | _ -> ())
    str.str_items;
  !scope

(* ---- entry points ---- *)

let lint_structure ~file (str : Typedtree.structure) =
  let ctx =
    {
      file;
      scope = default_scope file;
      findings = [];
      toplevel = Hashtbl.create 64;
      binding = "<module>";
      binding_has_sched = false;
      binding_has_lock = false;
      in_lock = false;
      suppress = [];
      file_suppress = [];
    }
  in
  (* Directives first: a [@@@montage.scope] attribute replaces the
     path-based classification for the whole file. *)
  let ctx =
    match file_directives ctx str with
    | Some scope -> { ctx with scope }
    | None -> ctx
  in
  collect_toplevel ctx str;
  let it = iterator ctx in
  it.structure it str;
  List.sort Rule.compare_position ctx.findings

(* Returns [None] for cmts that are not implementations (packs,
   interfaces) or that have no source file recorded. *)
let lint_cmt path =
  let cmt = Cmt_format.read_cmt path in
  match (cmt.cmt_annots, cmt.cmt_sourcefile) with
  | Cmt_format.Implementation str, Some src
    when Filename.check_suffix src ".ml" ->
      Some (src, lint_structure ~file:src str)
  | _ -> None
