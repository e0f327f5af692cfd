(* Montage general graph (paper §6.3).

   Abstract state in NVM: one payload per vertex (id + attributes) and
   one payload per edge (the two endpoint ids + attributes).  Crucially,
   edge payloads *name* their endpoints but vertex payloads know nothing
   of their edges — the paper's rule against long persistent pointer
   chains.  Connectivity lives in a transient adjacency index
   (per-vertex hash tables on the OCaml heap), rebuilt on recovery.

   Concurrency: edge operations take a shared pass on a global
   reader-writer lock plus the two endpoint locks in id order; vertex
   operations (which restructure adjacency) take the writer side.  This
   matches the paper's observation that AddVertex/RemoveVertex are the
   expensive operations.

   Payload wire format:  'V' id attrs   |   'E' src dst attrs. *)

module E = Montage.Epoch_sys

module View = Montage.Payload.View

(* The payload codec: values are written straight into the payload and
   decoded straight from it, each field copied once. *)
module Codec = struct
  type t =
    | Vertex of { id : int; attrs : string }
    | Edge of { src : int; dst : int; attrs : string }

  let encode = function
    | Vertex { id; attrs } ->
        let n = String.length attrs in
        {
          Montage.Payload.len = 9 + n;
          write =
            (fun b at ->
              Bytes.set b at 'V';
              Bytes.set_int64_le b (at + 1) (Int64.of_int id);
              Bytes.blit_string attrs 0 b (at + 9) n);
        }
    | Edge { src; dst; attrs } ->
        let n = String.length attrs in
        {
          Montage.Payload.len = 17 + n;
          write =
            (fun b at ->
              Bytes.set b at 'E';
              Bytes.set_int64_le b (at + 1) (Int64.of_int src);
              Bytes.set_int64_le b (at + 9) (Int64.of_int dst);
              Bytes.blit_string attrs 0 b (at + 17) n);
        }

  let attrs_from v pos = View.sub_string v ~pos ~len:(View.length v - pos)
  let bad_tag c = invalid_arg (Printf.sprintf "Mgraph.decode: bad tag %C" c)

  let decode v =
    match View.get_char v 0 with
    | 'V' -> Vertex { id = View.get_int64_le v 1; attrs = attrs_from v 9 }
    | 'E' ->
        Edge { src = View.get_int64_le v 1; dst = View.get_int64_le v 9; attrs = attrs_from v 17 }
    | c -> bad_tag c

  (* The tag and ids alone, for recovery: no attributes are copied. *)
  type ids = Vertex_id of int | Edge_ids of int * int

  let ids v =
    match View.get_char v 0 with
    | 'V' -> Vertex_id (View.get_int64_le v 1)
    | 'E' -> Edge_ids (View.get_int64_le v 1, View.get_int64_le v 9)
    | c -> bad_tag c
end

module Gp = Montage.Payload.Make (Codec)

type vertex = {
  id : int;
  mutable payload : E.pblk;
  (* neighbor id -> edge payload handle; the handle is shared with the
     neighbor's table (one payload per edge) via a mutable box *)
  adj : (int, E.pblk ref) Hashtbl.t;
}

type t = {
  esys : E.t;
  capacity : int;
  vertices : vertex option array;
  locks : Util.Spin_lock.t array;
  structure : Util.Rw_lock.t;
  vertex_count : int Atomic.t;
  edge_count : int Atomic.t;
}

let create ?(capacity = 1 lsl 20) esys =
  {
    esys;
    capacity;
    vertices = Array.make capacity None;
    locks = Array.init capacity (fun _ -> Util.Spin_lock.create ());
    structure = Util.Rw_lock.create ();
    vertex_count = Atomic.make 0;
    edge_count = Atomic.make 0;
  }

let esys t = t.esys
let vertex_count t = Atomic.get t.vertex_count
[@@montage.allow "R2: read-only statistics observer"]

let edge_count t = Atomic.get t.edge_count
[@@montage.allow "R2: read-only statistics observer"]

let check_id t id =
  if id < 0 || id >= t.capacity then invalid_arg (Printf.sprintf "Mgraph: id %d out of range" id)

(* canonical (src, dst) ordering so each undirected edge is stored once *)
let canonical u v = if u <= v then (u, v) else (v, u)

let lock_pair t u v f =
  let a, b = canonical u v in
  Util.Spin_lock.with_lock t.locks.(a) (fun () ->
      if a = b then f ()
      else Util.Spin_lock.with_lock t.locks.(b) f)

(* ---- vertex operations (exclusive structural access) ---- *)

let add_vertex t ~tid id attrs =
  Util.Sched.yield "mgraph.add_vertex";
  check_id t id;
  Util.Rw_lock.with_write t.structure (fun () ->
      match t.vertices.(id) with
      | Some _ -> false
      | None ->
          E.with_op t.esys ~tid (fun () ->
              let payload = Gp.pnew t.esys ~tid (Codec.Vertex { id; attrs }) in
              t.vertices.(id) <- Some { id; payload; adj = Hashtbl.create 8 };
              Atomic.incr t.vertex_count;
              true))

(* Remove a vertex and all incident edges (edge payloads deleted too:
   they name the dead vertex). *)
let remove_vertex t ~tid id =
  Util.Sched.yield "mgraph.remove_vertex";
  check_id t id;
  Util.Rw_lock.with_write t.structure (fun () ->
      match t.vertices.(id) with
      | None -> false
      | Some v ->
          E.with_op t.esys ~tid (fun () ->
              Hashtbl.iter
                (fun peer edge ->
                  E.pdelete t.esys ~tid !edge;
                  (match t.vertices.(peer) with
                  | Some pv -> Hashtbl.remove pv.adj id
                  | None -> ());
                  Atomic.decr t.edge_count)
                v.adj;
              E.pdelete t.esys ~tid v.payload;
              t.vertices.(id) <- None;
              Atomic.decr t.vertex_count;
              true))

let has_vertex t id =
  check_id t id;
  t.vertices.(id) <> None

let vertex_attrs t ~tid:_ id =
  check_id t id;
  Util.Rw_lock.with_read t.structure (fun () ->
      match t.vertices.(id) with
      | None -> None
      | Some v -> (
          match Gp.get_unsafe t.esys v.payload with
          | Codec.Vertex { attrs; _ } -> Some attrs
          | Codec.Edge _ ->
              Montage.Errors.corrupt
                "Mgraph.vertex_attrs: payload uid %d for vertex %d decoded as an edge" v.payload.E.uid
                id))

(* ---- edge operations (shared structural access + endpoint locks) ---- *)

let add_edge t ~tid src dst attrs =
  Util.Sched.yield "mgraph.add_edge";
  check_id t src;
  check_id t dst;
  if src = dst then false
  else
    Util.Rw_lock.with_read t.structure (fun () ->
        lock_pair t src dst (fun () ->
            match (t.vertices.(src), t.vertices.(dst)) with
            | Some u, Some v when not (Hashtbl.mem u.adj dst) ->
                E.with_op t.esys ~tid (fun () ->
                    let s, d = canonical src dst in
                    let payload = Gp.pnew t.esys ~tid (Codec.Edge { src = s; dst = d; attrs }) in
                    let box = ref payload in
                    Hashtbl.replace u.adj dst box;
                    Hashtbl.replace v.adj src box;
                    Atomic.incr t.edge_count;
                    true)
            | _ -> false))

let remove_edge t ~tid src dst =
  Util.Sched.yield "mgraph.remove_edge";
  check_id t src;
  check_id t dst;
  if src = dst then false
  else
    Util.Rw_lock.with_read t.structure (fun () ->
        lock_pair t src dst (fun () ->
            match (t.vertices.(src), t.vertices.(dst)) with
            | Some u, Some v -> (
                match Hashtbl.find_opt u.adj dst with
                | None -> false
                | Some box ->
                    E.with_op t.esys ~tid (fun () ->
                        E.pdelete t.esys ~tid !box;
                        Hashtbl.remove u.adj dst;
                        Hashtbl.remove v.adj src;
                        Atomic.decr t.edge_count;
                        true))
            | _ -> false))

let has_edge t src dst =
  Util.Sched.yield "mgraph.has_edge";
  check_id t src;
  check_id t dst;
  Util.Rw_lock.with_read t.structure (fun () ->
      match t.vertices.(src) with Some u -> Hashtbl.mem u.adj dst | None -> false)

let edge_attrs t ~tid:_ src dst =
  Util.Rw_lock.with_read t.structure (fun () ->
      match t.vertices.(src) with
      | None -> None
      | Some u -> (
          match Hashtbl.find_opt u.adj dst with
          | None -> None
          | Some box -> (
              match Gp.get_unsafe t.esys !box with
              | Codec.Edge { attrs; _ } -> Some attrs
              | Codec.Vertex _ ->
                  Montage.Errors.corrupt
                    "Mgraph.edge_attrs: payload uid %d for edge (%d, %d) decoded as a vertex"
                    !box.E.uid src dst)))

let neighbors t id =
  check_id t id;
  Util.Rw_lock.with_read t.structure (fun () ->
      match t.vertices.(id) with
      | None -> []
      | Some v -> Hashtbl.fold (fun peer _ acc -> peer :: acc) v.adj [])

let degree t id =
  check_id t id;
  match t.vertices.(id) with Some v -> Hashtbl.length v.adj | None -> 0

(* ---- recovery ---- *)

(* Rebuild from recovered payloads, reading each one's tag and ids
   alone (never its attributes): vertices first (slot writes are
   disjoint by id, so parallel slices need no locks), then edges (the
   endpoint locks serialize adjacency updates).  An edge whose endpoint
   did not survive is impossible under the epoch-consistent cut, but we
   drop such edges defensively rather than crash recovery. *)
let recover ?(capacity = 1 lsl 20) ?(threads = 1) esys payloads =
  let t = create ~capacity esys in
  let vertex_phase slice =
    Array.iter
      (fun p ->
        match Montage.Payload.read_unsafe esys p Codec.ids with
        | Codec.Vertex_id id ->
            t.vertices.(id) <- Some { id; payload = p; adj = Hashtbl.create 8 };
            Atomic.incr t.vertex_count
        | Codec.Edge_ids _ -> ())
      slice
  in
  let edge_phase slice =
    Array.iter
      (fun p ->
        match Montage.Payload.read_unsafe esys p Codec.ids with
        | Codec.Vertex_id _ -> ()
        | Codec.Edge_ids (src, dst) ->
            lock_pair t src dst (fun () ->
                match (t.vertices.(src), t.vertices.(dst)) with
                | Some u, Some v ->
                    let box = ref p in
                    Hashtbl.replace u.adj dst box;
                    Hashtbl.replace v.adj src box;
                    Atomic.incr t.edge_count
                | _ -> ()))
      slice
  in
  if threads <= 1 then begin
    vertex_phase payloads;
    edge_phase payloads
  end
  else begin
    let slices = E.slices payloads ~k:threads in
    let d1 = Array.map (fun s -> Domain.spawn (fun () -> vertex_phase s)) slices in
    Array.iter Domain.join d1;
    let d2 = Array.map (fun s -> Domain.spawn (fun () -> edge_phase s)) slices in
    Array.iter Domain.join d2
  end;
  t
[@@montage.allow
  "R2: recovery-time counters; the incrs commute and recovery \
   completes (domains joined) before the graph is shared with any \
   operation"]
