(* Consistent-hash ring: sorted array of (point, shard) pairs on a
   64-bit circle, binary-search lookup with wraparound. *)

type t = {
  vnodes : int;
  ids : int list;  (* sorted, deduped *)
  points : (int64 * int) array;  (* sorted by point, ties by shard id *)
}

(* FNV-1a, 64-bit.  Unsigned comparison below makes the full circle
   usable even though OCaml int64 is signed.  The accumulator is a
   local the compiler keeps unboxed: only the result is boxed. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a_64 s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) fnv_prime
  done;
  !h

let point_of ~id ~vnode = fnv1a_64 (Printf.sprintf "shard-%d-%d" id vnode)

let ucompare (a : int64) (b : int64) =
  (* unsigned 64-bit compare *)
  Int64.unsigned_compare a b

let build vnodes ids =
  let ids = List.sort_uniq compare ids in
  let points = Array.make (List.length ids * vnodes) (0L, 0) in
  let i = ref 0 in
  List.iter
    (fun id ->
      for v = 0 to vnodes - 1 do
        points.(!i) <- (point_of ~id ~vnode:v, id);
        incr i
      done)
    ids;
  Array.sort
    (fun (p1, s1) (p2, s2) ->
      let c = ucompare p1 p2 in
      if c <> 0 then c else compare s1 s2)
    points;
  { vnodes; ids; points }

let create ?(vnodes = 128) ids =
  if vnodes <= 0 then invalid_arg "Ring.create: vnodes must be positive";
  build vnodes ids

let vnodes t = t.vnodes
let shards t = t.ids

let lookup t key =
  let n = Array.length t.points in
  if n = 0 then invalid_arg "Ring.lookup: empty ring";
  let h = fnv1a_64 key in
  (* first point with point >= h, wrapping to 0 *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let p, _ = t.points.(mid) in
    if ucompare p h < 0 then lo := mid + 1 else hi := mid
  done;
  let idx = if !lo = n then 0 else !lo in
  snd t.points.(idx)

let keys_on t sid ~prefix n =
  if not (List.mem sid t.ids) then invalid_arg "Ring.keys_on: shard not on the ring";
  let rec go acc i =
    if List.length acc = n then List.rev acc
    else
      let k = prefix ^ string_of_int i in
      go (if lookup t k = sid then k :: acc else acc) (i + 1)
  in
  go [] 0

let remove t id =
  if not (List.mem id t.ids) then t else build t.vnodes (List.filter (fun x -> x <> id) t.ids)

let add t id = if List.mem id t.ids then t else build t.vnodes (id :: t.ids)
