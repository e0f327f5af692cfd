(* YCSB core-workload generator (Cooper et al., SoCC '10), as used by
   the paper's memcached experiment (§6.2, workload A).

   Keys follow YCSB's convention: "user" + zero-padded decimal of a
   scrambled-zipfian record index.  The operation mix and request
   distribution define the named workloads:

     A: 50% read / 50% update, zipfian
     B: 95% read /  5% update, zipfian
     C: 100% read,             zipfian
     D: 95% read /  5% insert, latest
     F: 50% read / 50% read-modify-write, zipfian (we model the RMW as
        a get followed by a set, as YCSB's client does)

   The generator is deterministic given a seed, so every system in a
   comparison sees an identical request stream. *)

type op = Read of string | Update of string * string | Insert of string * string | Rmw of string * string

type spec = {
  records : int;
  read_pct : float;
  update_pct : float;
  insert_pct : float;
  rmw_pct : float;
  value_size : int;
  zipfian : bool;
}

let workload_a ?(records = 100_000) ?(value_size = 100) () =
  { records; read_pct = 0.5; update_pct = 0.5; insert_pct = 0.0; rmw_pct = 0.0; value_size; zipfian = true }

let workload_b ?(records = 100_000) ?(value_size = 100) () =
  { records; read_pct = 0.95; update_pct = 0.05; insert_pct = 0.0; rmw_pct = 0.0; value_size; zipfian = true }

let workload_c ?(records = 100_000) ?(value_size = 100) () =
  { records; read_pct = 1.0; update_pct = 0.0; insert_pct = 0.0; rmw_pct = 0.0; value_size; zipfian = true }

type t = {
  spec : spec;
  zipf : Util.Zipf.t;
  insert_cursor : int Atomic.t; (* next record id for inserts *)
  value_template : string; (* 2x value_size of random filler *)
}

let create spec =
  let rng = Util.Xoshiro.create 0x59435342 in
  let template =
    String.init (2 * spec.value_size) (fun _ -> Char.chr (97 + Util.Xoshiro.int rng 26))
  in
  {
    spec;
    zipf = Util.Zipf.create spec.records;
    insert_cursor = Atomic.make spec.records;
    value_template = template;
  }

let key_of_record i = Printf.sprintf "user%019d" i

(* memcached-style payload: a random window into the filler template —
   one memcpy, like a real client buffer, not per-byte generation *)
let value_of t rng =
  let off = Util.Xoshiro.int rng t.spec.value_size in
  String.sub t.value_template off t.spec.value_size

let sample_key t rng =
  if t.spec.zipfian then key_of_record (Util.Zipf.sample t.zipf rng)
  else key_of_record (Util.Xoshiro.int rng t.spec.records)

(* Draw the next operation. *)
let next t rng =
  let r = Util.Xoshiro.float rng in
  if r < t.spec.read_pct then Read (sample_key t rng)
  else if r < t.spec.read_pct +. t.spec.update_pct then Update (sample_key t rng, value_of t rng)
  else if r < t.spec.read_pct +. t.spec.update_pct +. t.spec.rmw_pct then
    Rmw (sample_key t rng, value_of t rng)
  else
    let id = Atomic.fetch_and_add t.insert_cursor 1 in
    Insert (key_of_record id, value_of t rng)

(* Preload all records through [set]. *)
let load t ~set rng =
  for i = 0 to t.spec.records - 1 do
    set (key_of_record i) (value_of t rng)
  done

(* Run one drawn operation against a store. *)
let execute t ~tid store op =
  match op with
  | Read key -> ignore (Store.get store ~tid key)
  | Update (key, value) | Insert (key, value) -> Store.set store ~tid key value
  | Rmw (key, value) ->
      ignore (Store.get store ~tid key);
      Store.set store ~tid key value;
      ignore t
