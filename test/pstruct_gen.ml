(* Shared key/value generators for the pstructs test suites.

   Every structure's tests used to roll their own [Printf.sprintf]
   key shapes; they live here once so the suites (and their qcheck
   scripts) stay comparable across structures. *)

(* zero-padded keys: stable lexicographic order matches numeric order *)
let key3 i = Printf.sprintf "key%03d" i
let k2 i = Printf.sprintf "k%02d" i
let k3 i = Printf.sprintf "k%03d" i

(* unpadded short keys/values *)
let k i = Printf.sprintf "k%d" i
let v i = Printf.sprintf "v%d" i

(* per-thread disjoint keyspace *)
let tid_key tid i = Printf.sprintf "t%d-%d" tid i

(* [n] keys that hash to distinct buckets of one lock stripe of an
   [Mhashmap] with [buckets] buckets *)
let stripe_aliased_keys ~buckets n =
  let bucket k = Hashtbl.hash k land (buckets - 1) in
  let stripe k = bucket k land (Pstructs.Mhashmap.stripes - 1) in
  let rec pick acc i =
    if List.length acc = n then List.rev acc
    else
      let k = Printf.sprintf "alias%d" i in
      let fits =
        match acc with
        | [] -> true
        | k0 :: _ -> stripe k = stripe k0 && List.for_all (fun k' -> bucket k <> bucket k') acc
      in
      pick (if fits then k :: acc else acc) (i + 1)
  in
  pick [] 0

(* small-domain key for model scripts: collisions on purpose *)
let num_key i = "key" ^ string_of_int i

(* random key over a 30-slot domain, for crash-injection scripts *)
let rand_k2 rng = k2 (Util.Xoshiro.int rng 30)

(* qcheck script: (key index, payload string) pairs over a small key
   domain so puts/removes/overwrites all get exercised *)
let script_arb = QCheck.(list (pair (int_range 0 20) small_string))

(* degenerate hash: [buckets] distinct values force collision leaves /
   deep chains in any hashed structure *)
let degenerate_hash buckets key = Hashtbl.hash key mod buckets
