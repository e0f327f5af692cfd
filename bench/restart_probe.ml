(* restart_probe — what a restart costs up to serving every key.

     dune exec bench/restart_probe.exe -- [--cycles N] [--seed S]

   Builds the crash image perfbench's recover_cold workload restarts
   from (1,250 YCSB records of 1 KiB in a 4 MiB region, synced, then
   1,000 unsynced YCSB-A requests), then times N restart cycles, each
   from a freshly collected heap: [Region.of_image], epoch recovery and
   the hashmap rebuild at 1 thread, and a get of every key, checked
   against the loaded values.  recover_cold stops at the first get;
   the gets of every key are where a lazily loaded region pays for the
   lines that recovery left untouched.  Prints the median of each
   phase over the cycles and the minor collections each phase ran per
   cycle. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config
module R = Nvm.Region
module Store = Kvstore.Store
module Ycsb = Kvstore.Ycsb
module Map = Pstructs.Mhashmap
module X = Util.Xoshiro

let records = 1_250
let tail = 1_000
let buckets = 1 lsl 12
let config = { Cfg.default with max_threads = 2; auto_advance = false }

let crash_image ~seed =
  let wl = Ycsb.create (Ycsb.workload_a ~records ~value_size:1024 ()) in
  let loaded = Hashtbl.create records in
  Ycsb.load wl ~set:(Hashtbl.replace loaded) (X.create (seed + 1));
  let region = R.create ~max_threads:5 ~capacity:(4 lsl 20) () in
  let esys = E.create ~config region in
  let store = Store.create (Store.of_mhashmap (Map.create ~buckets esys)) in
  for i = 0 to records - 1 do
    let k = Ycsb.key_of_record i in
    Store.set store ~tid:0 k (Hashtbl.find loaded k)
  done;
  E.sync esys ~tid:0;
  let rng = X.create (seed + 2) in
  for _ = 1 to tail do
    Ycsb.execute wl ~tid:0 store (Ycsb.next wl rng)
  done;
  (R.media_image region, loaded)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let () =
  let cycles = ref 300 and seed = ref 1 in
  Arg.parse
    [
      ("--cycles", Arg.Set_int cycles, " restart cycles to time (default 300)");
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "restart_probe.exe [--cycles N] [--seed S]";
  if !cycles < 1 then invalid_arg "restart_probe: --cycles must be at least 1";
  let image, loaded = crash_image ~seed:!seed in
  let phases = [| "image_load"; "recover_scan"; "index_rebuild"; "first_get"; "get_every_key" |] in
  let times = Array.make (Array.length phases) [] and minors = Array.make (Array.length phases) 0 in
  let keys = List.init records Ycsb.key_of_record in
  let totals = ref [] in
  for _ = 1 to !cycles do
    Gc.full_major ();
    let phase i f =
      let m0 = (Gc.quick_stat ()).minor_collections and t0 = Unix.gettimeofday () in
      let r = f () in
      times.(i) <- (Unix.gettimeofday () -. t0) :: times.(i);
      minors.(i) <- minors.(i) + (Gc.quick_stat ()).minor_collections - m0;
      r
    in
    let region = phase 0 (fun () -> R.of_image ~max_threads:5 image) in
    let esys, payloads = phase 1 (fun () -> E.recover ~config region) in
    let map = phase 2 (fun () -> Map.recover ~buckets esys payloads) in
    let store = Store.create (Store.of_mhashmap map) in
    let get k = Store.get store ~tid:0 k = Some (Hashtbl.find loaded k) in
    let ok = phase 3 (fun () -> get (List.hd keys)) && phase 4 (fun () -> List.for_all get keys) in
    if not ok then failwith "restart_probe: a recovered value differs from the loaded one";
    totals := List.fold_left (fun acc ts -> acc +. List.hd ts) 0.0 (Array.to_list times) :: !totals
  done;
  let n = float_of_int !cycles in
  Printf.printf "restart_probe: %d cycles, seed %d\n" !cycles !seed;
  Printf.printf "%-14s %10s %14s\n" "phase" "median_us" "minor_gc/cycle";
  Array.iteri
    (fun i name ->
      Printf.printf "%-14s %10.1f %14.2f\n" name (1e6 *. median times.(i)) (float_of_int minors.(i) /. n))
    phases;
  Printf.printf "%-14s %10.1f\n" "total" (1e6 *. median !totals)
