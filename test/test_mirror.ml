(* Warm handles: unit coverage of the DRAM read-cache model (warm hits
   charge no media, stay warm across pset, carry over across copying
   updates, cool on pdelete, clock eviction under a byte budget,
   oversized bypass, budget 0), typed reads after a set, coherence
   under Pcheck [Enforce] with racing mutators and under lock-free
   readers, raw and typed, racing in-place stores (the content
   seqlock), a QCheck property driving random op mixes
   against a model, a [Pcheck.explore] crash matrix asserting recovery
   starts cold, and the allocation the request path keeps on the heap.

   Every esys here pins [mirror_max_bytes] explicitly (rather than
   inheriting MONTAGE_MIRROR_BYTES) so the CI matrix legs exercise both
   library paths without inverting these assertions. *)

module E = Montage.Epoch_sys
module R = Nvm.Region
module P = Nvm.Pcheck
module Cfg = Montage.Config
module Payload = Montage.Payload

let on_cfg = { Cfg.testing with max_threads = 4; mirror_max_bytes = 1 lsl 20 }
let off_cfg = { on_cfg with mirror_max_bytes = 0 }

let make_esys ?(cfg = on_cfg) () =
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 22) () in
  (region, E.create ~config:cfg region)

(* ---- warm handles ---- *)

let test_warm_reads_charge_no_media () =
  let region, esys = make_esys () in
  let p = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (Bytes.of_string "hello")) in
  let base = (R.stats region).R.lines_read in
  for _ = 1 to 100 do
    Alcotest.(check string) "warm read" "hello" (Bytes.to_string (E.pget esys ~tid:0 p))
  done;
  Alcotest.(check int) "no media lines charged" base (R.stats region).R.lines_read;
  let st = E.mirror_stats esys in
  Alcotest.(check bool) "hits counted" true (st.E.hits >= 100);
  Alcotest.(check int) "born warm: no miss ever" 0 st.E.misses

let test_cold_after_recovery () =
  let region, esys = make_esys () in
  let _p = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (Bytes.of_string "persist-me")) in
  E.sync esys ~tid:0;
  E.stop_background esys;
  R.crash region;
  let esys2, payloads = E.recover ~config:on_cfg region in
  Alcotest.(check int) "one payload survives" 1 (Array.length payloads);
  let st0 = E.mirror_stats esys2 in
  Alcotest.(check int) "recovery starts cold: nothing resident" 0 st0.E.resident_bytes;
  Alcotest.(check int) "no hits before any read" 0 st0.E.hits;
  Alcotest.(check string) "first read decodes from media" "persist-me"
    (Bytes.to_string (E.pget_unsafe esys2 payloads.(0)));
  let st1 = E.mirror_stats esys2 in
  Alcotest.(check bool) "first read was a miss" true (st1.E.misses > st0.E.misses);
  Alcotest.(check string) "second read is warm" "persist-me"
    (Bytes.to_string (E.pget_unsafe esys2 payloads.(0)));
  Alcotest.(check int) "no further miss" st1.E.misses (E.mirror_stats esys2).E.misses;
  E.stop_background esys2

let test_pset_in_place_refreshes () =
  let _, esys = make_esys () in
  E.with_op esys ~tid:0 (fun () ->
      let p = E.pnew esys ~tid:0 (Bytes.of_string "v1") in
      let p' = E.pset esys ~tid:0 p (Bytes.of_string "v2") in
      Alcotest.(check bool) "same-epoch pset is in place" true (p == p');
      let before = (E.mirror_stats esys).E.misses in
      Alcotest.(check string) "mirror refreshed" "v2" (Bytes.to_string (E.pget esys ~tid:0 p'));
      Alcotest.(check int) "still warm" before (E.mirror_stats esys).E.misses)

let test_copying_pset_carries_mirror () =
  let _, esys = make_esys () in
  let p = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (Bytes.of_string "v1")) in
  E.advance_epoch esys ~tid:0;
  let p' = E.with_op esys ~tid:0 (fun () -> E.pset esys ~tid:0 p (Bytes.of_string "v2!")) in
  Alcotest.(check bool) "cross-epoch pset copies" true (p != p');
  let before = (E.mirror_stats esys).E.misses in
  Alcotest.(check string) "fresh handle is warm" "v2!" (Bytes.to_string (E.pget esys ~tid:0 p'));
  Alcotest.(check int) "no miss on the fresh handle" before (E.mirror_stats esys).E.misses;
  Alcotest.(check int) "old mirror dropped with its handle" 3
    (E.mirror_stats esys).E.resident_bytes

let test_pdelete_drops_mirror () =
  let _, esys = make_esys () in
  E.with_op esys ~tid:0 (fun () ->
      let p = E.pnew esys ~tid:0 (Bytes.of_string "doomed") in
      Alcotest.(check int) "resident while live" 6 (E.mirror_stats esys).E.resident_bytes;
      E.pdelete esys ~tid:0 p;
      Alcotest.(check int) "dropped on delete" 0 (E.mirror_stats esys).E.resident_bytes)

let test_clock_eviction_respects_budget () =
  let cfg = { on_cfg with Cfg.mirror_max_bytes = 4096 } in
  let _, esys = make_esys ~cfg () in
  let payloads =
    Array.init 64 (fun i ->
        E.with_op esys ~tid:0 (fun () ->
            E.pnew esys ~tid:0 (Bytes.make 128 (Char.chr (65 + (i mod 26))))))
  in
  let st = E.mirror_stats esys in
  Alcotest.(check bool) "budget respected" true (st.E.resident_bytes <= 4096);
  Alcotest.(check bool) "clock evicted victims" true (st.E.evictions > 0);
  (* evicted entries re-read correctly (cold path), warm ones too *)
  Array.iteri
    (fun i p ->
      let b = E.pget esys ~tid:0 p in
      Alcotest.(check int) "length survives eviction" 128 (Bytes.length b);
      Alcotest.(check char) "content survives eviction" (Char.chr (65 + (i mod 26))) (Bytes.get b 0))
    payloads;
  Alcotest.(check bool) "still within budget after refills" true
    ((E.mirror_stats esys).E.resident_bytes <= 4096)

let test_oversized_payload_bypasses_cache () =
  let cfg = { on_cfg with Cfg.mirror_max_bytes = 256 } in
  let _, esys = make_esys ~cfg () in
  let big = Bytes.make 1024 'x' in
  let p = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 big) in
  Alcotest.(check int) "larger than the whole budget: uncached" 0
    (E.mirror_stats esys).E.resident_bytes;
  Alcotest.(check int) "reads still correct" 1024 (Bytes.length (E.pget esys ~tid:0 p));
  Alcotest.(check int) "still uncached after the read" 0 (E.mirror_stats esys).E.resident_bytes

let test_mirror_off_is_inert () =
  let region, esys = make_esys ~cfg:off_cfg () in
  let p = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (Bytes.of_string "plain")) in
  let base = (R.stats region).R.lines_read in
  Alcotest.(check string) "read ok" "plain" (Bytes.to_string (E.pget esys ~tid:0 p));
  Alcotest.(check bool) "every read charges media" true ((R.stats region).R.lines_read > base);
  let st = E.mirror_stats esys in
  Alcotest.(check int) "no mirror traffic at all" 0
    (st.E.hits + st.E.misses + st.E.evictions + st.E.resident_bytes)

(* ---- typed reads ---- *)

let test_get_after_set () =
  let _, esys = make_esys () in
  E.with_op esys ~tid:0 (fun () ->
      let h = Payload.Str.pnew esys ~tid:0 "old" in
      let h' = Payload.Str.set esys ~tid:0 h "new" in
      Alcotest.(check string) "the read follows the mutation" "new"
        (Payload.Str.get esys ~tid:0 h'))

(* ---- coherence under Enforce ---- *)

(* Racing mutators over shared keys with the checker in [Enforce] mode:
   every read, warm or cold, is a region read the checker sees, and any
   violation raises [Pcheck.Violation] inside a domain and fails the
   join; every value read must be one some writer stored. *)
let test_concurrent_coherence_under_enforce () =
  let _, esys = make_esys () in
  let m = Pstructs.Mhashmap.create ~buckets:64 esys in
  let keys = Array.init 32 (fun i -> Printf.sprintf "k%02d" i) in
  Array.iter (fun k -> ignore (Pstructs.Mhashmap.put m ~tid:0 k "0")) keys;
  let domains =
    Array.init 3 (fun i ->
        let tid = i + 1 in
        Domain.spawn (fun () ->
            for j = 0 to 1499 do
              let k = keys.(j * (tid + 7) mod Array.length keys) in
              match j mod 4 with
              | 0 -> ignore (Pstructs.Mhashmap.put m ~tid k (Printf.sprintf "%d-%d" tid j))
              | 1 -> ignore (Pstructs.Mhashmap.get m ~tid k)
              | 2 ->
                  ignore
                    (Pstructs.Mhashmap.update m ~tid k (function
                      | Some v when String.length v < 64 -> Some (v ^ "+")
                      | Some _ -> Some "0"
                      | None -> Some "fresh"))
              | _ ->
                  if j mod 16 = 3 then ignore (Pstructs.Mhashmap.remove m ~tid k)
                  else ignore (Pstructs.Mhashmap.get m ~tid k)
            done))
  in
  Array.iter Domain.join domains;
  (match E.checker esys with
  | Some c -> Alcotest.(check int) "zero violations under Enforce" 0 (List.length (P.violations c))
  | None -> Alcotest.fail "testing config should attach a checker");
  let st = E.mirror_stats esys in
  Alcotest.(check bool) "the race actually exercised warm reads" true (st.E.hits > 0)

(* Lock-free readers against in-place stores: one domain keeps
   rewriting a [(key, value)] payload in place (one epoch, so every
   pset is in place) with uniform contents of changing lengths (values
   of 4 KiB and up, so a copy takes long enough to overlap a store),
   while three domains read it without any lock: a raw copy, a raw copy
   without the old-sees-new check, and a typed [Payload.Kv.get] that
   decodes straight from the region.  Every read must be one whole
   version: a single repeated letter in key and value, at lengths that
   were stored.  Without the content seqlock's recheck a reader copies
   across a store and sees two letters, or lengths that were never
   stored. *)
let test_lock_free_readers_see_whole_versions () =
  let _, esys = make_esys ~cfg:{ on_cfg with Cfg.pcheck = Cfg.Pcheck_off } () in
  let version i =
    let c = Char.chr (97 + (i mod 26)) in
    (String.make (1 + (i mod 5)) c, String.make (4096 + (97 * (i mod 7))) c)
  in
  let whole_pair (k, v) =
    let kn = String.length k and vn = String.length v in
    kn >= 1 && kn <= 5 && vn >= 4096
    && (vn - 4096) mod 97 = 0
    && String.for_all (fun c -> c = v.[0]) v
    && String.for_all (fun c -> c = v.[0]) k
  in
  let whole b =
    let n = Bytes.length b in
    n >= 4
    &&
    let kn = Int32.to_int (Bytes.get_int32_le b 0) in
    kn >= 0
    && 4 + kn <= n
    && whole_pair (Bytes.sub_string b 4 kn, Bytes.sub_string b (4 + kn) (n - 4 - kn))
  in
  (* version 34 is the longest (i mod 5 = 4, i mod 7 = 6): every later
     store fits its block, so each one is in place *)
  let h = E.with_op esys ~tid:0 (fun () -> Payload.Kv.pnew esys ~tid:0 (version 34)) in
  let stop = Atomic.make false in
  let readers =
    [ ("pget", fun tid -> whole (E.pget esys ~tid h));
      ("pget_unsafe", fun _ -> whole (E.pget_unsafe esys h));
      ("Kv.get", fun tid -> whole_pair (Payload.Kv.get esys ~tid h)) ]
    |> List.mapi (fun i (name, read_whole) ->
           let tid = i + 1 in
           ( name,
             Domain.spawn (fun () ->
                 let torn = ref 0 and reads = ref 0 in
                 while not (Atomic.get stop) do
                   incr reads;
                   if not (read_whole tid) then incr torn
                 done;
                 (!torn, !reads)) ))
  in
  E.with_op esys ~tid:0 (fun () ->
      for i = 1 to 20_000 do
        ignore (Payload.Kv.set esys ~tid:0 h (version i))
      done);
  Atomic.set stop true;
  List.iter
    (fun (name, d) ->
      let torn, reads = Domain.join d in
      Alcotest.(check bool) (name ^ " ran") true (reads > 0);
      Alcotest.(check int) (name ^ ": no torn read") 0 torn)
    readers;
  Alcotest.(check bool) "ended even" true (Atomic.get h.E.gen land 1 = 0);
  Alcotest.(check (pair string string)) "final version" (version 20_000)
    (Payload.Kv.get esys ~tid:0 h)

(* Random op mixes against a model map, epoch boundaries sprinkled in
   so copying psets and anti-payload paths are on the table; the
   Enforce checker sees every warm and cold read. *)
let prop_mirrored_map_matches_model =
  QCheck.Test.make ~count:40 ~name:"mirrored mhashmap ≡ model over random op mixes"
    QCheck.(small_list (triple (int_bound 3) (int_bound 15) (int_bound 99)))
    (fun ops ->
      let _, esys = make_esys () in
      let m = Pstructs.Mhashmap.create ~buckets:16 esys in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun (op, ki, vi) ->
          let k = Printf.sprintf "k%d" ki and v = Printf.sprintf "v%d" vi in
          if vi mod 11 = 0 then E.advance_epoch esys ~tid:0;
          match op with
          | 0 ->
              ignore (Pstructs.Mhashmap.put m ~tid:0 k v);
              Hashtbl.replace model k v
          | 1 -> if Pstructs.Mhashmap.get m ~tid:0 k <> Hashtbl.find_opt model k then ok := false
          | 2 ->
              ignore (Pstructs.Mhashmap.remove m ~tid:0 k);
              Hashtbl.remove model k
          | _ -> (
              ignore
                (Pstructs.Mhashmap.update m ~tid:0 k (function
                  | Some s -> Some (s ^ "+")
                  | None -> None));
              match Hashtbl.find_opt model k with
              | Some s -> Hashtbl.replace model k (s ^ "+")
              | None -> ()))
        ops;
      let got = List.sort compare (Pstructs.Mhashmap.to_alist m ~tid:0) in
      let want = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []) in
      !ok && got = want)

(* ---- crash matrix ---- *)

let logged_esys () =
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 18) () in
  let c = R.enable_pcheck ~mode:P.Enforce ~log_events:true region in
  let esys = E.create ~config:on_cfg region in
  (region, c, esys)

let recover_cfg = { on_cfg with Cfg.pcheck = Cfg.Pcheck_off }

(* Warm every handle, then overwrite the values so DRAM state and the
   (lagging) media disagree; enumerate every fence-respecting crash
   state.  A recovery that could observe pre-crash DRAM state would
   resurrect b-values in states where only the a-values are durable —
   instead every recovered pair must decode from the image itself, and
   the recovered esys must start with nothing resident. *)
let test_crash_matrix_recovery_is_cold () =
  let _, c, esys = logged_esys () in
  let m = Pstructs.Mhashmap.create ~buckets:8 esys in
  let written = Hashtbl.create 16 in
  for i = 0 to 5 do
    let k = Printf.sprintf "k%d" i in
    ignore (Pstructs.Mhashmap.put m ~tid:0 k ("a" ^ string_of_int i));
    Hashtbl.replace written (k, "a" ^ string_of_int i) ()
  done;
  E.sync esys ~tid:0;
  for i = 0 to 5 do
    ignore (Pstructs.Mhashmap.get m ~tid:0 (Printf.sprintf "k%d" i))
  done;
  for i = 0 to 5 do
    let k = Printf.sprintf "k%d" i in
    ignore (Pstructs.Mhashmap.put m ~tid:0 k ("b" ^ string_of_int i));
    Hashtbl.replace written (k, "b" ^ string_of_int i) ()
  done;
  E.advance_epoch esys ~tid:0;
  E.advance_epoch esys ~tid:0;
  let report =
    P.explore ~max_states:400 c (fun image ->
        match E.recover ~config:recover_cfg (R.of_image ~latency:Nvm.Latency.zero ~max_threads:8 image) with
        | exception _ -> false
        | esys2, payloads ->
            let st0 = E.mirror_stats esys2 in
            st0.E.resident_bytes = 0
            && st0.E.hits = 0
            &&
            let m2 = Pstructs.Mhashmap.recover ~buckets:8 esys2 payloads in
            List.for_all
              (fun (k, v) ->
                Hashtbl.mem written (k, v) && Pstructs.Mhashmap.get m2 ~tid:0 k = Some v)
              (Pstructs.Mhashmap.to_alist m2 ~tid:0))
  in
  Alcotest.(check bool) "states explored" true (report.P.states > 0);
  Alcotest.(check int) "recovery never observes pre-crash mirrors" 0 report.P.failures

(* ---- recovery rebuilds read index fields only ---- *)

(* [n] records with distinct [klen]-byte keys and 1 KiB values in a
   default-latency region, synced, crashed and epoch-recovered.  The
   map's own rebuild is left to the caller, so it can be measured. *)
let crashed_kv_region ~n ~klen =
  let region = R.create ~max_threads:8 ~capacity:(1 lsl 22) () in
  let esys = E.create ~config:on_cfg region in
  let m = Pstructs.Mhashmap.create ~buckets:64 esys in
  let pairs =
    List.init n (fun i ->
        let tag = Printf.sprintf "%d-" i in
        ( tag ^ String.init (klen - String.length tag) (fun j -> Char.chr (97 + ((i + j) mod 26))),
          String.init 1024 (fun j -> Char.chr (65 + ((i * 7 + j) mod 26))) ))
  in
  List.iter (fun (k, v) -> ignore (Pstructs.Mhashmap.put m ~tid:0 k v)) pairs;
  E.sync esys ~tid:0;
  R.crash region;
  let esys2, payloads = E.recover ~config:on_cfg region in
  Alcotest.(check int) "every record survives" n (Array.length payloads);
  (region, esys2, payloads, pairs)

(* Rebuild the map over [payloads] and return it with the charged line
   reads the rebuild took; then require every handle to be exactly as
   cold as [E.recover] returned it. *)
let rebuild_cold region esys payloads =
  let before = (R.stats region).R.lines_read in
  let m = Pstructs.Mhashmap.recover ~buckets:64 esys payloads in
  let lines = (R.stats region).R.lines_read - before in
  Alcotest.(check int) "nothing resident after the rebuild" 0 (E.mirror_stats esys).E.resident_bytes;
  Array.iter
    (fun (p : E.pblk) -> if p.mslot >= 0 then Alcotest.failf "uid %d is warm" p.uid)
    payloads;
  (m, lines)

let check_first_gets esys m pairs =
  let misses = (E.mirror_stats esys).E.misses in
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) "first get returns the full value" (Some v)
        (Pstructs.Mhashmap.get m ~tid:0 k))
    pairs;
  Alcotest.(check int) "every first get was a cold miss" (List.length pairs)
    ((E.mirror_stats esys).E.misses - misses)

let test_rebuild_reads_one_line_per_record () =
  let n = 200 in
  let region, esys, payloads, pairs = crashed_kv_region ~n ~klen:23 in
  let m, lines = rebuild_cold region esys payloads in
  Alcotest.(check int) "one charged line per record" n lines;
  Alcotest.(check int) "all keys indexed" n (Pstructs.Mhashmap.size m);
  check_first_gets esys m pairs

(* 200-byte keys run past the content's first line: the first read
   takes that line, the second only the rest of the key, so the rebuild
   is charged exactly the lines the key covers. *)
let test_rebuild_long_keys_two_reads () =
  let n = 50 and klen = 200 in
  let region, esys, payloads, pairs = crashed_kv_region ~n ~klen in
  let m, lines = rebuild_cold region esys payloads in
  let off = Montage.Payload_hdr.header_size in
  let covered = ((off + 4 + klen - 1) / R.line_size) - (off / R.line_size) + 1 in
  Alcotest.(check bool) "the key spans lines" true (covered > 1);
  Alcotest.(check int) "charged the key's lines only" (n * covered) lines;
  check_first_gets esys m pairs;
  Alcotest.(check (list string)) "keys intact" (List.sort compare (List.map fst pairs))
    (List.sort compare (List.map fst (Pstructs.Mhashmap.to_alist m ~tid:0)))

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true
let raises_corrupt f = match f () with _ -> false | exception Montage.Errors.Corrupt _ -> true

let test_pread_bounds_and_corrupt_fields () =
  let region, esys = make_esys () in
  (* a Kv payload whose key length overruns its 16 bytes *)
  let raw = Bytes.make 16 'x' in
  Bytes.set_int32_le raw 0 5000l;
  let p = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 raw) in
  let short = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (Bytes.of_string "abc")) in
  let before = (R.stats region).R.lines_read in
  Alcotest.(check string) "in-range read" "xxxx" (Bytes.to_string (E.pread_unsafe esys p ~pos:4 ~len:4));
  Alcotest.(check int) "charged its one line" 1 ((R.stats region).R.lines_read - before);
  Alcotest.(check bool) "past the end rejected" true
    (raises_invalid (fun () -> E.pread_unsafe esys p ~pos:10 ~len:7));
  Alcotest.(check bool) "negative position rejected" true
    (raises_invalid (fun () -> E.pread_unsafe esys p ~pos:(-1) ~len:2));
  Alcotest.(check bool) "oversized klen is corruption" true
    (raises_corrupt (fun () -> Payload.Kv.key_unsafe esys p));
  Alcotest.(check bool) "payload shorter than a seq is corruption" true
    (raises_corrupt (fun () -> Payload.Seq.seq_unsafe esys short))

(* A fill that raises inside an in-place store still closes the seqlock
   window: the generation ends even and the next read returns instead
   of waiting for a store that will never finish. *)
let test_raising_fill_closes_window () =
  let _, esys = make_esys () in
  let h = E.with_op esys ~tid:0 (fun () -> E.pnew esys ~tid:0 (Bytes.make 64 'a')) in
  let failing = { E.len = 64; write = (fun _ _ -> raise Exit) } in
  (match E.with_op esys ~tid:0 (fun () -> E.pset_fill esys ~tid:0 h failing) with
  | _ -> Alcotest.fail "the fill's exception was swallowed"
  | exception Exit -> ());
  Alcotest.(check bool) "generation even" true (Atomic.get h.E.gen land 1 = 0);
  Alcotest.(check int) "readable" 64 (Bytes.length (E.pget esys ~tid:0 h))

(* ---- allocation on the request path ---- *)

(* [n] warm 1 KiB items in a store over the Montage hashmap, one domain
   (no advancer, no checker), all in one epoch. *)
let warm_store n =
  let cfg = { on_cfg with Cfg.pcheck = Cfg.Pcheck_off; mirror_max_bytes = 1 lsl 26 } in
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 24) () in
  let esys = E.create ~config:cfg region in
  let store =
    Kvstore.Store.create (Kvstore.Store.of_mhashmap (Pstructs.Mhashmap.create ~buckets:4096 esys))
  in
  let keys = Array.init n (Printf.sprintf "key-%06d") in
  let value = String.make 1024 'v' in
  Array.iter (fun k -> Kvstore.Store.set store ~tid:0 k value) keys;
  (esys, store, keys, value)

(* A SET of a warm key in its own epoch stores in place, straight into
   the payload: nothing value-sized is allocated, let alone kept, so a
   minor collection after 2,000 of them promotes next to nothing.  A
   per-write heap copy of the value would promote about 136 words per
   set. *)
let test_in_place_sets_promote_nothing () =
  let n = 2000 in
  let esys, store, keys, _ = warm_store n in
  let data = Bytes.make 1024 'w' in
  let epoch = E.current_epoch esys in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  Array.iter
    (fun k -> ignore (Kvstore.Store.store store ~tid:0 Kvstore.Store.Set ~expiry:0.0 k data 0 1024))
    keys;
  Gc.minor ();
  let per_set = ((Gc.quick_stat ()).Gc.promoted_words -. before) /. float_of_int n in
  Alcotest.(check int) "one epoch: every set was in place" epoch (E.current_epoch esys);
  if per_set > 8.0 then Alcotest.failf "%.1f promoted words per set (at most 8)" per_set;
  Alcotest.(check (option string)) "the sets landed" (Some (Bytes.to_string data))
    (Kvstore.Store.get store ~tid:0 keys.(17))

(* A typed set of a warm key in its own epoch stores its fill in
   place, and a typed read copies out of the region into a value the
   caller owns: nothing the set or the read allocates stays reachable
   from the handle, so a minor collection after 2,000 [Mskiplist.put]s
   of fresh 1 KiB values (each also decoding the value it replaces)
   promotes next to nothing.  A decoded value kept on the handle would
   promote the whole value, about 130 words, per put. *)
let test_typed_sets_promote_nothing () =
  let n = 2000 in
  let cfg = { on_cfg with Cfg.pcheck = Cfg.Pcheck_off; mirror_max_bytes = 1 lsl 26 } in
  let region = R.create ~latency:Nvm.Latency.zero ~max_threads:8 ~capacity:(1 lsl 24) () in
  let esys = E.create ~config:cfg region in
  let m = Pstructs.Mskiplist.create esys in
  let keys = Array.init n (Printf.sprintf "key-%06d") in
  Array.iter (fun k -> ignore (Pstructs.Mskiplist.put m ~tid:0 k (String.make 1024 'v'))) keys;
  let epoch = E.current_epoch esys in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  Array.iteri
    (fun i k ->
      ignore (Pstructs.Mskiplist.put m ~tid:0 k (String.make 1024 (Char.chr (97 + (i mod 26))))))
    keys;
  Gc.minor ();
  let per_put = ((Gc.quick_stat ()).Gc.promoted_words -. before) /. float_of_int n in
  Alcotest.(check int) "one epoch: every set was in place" epoch (E.current_epoch esys);
  if per_put > 8.0 then Alcotest.failf "%.1f promoted words per put (at most 8)" per_put;
  Alcotest.(check (option string)) "the puts landed" (Some (String.make 1024 'r'))
    (Pstructs.Mskiplist.get m ~tid:0 keys.(17))

(* A warm GET through the wire protocol copies the value once, from
   the region straight into the reply buffer: it allocates fewer minor
   words than the value holds. *)
let test_warm_get_copies_once () =
  let _, store, keys, value = warm_store 16 in
  let conn = Kvstore.Protocol.create store ~tid:0 in
  let req = Bytes.of_string (Printf.sprintf "get %s\r\n" keys.(3)) in
  let out = Buffer.create 2048 in
  let serve sink =
    ignore (Kvstore.Protocol.serve conn req ~pos:0 ~len:(Bytes.length req));
    Kvstore.Protocol.flush_replies conn sink
  in
  ignore (serve (fun b off len -> Buffer.add_subbytes out b off len));
  Alcotest.(check string) "the reply"
    (Printf.sprintf "VALUE %s 0 1024\r\n%s\r\nEND\r\n" keys.(3) value)
    (Buffer.contents out);
  let before = Gc.minor_words () in
  let replies = serve (fun _ _ _ -> ()) in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "one reply" 1 replies;
  if words >= float_of_int (String.length value / 8) then
    Alcotest.failf "a warm get allocated %.0f minor words (value: %d)" words
      (String.length value / 8)

let () =
  Alcotest.run "mirror"
    [
      ( "byte mirror",
        [
          Alcotest.test_case "warm reads charge no media" `Quick test_warm_reads_charge_no_media;
          Alcotest.test_case "cold after recovery" `Quick test_cold_after_recovery;
          Alcotest.test_case "pset in place refreshes" `Quick test_pset_in_place_refreshes;
          Alcotest.test_case "copying pset carries mirror" `Quick test_copying_pset_carries_mirror;
          Alcotest.test_case "pdelete drops mirror" `Quick test_pdelete_drops_mirror;
          Alcotest.test_case "clock eviction respects budget" `Quick
            test_clock_eviction_respects_budget;
          Alcotest.test_case "oversized payload bypasses" `Quick
            test_oversized_payload_bypasses_cache;
          Alcotest.test_case "mirror off is inert" `Quick test_mirror_off_is_inert;
        ] );
      ( "decoded-value memo",
        [
          Alcotest.test_case "invalidated by set" `Quick test_get_after_set;
        ] );
      ( "coherence",
        [
          Alcotest.test_case "concurrent mutators under Enforce" `Quick
            test_concurrent_coherence_under_enforce;
          Alcotest.test_case "lock-free readers see whole versions" `Quick
            test_lock_free_readers_see_whole_versions;
          Alcotest.test_case "a raising fill closes the window" `Quick
            test_raising_fill_closes_window;
          QCheck_alcotest.to_alcotest prop_mirrored_map_matches_model;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "in-place sets promote nothing" `Quick
            test_in_place_sets_promote_nothing;
          Alcotest.test_case "warm get copies once" `Quick test_warm_get_copies_once;
          Alcotest.test_case "typed sets promote nothing" `Quick test_typed_sets_promote_nothing;
        ] );
      ( "crash matrix",
        [ Alcotest.test_case "recovery is cold" `Quick test_crash_matrix_recovery_is_cold ] );
      ( "index rebuild",
        [
          Alcotest.test_case "one line per record, handles stay cold" `Quick
            test_rebuild_reads_one_line_per_record;
          Alcotest.test_case "long keys take a second read" `Quick test_rebuild_long_keys_two_reads;
          Alcotest.test_case "bounded read and corrupt fields" `Quick
            test_pread_bounds_and_corrupt_fields;
        ] );
    ]
