(* The one store-backed server lifecycle: region (fresh or from the
   heap file) → epoch system → store → Netserve; on stop, drain + sync,
   stop the advancer, then persist the media image.  See shard.mli for
   the crash model. *)

module E = Montage.Epoch_sys
module Cfg = Montage.Config

type backend = Bk_montage | Bk_mhamt | Bk_transient

let backend_of_string = function
  | "montage" -> Some Bk_montage
  | "mhamt" -> Some Bk_mhamt
  | "transient" -> Some Bk_transient
  | _ -> None

let backend_name = function
  | Bk_montage -> "montage"
  | Bk_mhamt -> "mhamt"
  | Bk_transient -> "transient"

type config = {
  backend : backend;
  host : string;
  port : int;
  workers : int;
  capacity_mib : int;
  heap_file : string;
  seconds : float;
  drain_timeout_s : float;
}

let default_config =
  {
    backend = Bk_montage;
    host = "127.0.0.1";
    port = 0;
    workers = 1;
    capacity_mib = 64;
    heap_file = "";
    seconds = 0.0;
    drain_timeout_s = 1.0;
  }

let argv ~exe cfg =
  [|
    exe; "shard"; backend_name cfg.backend;
    "--host"; cfg.host;
    "--port"; string_of_int cfg.port;
    "--workers"; string_of_int cfg.workers;
    "--capacity-mib"; string_of_int cfg.capacity_mib;
    "--heap-file"; cfg.heap_file;
    "--seconds"; string_of_float cfg.seconds;
    "--drain-timeout"; string_of_float cfg.drain_timeout_s;
  |]

let mib = 1024 * 1024

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* tmp + fsync + rename + directory fsync: the heap file is either the
   old image or the new one, never a torn mix — the file-system analog
   of a failure-atomic checkpoint — and the new one is on disk before
   [stop] returns *)
let write_file_atomic path image =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc image;
      Out_channel.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  let dir = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close dir) (fun () -> Unix.fsync dir)

type t = { cfg : config; server : Netserve.t; esys : E.t option }

let port t = Netserve.port t.server
let esys t = t.esys
let totals t = Netserve.totals t.server

let start ?(server = Netserve.default_config) cfg =
  if cfg.workers < 1 then invalid_arg "Shard.start: workers must be >= 1";
  (* worker tids [0, workers) plus the advancer's slot; the region
     keeps spare slots for the advancer's drain domains *)
  let max_threads = cfg.workers + 4 in
  let ecfg = { Cfg.default with max_threads = cfg.workers + 1 } in
  let montage of_struct create recover =
    let esys, structure =
      if cfg.heap_file <> "" && Sys.file_exists cfg.heap_file then
        let region = Nvm.Region.of_image ~max_threads (read_file cfg.heap_file) in
        let esys, payloads = E.recover ~config:ecfg region in
        (esys, recover esys payloads)
      else
        let region = Nvm.Region.create ~max_threads ~capacity:(cfg.capacity_mib * mib) () in
        let esys = E.create ~config:ecfg region in
        (esys, create esys)
    in
    (Kvstore.Store.create (of_struct structure), Some esys)
  in
  let store, esys =
    match cfg.backend with
    | Bk_montage -> montage Kvstore.Store.of_mhashmap Pstructs.Mhashmap.create Pstructs.Mhashmap.recover
    | Bk_mhamt -> montage Kvstore.Store.of_mhamt Pstructs.Mhamt.create Pstructs.Mhamt.recover
    | Bk_transient ->
        let m = Baselines.Transient_map.create Baselines.Transient_map.Dram in
        (Kvstore.Store.create (Kvstore.Store.of_transient_map m), None)
  in
  (* recovery is done before the socket opens, so a router's
     successful probe implies the store is whole *)
  let config =
    {
      server with
      host = cfg.host;
      port = cfg.port;
      workers = cfg.workers;
      drain_timeout_s = cfg.drain_timeout_s;
    }
  in
  let sync = Option.map (fun esys ~tid -> E.sync esys ~tid) esys in
  let persisted_epoch = Option.map (fun esys () -> E.persisted_epoch esys) esys in
  { cfg; server = Netserve.start ~config ?sync ?persisted_epoch store; esys }

let stop t =
  (* drain + join + epoch sync: everything acked is now durable *)
  let d = Netserve.shutdown t.server in
  Option.iter E.stop_background t.esys;
  (* only then is the media image the full acked state *)
  (match t.esys with
  | Some esys when t.cfg.heap_file <> "" ->
      write_file_atomic t.cfg.heap_file (Nvm.Region.media_image (E.region esys))
  | _ -> ());
  d

let run ?(on_ready = ignore) cfg =
  if cfg.workers < 1 then Error "workers must be >= 1"
  else begin
    let t = start cfg in
    on_ready t;
    let stop_requested = Atomic.make false in
    let handler = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler;
    let deadline =
      if cfg.seconds <= 0.0 then infinity else Unix.gettimeofday () +. cfg.seconds
    in
    while (not (Atomic.get stop_requested)) && Unix.gettimeofday () < deadline do
      try
        Unix.sleepf 0.05
        [@montage.allow
          "R5: EINTR-tolerant signal wait on the shard process's main \
           thread; the serving event loops run in the netserve worker \
           domains"]
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Ok (t, stop t)
  end
