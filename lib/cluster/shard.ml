(* Shard process body: region (fresh or from the heap file) → store →
   Netserve; on SIGTERM, drain + sync, then persist the media image.
   See shard.mli for the crash model. *)

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

(* tmp + rename: the heap file is either the old image or the new one,
   never a torn mix — the file-system analog of a failure-atomic
   checkpoint *)
let write_file_atomic path image =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc image);
  Sys.rename tmp path

let run ?(on_ready = fun ~port:_ -> ()) cfg =
  if cfg.workers < 1 then Error "workers must be >= 1"
  else begin
    let image =
      if cfg.heap_file <> "" && Sys.file_exists cfg.heap_file then
        Some (read_file cfg.heap_file)
      else None
    in
    let max_threads = cfg.workers + 4 in
    let ecfg = { Cfg.default with max_threads = cfg.workers + 1 } in
    let build_montage of_struct create recover =
      match image with
      | Some img ->
          let region = Nvm.Region.of_image ~max_threads img in
          let esys, payloads = E.recover ~config:ecfg region in
          (Kvstore.Store.create (of_struct (recover esys payloads)), Some esys, Some region)
      | None ->
          let region =
            Nvm.Region.create ~max_threads ~capacity:(cfg.capacity_mib * mib) ()
          in
          let esys = E.create ~config:ecfg region in
          (Kvstore.Store.create (of_struct (create esys)), Some esys, Some region)
    in
    let store, esys, region =
      match cfg.backend with
      | Bk_montage ->
          build_montage Kvstore.Store.of_mhashmap Pstructs.Mhashmap.create
            (fun esys payloads -> Pstructs.Mhashmap.recover esys payloads)
      | Bk_mhamt ->
          build_montage Kvstore.Store.of_mhamt Pstructs.Mhamt.create (fun esys payloads ->
              Pstructs.Mhamt.recover esys payloads)
      | Bk_transient ->
          let m = Baselines.Transient_map.create Baselines.Transient_map.Dram in
          (Kvstore.Store.create (Kvstore.Store.of_transient_map m), None, None)
    in
    let nconfig =
      {
        Netserve.default_config with
        host = cfg.host;
        port = cfg.port;
        workers = cfg.workers;
        (* the router's persistent upstream never disconnects on its
           own, so the drain always runs to this deadline *)
        drain_timeout_s = cfg.drain_timeout_s;
      }
    in
    let t =
      match esys with
      | Some esys ->
          Netserve.start ~config:nconfig
            ~sync:(fun ~tid -> E.sync esys ~tid)
            ~persisted_epoch:(fun () -> E.persisted_epoch esys)
            store
      | None -> Netserve.start ~config:nconfig store
    in
    on_ready ~port:(Netserve.port t);
    let stop = Atomic.make false in
    let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler;
    let deadline =
      if cfg.seconds <= 0.0 then infinity else Unix.gettimeofday () +. cfg.seconds
    in
    while (not (Atomic.get stop)) && Unix.gettimeofday () < deadline do
      try
        Unix.sleepf 0.05
        [@montage.allow
          "R5: EINTR-tolerant signal wait on the shard process's main \
           thread; the serving event loops run in the netserve worker \
           domains"]
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    (* drain + join + epoch sync: everything acked is now durable *)
    let d = Netserve.shutdown t in
    Option.iter E.stop_background esys;
    (* only then is the media image the full acked state *)
    (match region with
    | Some region when cfg.heap_file <> "" ->
        write_file_atomic cfg.heap_file (Nvm.Region.media_image region)
    | _ -> ());
    ignore d;
    Ok ()
  end
