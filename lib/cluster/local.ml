type heap = No_heap | Temp_dir | Dir of string

type t = {
  sup : Supervisor.t;
  children : Supervisor.child array;
  router : Router.t;
  ring : Ring.t;
  on_exit : string -> Unix.process_status -> unit;
}

(* Bind port 0 and hand the kernel's choice back.  Racy by nature (the
   port is free again the moment this returns), which is fine for
   ports only this process hands out. *)
let free_port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
  let port = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> -1 in
  Unix.close fd;
  port

let remove_dir dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let with_ ~exe ?port_base ?(heap = No_heap) ~router
    ?(on_exit = fun _ _ -> ()) ~shards (template : Shard.config) f =
  let dir =
    match heap with
    | No_heap -> None
    | Temp_dir -> Some (Filename.temp_dir "montage-cluster-" "")
    | Dir d ->
        (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Some d
  in
  let sup = Supervisor.create () in
  let started = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Router.stop !started;
      Supervisor.shutdown sup;
      match (heap, dir) with Temp_dir, Some d -> remove_dir d | _ -> ())
    (fun () ->
      let ports =
        Array.init shards (fun i ->
            match port_base with Some b -> b + i | None -> free_port ())
      in
      let children =
        Array.mapi
          (fun i port ->
            let heap_file =
              match dir with
              | None -> ""
              | Some d -> Filename.concat d (Printf.sprintf "shard-%d.heap" i)
            in
            Supervisor.add sup
              ~name:(Printf.sprintf "shard-%d" i)
              ~argv:(Shard.argv ~exe { template with port; heap_file }))
          ports
      in
      let r =
        Router.start ~config:router
          (List.init shards (fun sid ->
               { Router.sid; shost = template.host; sport = ports.(sid) }))
      in
      started := Some r;
      let ring = Ring.create ~vnodes:router.vnodes (List.init shards Fun.id) in
      f { sup; children; router = r; ring; on_exit })

let router t = t.router
let tick t = ignore (Supervisor.tick t.sup ~on_exit:t.on_exit)

let wait_up ?(stop = fun () -> false) t =
  let deadline = Netserve.Poller.mono_s () +. 30.0 in
  let rec go () =
    tick t;
    Router.wait_up t.router ~timeout_s:0.25
    || (Netserve.Poller.mono_s () <= deadline && (not (stop ())) && go ())
  in
  go ()

let signal t i = Supervisor.signal t.children.(i)
let restarts t i = Supervisor.restarts t.children.(i)
let ring t = t.ring
