(* Binding over the Linux epoll stubs (epoll_stubs.c) for the
   connection core's readiness loop.  Level-triggered: an fd the caller
   could not fully service stays ready.  The interest set lives in the
   kernel and {!Conn_core} records what it registered per connection,
   so this module keeps no table of its own.

   This module also hosts the event loop's clock ([mono_s], immune to
   wall-clock jumps) and the RLIMIT_NOFILE raiser C10K scenarios use. *)

external create_stub : unit -> int = "montage_epoll_create"
external ctl_stub : int -> int -> int -> int -> unit = "montage_epoll_ctl"
external wait_stub : int -> int -> int array -> int = "montage_epoll_wait"
external mono_s : unit -> float = "montage_mono_s"
external raise_fd_limit : int -> int = "montage_rlimit_nofile"

(* [Unix.file_descr] is an int on every Unix OCaml port; epoll events
   travel through int arrays, so convert at this one seam. *)
let fd_int : Unix.file_descr -> int = Obj.magic
let int_fd : int -> Unix.file_descr = Obj.magic

(* Per-wait event batch: (fd, flags) pairs.  Level-triggered, so a full
   batch just spills into the next wait. *)
let batch = 512

type t = { epfd : int; buf : int array }

let create () = { epfd = create_stub (); buf = Array.make (2 * batch) 0 }
let bits ~read ~write = (if read then 1 else 0) lor if write then 2 else 0
let add t fd ~read ~write = ctl_stub t.epfd 0 (fd_int fd) (bits ~read ~write)
let modify t fd ~read ~write = ctl_stub t.epfd 1 (fd_int fd) (bits ~read ~write)
let delete t fd = ctl_stub t.epfd 2 (fd_int fd) 0

let wait t ~timeout_s cb =
  let timeout_ms = if timeout_s < 0.0 then -1 else int_of_float (Float.ceil (timeout_s *. 1000.0)) in
  let n = wait_stub t.epfd timeout_ms t.buf in
  for i = 0 to n - 1 do
    let ev = t.buf.((2 * i) + 1) in
    cb (int_fd t.buf.(2 * i)) ~readable:(ev land 1 <> 0) ~writable:(ev land 2 <> 0)
  done;
  n

let close t = try Unix.close (int_fd t.epfd) with Unix.Unix_error _ -> ()
