(** Thin binding over Linux [epoll] (level-triggered, kernel-held
    interest set, O(ready) waits) for the {!Conn_core} readiness loop.
    It keeps no interest table: the caller knows what it registered
    and issues exactly one of {!add}, {!modify} or {!delete} per
    change.  On other platforms the library builds, but {!create}
    fails with "epoll is not available on this platform". *)

type t

(** A fresh epoll instance.
    @raise Failure off Linux. *)
val create : unit -> t

(** [EPOLL_CTL_ADD] with the given interest.
    @raise Unix.Unix_error when the kernel refuses the fd ([EPERM] for
    a regular file, [ENOSPC] past [max_user_watches], [ENOMEM], ...). *)
val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit

(** [EPOLL_CTL_MOD]: replace the interest of a registered fd. *)
val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit

(** [EPOLL_CTL_DEL]: forget a registered fd. *)
val delete : t -> Unix.file_descr -> unit

(** Block up to [timeout_s] (negative = forever) and invoke the
    callback once per ready fd; returns the event count.  Hang-up and
    error surface as both readable and writable.  EINTR returns 0,
    like a timeout. *)
val wait :
  t ->
  timeout_s:float ->
  (Unix.file_descr -> readable:bool -> writable:bool -> unit) ->
  int

(** Close the epoll fd.  The caller owns the registered fds; they are
    not closed. *)
val close : t -> unit

(** Monotonic clock in seconds (CLOCK_MONOTONIC) — the event loop's
    time base for idle timeouts, drain deadlines and load-generator
    latency, immune to wall-clock jumps. *)
val mono_s : unit -> float

(** [raise_fd_limit n] raises the soft RLIMIT_NOFILE toward [n]
    (clamped to the hard limit) and returns the resulting soft limit.
    Never lowers it. *)
val raise_fd_limit : int -> int
