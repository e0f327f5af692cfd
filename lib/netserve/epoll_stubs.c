/* C stubs for the netserve readiness loop.
 *
 * Three groups:
 *   - Linux epoll (create/ctl/wait), level-triggered, compiled to
 *     stubs that fail loudly on non-Linux hosts so the library still
 *     builds there (serving needs Linux);
 *   - a CLOCK_MONOTONIC reader, so event-loop timers (idle reaping,
 *     drain deadlines, load-generator latency) are immune to
 *     wall-clock jumps;
 *   - an RLIMIT_NOFILE raiser, so C10K scenarios can lift the soft fd
 *     limit up to the hard cap without shelling out to ulimit.
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <string.h>
#include <time.h>
#include <sys/resource.h>
#include <sys/time.h>

CAMLprim value montage_mono_s(value unit)
{
  struct timespec ts;
  (void) unit;
#ifdef CLOCK_MONOTONIC
  if (clock_gettime(CLOCK_MONOTONIC, &ts) == 0)
    return caml_copy_double((double) ts.tv_sec + (double) ts.tv_nsec * 1e-9);
#endif
  {
    /* last-resort fallback for hosts without a monotonic clock */
    struct timeval tv;
    gettimeofday(&tv, NULL);
    return caml_copy_double((double) tv.tv_sec + (double) tv.tv_usec * 1e-6);
  }
}

CAMLprim value montage_rlimit_nofile(value vwant)
{
  struct rlimit rl;
  rlim_t want = (rlim_t) Long_val(vwant);
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) uerror("getrlimit", Nothing);
  if (want > rl.rlim_cur) {
    rlim_t target = want;
    if (rl.rlim_max != RLIM_INFINITY && target > rl.rlim_max) target = rl.rlim_max;
    if (target > rl.rlim_cur) {
      struct rlimit nrl;
      nrl.rlim_cur = target;
      nrl.rlim_max = rl.rlim_max;
      if (setrlimit(RLIMIT_NOFILE, &nrl) == 0) rl.rlim_cur = target;
    }
  }
  if (rl.rlim_cur == RLIM_INFINITY) return Val_long(1 << 30);
  return Val_long((long) rl.rlim_cur);
}

#ifdef __linux__

#include <sys/epoll.h>

CAMLprim value montage_epoll_create(value unit)
{
  int fd;
  (void) unit;
  fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd == -1) uerror("epoll_create1", Nothing);
  return Val_int(fd);
}

/* op: 0 = add, 1 = mod, 2 = del; events: bit 0 = in, bit 1 = out.
 * Level-triggered on purpose: a ready fd the worker could not fully
 * service in one cycle stays ready, and nothing is re-armed per tick. */
CAMLprim value montage_epoll_ctl(value vep, value vop, value vfd, value vevents)
{
  struct epoll_event ev;
  int op, bits;
  memset(&ev, 0, sizeof ev);
  bits = Int_val(vevents);
  ev.events = 0;
  if (bits & 1) ev.events |= EPOLLIN;
  if (bits & 2) ev.events |= EPOLLOUT;
  ev.data.fd = Int_val(vfd);
  switch (Int_val(vop)) {
  case 0: op = EPOLL_CTL_ADD; break;
  case 1: op = EPOLL_CTL_MOD; break;
  default: op = EPOLL_CTL_DEL; break;
  }
  if (epoll_ctl(Int_val(vep), op, Int_val(vfd), &ev) == -1)
    uerror("epoll_ctl", Nothing);
  return Val_unit;
}

#define MONTAGE_EPOLL_BATCH 1024

/* Fills [vout] with (fd, flags) pairs — flags bit 0 = readable, bit 1
 * = writable (HUP/ERR surface as both, so the worker's read/write
 * path observes the failure) — and returns the pair count.  EINTR is
 * reported as zero events, like a timeout. */
CAMLprim value montage_epoll_wait(value vep, value vtimeout_ms, value vout)
{
  CAMLparam3(vep, vtimeout_ms, vout);
  struct epoll_event evs[MONTAGE_EPOLL_BATCH];
  int maxevents, n, i;
  maxevents = (int) (Wosize_val(vout) / 2);
  if (maxevents > MONTAGE_EPOLL_BATCH) maxevents = MONTAGE_EPOLL_BATCH;
  if (maxevents < 1) maxevents = 1;
  caml_enter_blocking_section();
  n = epoll_wait(Int_val(vep), evs, maxevents, Int_val(vtimeout_ms));
  caml_leave_blocking_section();
  if (n == -1) {
    if (errno == EINTR) CAMLreturn(Val_int(0));
    uerror("epoll_wait", Nothing);
  }
  for (i = 0; i < n; i++) {
    int flags = 0;
    if (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP)) flags |= 1;
    if (evs[i].events & (EPOLLOUT | EPOLLHUP | EPOLLERR)) flags |= 2;
    Field(vout, 2 * i) = Val_int(evs[i].data.fd);
    Field(vout, 2 * i + 1) = Val_int(flags);
  }
  CAMLreturn(Val_int(n));
}

#else /* !__linux__ */

CAMLprim value montage_epoll_create(value unit)
{
  (void) unit;
  caml_failwith("epoll is not available on this platform");
}

CAMLprim value montage_epoll_ctl(value vep, value vop, value vfd, value vevents)
{
  (void) vep; (void) vop; (void) vfd; (void) vevents;
  caml_failwith("epoll is not available on this platform");
}

CAMLprim value montage_epoll_wait(value vep, value vtimeout_ms, value vout)
{
  (void) vep; (void) vtimeout_ms; (void) vout;
  caml_failwith("epoll is not available on this platform");
}

#endif
