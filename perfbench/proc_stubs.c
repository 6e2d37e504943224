/* Process measurement primitives the OCaml Unix library lacks: a
   monotonic clock, and reaping one child with its own resource usage
   (wait4), under a wall-clock timeout (pidfd + poll). */

#define _GNU_SOURCE
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

value perfbench_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

/* perfbench_reap(pid, timeout_ms) waits for [pid], killing it once
   [timeout_ms] has passed, and returns
   (exit code or -signal, user s, system s, max RSS in KiB, timed out). */
value perfbench_reap(value vpid, value vtimeout)
{
  CAMLparam2(vpid, vtimeout);
  CAMLlocal1(res);
  pid_t pid = Int_val(vpid);
  int timeout_ms = Int_val(vtimeout);
  int status = 0, timed_out = 0;
  pid_t w;
  struct rusage ru;

  caml_enter_blocking_section();
  int fd = (int)syscall(SYS_pidfd_open, pid, 0);
  if (fd >= 0) {
    struct pollfd p = { fd, POLLIN, 0 };
    int r;
    do {
      r = poll(&p, 1, timeout_ms);
    } while (r < 0 && errno == EINTR);
    if (r == 0) {
      kill(pid, SIGKILL);
      timed_out = 1;
    }
    close(fd);
  }
  do {
    w = wait4(pid, &status, 0, &ru);
  } while (w < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (w < 0) caml_failwith("perfbench_reap: wait4 failed");

  res = caml_alloc_tuple(5);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1,
              caml_copy_double((double)ru.ru_utime.tv_sec
                               + (double)ru.ru_utime.tv_usec * 1e-6));
  Store_field(res, 2,
              caml_copy_double((double)ru.ru_stime.tv_sec
                               + (double)ru.ru_stime.tv_usec * 1e-6));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  Store_field(res, 4, Val_bool(timed_out));
  CAMLreturn(res);
}
