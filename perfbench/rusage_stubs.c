/* getrusage(2) peak resident set size and the clock-tick rate, which the
   OCaml Unix library does not expose. */

#include <sys/resource.h>
#include <unistd.h>

#include <caml/mlvalues.h>

/* Peak RSS in KiB of this process ([children] false) or of its largest
   waited-for descendant ([children] true). */
value perfbench_maxrss_kb(value children)
{
  struct rusage ru;
  if (getrusage(Bool_val(children) ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru) != 0)
    return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

/* Ticks per second of the utime/stime fields of /proc/<pid>/stat. */
value perfbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}
