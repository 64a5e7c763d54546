/* Monotonic clock for Prof.now_ns: nanoseconds as an untagged OCaml int,
   no allocation.  The bytecode twin tags the same value. */
#include <time.h>
#include <caml/mlvalues.h>

intnat ssreset_clock_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value ssreset_clock_now_ns_byte(value unit)
{
  return Val_long(ssreset_clock_now_ns(unit));
}
