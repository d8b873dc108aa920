#include "common/virtual_clock.h"

#include <ctime>

namespace idea {

namespace {
int64_t NowNanos(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Some sandboxed kernels quantize CPU-time clocks to scheduler ticks (10ms),
// which is useless for measuring sub-millisecond batches. Probe the
// effective granularity once; fall back to CLOCK_MONOTONIC when coarse
// (wall time tracks CPU time closely for a task that runs undisturbed on its
// own core; with more runnable threads than cores it overstates CPU time).
bool ProbeCpuClockUsable() {
  int64_t prev = NowNanos(CLOCK_THREAD_CPUTIME_ID);
  volatile uint64_t sink = 0;
  int64_t min_delta = INT64_MAX;
  int distinct = 0;
  for (int k = 0; k < 200000 && distinct < 3; ++k) {
    for (int i = 0; i < 200; ++i) sink = sink + static_cast<uint64_t>(i);
    int64_t t = NowNanos(CLOCK_THREAD_CPUTIME_ID);
    if (t != prev) {
      int64_t d = t - prev;
      if (d < min_delta) min_delta = d;
      prev = t;
      ++distinct;
    }
  }
  // Usable when ticks are finer than 100us.
  return distinct >= 3 && min_delta < 100000;
}

clockid_t TimerClock() {
  static const clockid_t kClock =
      ProbeCpuClockUsable() ? CLOCK_THREAD_CPUTIME_ID : CLOCK_MONOTONIC;
  return kClock;
}
}  // namespace

void ThreadCpuTimer::Start() { start_ns_ = NowNanos(TimerClock()); }

double ThreadCpuTimer::ElapsedMicros() const {
  return static_cast<double>(NowNanos(TimerClock()) - start_ns_) / 1000.0;
}

void WallTimer::Start() { start_ns_ = NowNanos(CLOCK_MONOTONIC); }

double WallTimer::ElapsedMicros() const {
  return static_cast<double>(NowNanos(CLOCK_MONOTONIC) - start_ns_) / 1000.0;
}

}  // namespace idea
