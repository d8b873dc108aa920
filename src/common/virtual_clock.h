// Timers for the cluster simulation and the wall-clock production path.
//
// The paper's evaluation ran on a 24-node cluster; this repo runs on a small
// container. FeedSimulation executes *real* operator work, measures its
// thread CPU time, and spreads it over the simulated nodes through the cost
// model, so node-level parallelism is accounted analytically while all
// computation still actually happens (see DESIGN.md, "Hardware / platform
// substitutions").
#pragma once

#include <cstdint>

namespace idea {

/// Measures CPU time consumed by the *calling thread* between Start() and
/// ElapsedMicros(). Immune to wall-clock contention when simulated nodes are
/// multiplexed onto few physical cores. On kernels that quantize CPU-time
/// clocks to scheduler ticks (some sandboxes), falls back to the monotonic
/// clock (probed once at first use).
class ThreadCpuTimer {
 public:
  void Start();
  /// Microseconds of thread CPU time since Start().
  double ElapsedMicros() const;

 private:
  int64_t start_ns_ = 0;
};

/// Wall-clock stopwatch (steady clock), used by the feed jobs and the
/// micro-benchmarks.
class WallTimer {
 public:
  void Start();
  double ElapsedMicros() const;

 private:
  int64_t start_ns_ = 0;
};

}  // namespace idea
