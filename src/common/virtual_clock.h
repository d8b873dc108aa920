// Timers for the production path.
//
// The paper's evaluation ran on a 24-node cluster; this repo runs on a small
// host. The feed jobs time every task's thread CPU (idea.*.<feed>.*_cpu_us),
// and the figure benches turn those times into N-node time through the cost
// model (cluster/cost_model.h), so node-level parallelism is accounted
// analytically while all computation still actually happens (see DESIGN.md,
// "Hardware / platform substitutions").
#pragma once

#include <cstdint>

namespace idea {

/// Measures CPU time consumed by the *calling thread* between Start() and
/// ElapsedMicros(). Immune to wall-clock contention when many nodes' tasks
/// are multiplexed onto few physical cores. On kernels that quantize CPU-time
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
