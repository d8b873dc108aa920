// The benchmark's own arithmetic, kept free of engine types so it can be
// tested on synthetic series with known answers:
//   * cumulative-flow latency (the n-th record due vs. the n-th record
//     committed),
//   * percentiles with the sample-count rule (a percentile is reported only
//     when at least ten samples lie beyond it),
//   * span self time (duration minus the time its child spans cover).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One poll of a committed-records counter: at time `t_us`, `departed`
/// records had been committed.
struct FlowSample {
  double t_us = 0;
  uint64_t departed = 0;
};

/// Cumulative-flow latency. `due_us[i]` is when the i-th record was due
/// (non-decreasing); `samples` polls the committed count (non-decreasing in
/// both fields). The i-th record is taken to depart at the first sample whose
/// count covers it, so its latency is that sample's time minus its due time.
/// Records the samples never cover get no latency (the result is shorter).
inline std::vector<double> CumulativeFlowLatencies(const std::vector<double>& due_us,
                                                   const std::vector<FlowSample>& samples) {
  std::vector<double> out;
  out.reserve(due_us.size());
  size_t k = 0;
  for (size_t i = 0; i < due_us.size(); ++i) {
    while (k < samples.size() && samples[k].departed < i + 1) ++k;
    if (k == samples.size()) break;
    out.push_back(samples[k].t_us - due_us[i]);
  }
  return out;
}

/// True when at least ten of `n` samples lie above quantile `q`.
inline bool PercentileSupported(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

/// The highest of p50/p90/p95/p99/p99.9 that `n` samples support (0 when
/// even the median is unsupported).
inline double HighestSupportedPercentile(size_t n) {
  double best = 0;
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    if (PercentileSupported(n, q)) best = q;
  }
  return best;
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
inline double SortedPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return SortedPercentile(v, 0.5);
}

/// One timed call. `parent` indexes the enclosing span in the same log
/// (-1 for a root); children are recorded after their parent opens.
struct Span {
  uint32_t name = 0;
  int32_t parent = -1;
  uint32_t batch = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the durations of its direct
/// children (which, in a single-threaded log, never overlap each other).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

}  // namespace perfbench
