// Unified metrics layer for the ingestion stack (the measurement substrate
// behind the paper's Figures 24-31: refresh period, per-batch compute cost,
// intake back-pressure, storage throughput).
//
//   * Counter    — monotonically increasing atomic count.
//   * Gauge      — instantaneous level (queue depth, ...) with a
//                  high-watermark tracked across the gauge's lifetime.
//   * Histogram  — fixed-bucket log-scale (power-of-two) latency histogram
//                  with p50/p95/p99/max extraction; lock-free recording.
//   * MetricsRegistry — name -> metric map. Metrics are created on first use
//                  and live for the registry's lifetime, so call sites cache
//                  the returned pointers and touch only atomics on hot paths.
//
// Naming convention: `idea.<subsystem>.<scope>.<name>`, where <scope> is the
// feed / dataset / UDF the metric belongs to (omitted for process-global
// metrics). Subsystems in use: intake, compute, storage, eval, plan, lsm,
// wal, feed, sched, cluster.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace idea::obs {

/// Microseconds since process start (steady clock). Span timestamps and
/// block-time measurements share this time base.
double NowMicros();

class Counter {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

struct GaugeSnapshot {
  int64_t value = 0;
  int64_t high_watermark = 0;
};

class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    RaiseWatermark(v);
  }
  void Add(int64_t d) {
    int64_t v = value_.fetch_add(d, std::memory_order_relaxed) + d;
    RaiseWatermark(v);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t high_watermark() const { return hwm_.load(std::memory_order_relaxed); }
  GaugeSnapshot Snapshot() const { return {value(), high_watermark()}; }
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    hwm_.store(0, std::memory_order_relaxed);
  }

 private:
  void RaiseWatermark(int64_t v) {
    int64_t cur = hwm_.load(std::memory_order_relaxed);
    while (v > cur && !hwm_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> hwm_{0};
};

struct HistogramSnapshot {
  uint64_t count = 0;
  double sum_us = 0;
  double min_us = 0;
  double max_us = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double mean_us() const { return count == 0 ? 0 : sum_us / static_cast<double>(count); }
};

/// Log-scale latency histogram: bucket i >= 1 covers [2^(i-1), 2^i) µs,
/// bucket 0 covers [0, 1). Recording is a handful of relaxed atomics;
/// percentile extraction interpolates linearly inside the hit bucket and is
/// exact at the recorded max.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  /// Lower bound (µs) of bucket `i`.
  static uint64_t BucketLowerBound(size_t i) {
    return i == 0 ? 0 : (i >= 63 ? (1ull << 62) : (1ull << (i - 1)));
  }
  /// Index of the bucket a value lands in.
  static size_t BucketIndex(double micros);

  void Record(double micros);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const {
    return static_cast<double>(sum_us_.load(std::memory_order_relaxed));
  }
  double max() const {
    return static_cast<double>(max_us_.load(std::memory_order_relaxed));
  }
  double min() const;
  /// Value at quantile q in [0, 1]; 0 when empty.
  double Percentile(double q) const;
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
  std::atomic<uint64_t> max_us_{0};
  std::atomic<uint64_t> min_us_{UINT64_MAX};
};

struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, GaugeSnapshot>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Thread-safe name -> metric registry. Lookup takes a mutex; returned
/// pointers are stable for the registry's lifetime (cache them). Metrics are
/// cumulative for the process: a holder/feed re-created under the same name
/// continues the existing series (callers wanting per-instance deltas
/// snapshot baselines at construction — see HolderStats).
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  RegistrySnapshot Snapshot() const;

  /// Zeroes every metric (pointers stay valid). Test isolation only.
  void ResetForTest();

  /// Process-wide default registry; all subsystems record here unless given
  /// an explicit registry.
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Name-prefix helper for per-feed / per-dataset scoping:
/// Scope(reg, "idea.feed.TweetFeed").Counter("records") ->
/// "idea.feed.TweetFeed.records".
class Scope {
 public:
  Scope(MetricsRegistry* registry, std::string prefix)
      : registry_(registry), prefix_(std::move(prefix)) {}

  obs::Counter* Counter(const std::string& name) const {
    return registry_->GetCounter(prefix_ + "." + name);
  }
  obs::Gauge* Gauge(const std::string& name) const {
    return registry_->GetGauge(prefix_ + "." + name);
  }
  obs::Histogram* Histogram(const std::string& name) const {
    return registry_->GetHistogram(prefix_ + "." + name);
  }
  const std::string& prefix() const { return prefix_; }

 private:
  MetricsRegistry* registry_;
  std::string prefix_;
};

/// RAII span timer: records elapsed wall micros into a histogram (when
/// non-null) at scope exit.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* hist) : hist_(hist), start_us_(NowMicros()) {}
  ~ScopedLatency() {
    if (hist_ != nullptr) hist_->Record(NowMicros() - start_us_);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* hist_;
  double start_us_;
};

}  // namespace idea::obs
