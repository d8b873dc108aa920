// Per-batch pipeline tracing. A record batch is stamped with a trace id when
// a computing job pulls it out of the intake partition holders; spans are
// recorded as it crosses the three-job pipeline:
//
//   intake.pull -> compute.parse -> compute.init -> compute.enrich
//     -> compute.ship -> storage.store -> storage.flush
//
// Frames carry the trace id across the computing-job/storage-job boundary
// (runtime::Frame::trace_id), so the storage job's drain threads append their
// spans to the same timeline. The tracer keeps a bounded ring of recent
// traces; the SnapshotExporter serializes them to JSON-lines.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace idea::obs {

struct Span {
  std::string name;   // "<stage>.<step>", e.g. "intake.pull"
  int node = -1;      // cluster node that executed the step (-1: n/a)
  double start_us = 0;
  double dur_us = 0;
};

struct BatchTrace {
  uint64_t id = 0;
  std::string feed;
  double start_us = 0;
  std::vector<Span> spans;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity = 256) : capacity_(capacity) {}

  /// Begins a trace for one batch of `feed`; returns its id (never 0).
  uint64_t StartTrace(const std::string& feed);

  /// Appends a span to trace `id`. No-op when the trace was dropped or has
  /// already been evicted from the ring.
  void AddSpan(uint64_t id, Span span);

  /// Discards a trace (e.g. an empty pull at feed EOF).
  void Drop(uint64_t id);

  /// Most recent traces, oldest first (`max` = 0: all retained).
  std::vector<BatchTrace> Recent(size_t max = 0) const;

  /// The trace with the given id, if still retained.
  bool Find(uint64_t id, BatchTrace* out) const;

  void Clear();

  static Tracer& Default();

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::deque<BatchTrace> ring_;
  uint64_t next_id_ = 1;
};

}  // namespace idea::obs
