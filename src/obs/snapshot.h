// SnapshotExporter: serializes a MetricsRegistry plus recent batch timelines
// to JSON-lines on demand (DumpMetricsJson / stdout, and the admin plane's
// /metrics). Nothing samples in the background: a rate or a windowed
// histogram delta is the difference of two snapshots taken on request.
//
// Line format (one JSON object per line):
//   {"type":"metrics","ts_us":...,"counters":{...},
//    "gauges":{"n":{"value":v,"high_watermark":h}},
//    "histograms":{"n":{"count":c,"sum_us":s,"min_us":m,"max_us":M,
//                       "p50_us":...,"p95_us":...,"p99_us":...}}}
//   {"type":"trace","id":i,"feed":"F","start_us":...,
//    "spans":[{"name":"intake.pull","node":0,"start_us":...,"dur_us":...}]}
#pragma once

#include <string>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace idea::obs {

class SnapshotExporter {
 public:
  explicit SnapshotExporter(const MetricsRegistry* registry,
                            const Tracer* tracer = nullptr)
      : registry_(registry), tracer_(tracer) {}

  /// One "metrics" JSON line for the registry's current state.
  std::string RegistryJson() const;

  /// One "trace" JSON line.
  static std::string TraceJson(const BatchTrace& trace);

  /// Prometheus text exposition (format version 0.0.4) of every metric in the
  /// registry: counters as `counter`, gauges as `gauge` (plus a companion
  /// `<name>_high_watermark` gauge), histograms as `summary` with
  /// quantile 0.5/0.95/0.99 labels and `_sum`/`_count` rows. Metric names are
  /// sanitized (`.` and other non-identifier characters become `_`).
  std::string PrometheusText() const;

  /// Chrome `trace_event` JSON ({"traceEvents":[...]}) for the given batch
  /// timelines, loadable in chrome://tracing or Perfetto. Spans become
  /// complete ("ph":"X") events with the node as the tid.
  static std::string ChromeTraceJson(const std::vector<BatchTrace>& traces);

  /// Registry line followed by the most recent `max_traces` trace lines.
  std::string SnapshotJsonLines(size_t max_traces = 32) const;

 private:
  const MetricsRegistry* registry_;
  const Tracer* tracer_;
};

}  // namespace idea::obs
