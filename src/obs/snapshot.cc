#include "obs/snapshot.h"

#include <cinttypes>
#include <cstdio>

#include "adm/json.h"

namespace idea::obs {

namespace {

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string FmtU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string FmtI64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

// Prometheus metric names admit [a-zA-Z_:][a-zA-Z0-9_:]*; everything else
// (notably the dots in idea.<subsystem>.<scope>.<name>) maps to '_'.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = (c >= '0' && c <= '9');
    if (alpha || c == '_' || c == ':' || (digit && i > 0)) {
      out += c;
    } else {
      out += '_';
    }
  }
  return out;
}

}  // namespace

std::string SnapshotExporter::RegistryJson() const {
  RegistrySnapshot snap = registry_->Snapshot();
  std::string out = "{\"type\":\"metrics\",\"ts_us\":" + FmtDouble(NowMicros());
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    if (!first) out += ",";
    first = false;
    out += adm::JsonQuote(name) + ":" + FmtU64(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : snap.gauges) {
    if (!first) out += ",";
    first = false;
    out += adm::JsonQuote(name) + ":{\"value\":" + FmtI64(g.value) +
           ",\"high_watermark\":" + FmtI64(g.high_watermark) + "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ",";
    first = false;
    out += adm::JsonQuote(name) + ":{\"count\":" + FmtU64(h.count) +
           ",\"sum_us\":" + FmtDouble(h.sum_us) + ",\"min_us\":" + FmtDouble(h.min_us) +
           ",\"max_us\":" + FmtDouble(h.max_us) + ",\"p50_us\":" + FmtDouble(h.p50_us) +
           ",\"p95_us\":" + FmtDouble(h.p95_us) + ",\"p99_us\":" + FmtDouble(h.p99_us) +
           "}";
  }
  out += "}}";
  return out;
}

std::string SnapshotExporter::TraceJson(const BatchTrace& trace) {
  std::string out = "{\"type\":\"trace\",\"id\":" + FmtU64(trace.id) +
                    ",\"feed\":" + adm::JsonQuote(trace.feed) +
                    ",\"start_us\":" + FmtDouble(trace.start_us) + ",\"spans\":[";
  bool first = true;
  for (const auto& span : trace.spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + adm::JsonQuote(span.name) +
           ",\"node\":" + std::to_string(span.node) +
           ",\"start_us\":" + FmtDouble(span.start_us) +
           ",\"dur_us\":" + FmtDouble(span.dur_us) + "}";
  }
  out += "]}";
  return out;
}

std::string SnapshotExporter::PrometheusText() const {
  RegistrySnapshot snap = registry_->Snapshot();
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + FmtU64(v) + "\n";
  }
  for (const auto& [name, g] : snap.gauges) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + FmtI64(g.value) + "\n";
    out += "# TYPE " + prom + "_high_watermark gauge\n";
    out += prom + "_high_watermark " + FmtI64(g.high_watermark) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " summary\n";
    out += prom + "{quantile=\"0.5\"} " + FmtDouble(h.p50_us) + "\n";
    out += prom + "{quantile=\"0.95\"} " + FmtDouble(h.p95_us) + "\n";
    out += prom + "{quantile=\"0.99\"} " + FmtDouble(h.p99_us) + "\n";
    out += prom + "_sum " + FmtDouble(h.sum_us) + "\n";
    out += prom + "_count " + FmtU64(h.count) + "\n";
  }
  return out;
}

std::string SnapshotExporter::ChromeTraceJson(
    const std::vector<BatchTrace>& traces) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& trace : traces) {
    for (const auto& span : trace.spans) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":" + adm::JsonQuote(span.name) +
             ",\"cat\":\"feed\",\"ph\":\"X\",\"ts\":" + FmtDouble(span.start_us) +
             ",\"dur\":" + FmtDouble(span.dur_us) +
             ",\"pid\":1,\"tid\":" + std::to_string(span.node < 0 ? 0 : span.node) +
             ",\"args\":{\"feed\":" + adm::JsonQuote(trace.feed) +
             ",\"trace_id\":" + FmtU64(trace.id) + "}}";
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string SnapshotExporter::SnapshotJsonLines(size_t max_traces) const {
  std::string out = RegistryJson();
  out += "\n";
  if (tracer_ != nullptr) {
    for (const auto& trace : tracer_->Recent(max_traces)) {
      out += TraceJson(trace);
      out += "\n";
    }
  }
  return out;
}

}  // namespace idea::obs
