#include "obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "adm/json.h"
#include "obs/metrics.h"

namespace idea::obs {

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kFeedStart:
      return "feed_start";
    case FlightEventKind::kFeedStop:
      return "feed_stop";
    case FlightEventKind::kFeedAbort:
      return "feed_abort";
    case FlightEventKind::kRetry:
      return "retry";
    case FlightEventKind::kDeadLetter:
      return "dead_letter";
    case FlightEventKind::kDlqEviction:
      return "dlq_eviction";
    case FlightEventKind::kWalRecovery:
      return "wal_recovery";
    case FlightEventKind::kFaultFire:
      return "fault_fire";
    case FlightEventKind::kHolderAbort:
      return "holder_abort";
    case FlightEventKind::kNodeDead:
      return "node_dead";
    case FlightEventKind::kFailover:
      return "failover";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(new Slot[capacity == 0 ? 1 : capacity]) {}

void FlightRecorder::Record(FlightEventKind kind, std::string scope,
                            std::string detail, int node, uint64_t count) {
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % capacity_];
  FlightEvent event;
  event.ts_us = NowMicros();
  event.kind = kind;
  event.scope = std::move(scope);
  event.detail = std::move(detail);
  event.node = node;
  event.count = count;
  std::lock_guard<std::mutex> lock(slot.mu);
  // A racing writer that wrapped a full ring ahead of us may already hold a
  // newer event in this slot; never roll a slot backwards.
  if (slot.seq <= seq) {
    slot.seq = seq + 1;
    slot.event = std::move(event);
  }
}

std::vector<FlightEvent> FlightRecorder::Recent(size_t max) const {
  std::vector<std::pair<uint64_t, FlightEvent>> kept;
  kept.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.seq != 0) kept.emplace_back(slot.seq, slot.event);
  }
  std::sort(kept.begin(), kept.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (max != 0 && kept.size() > max) kept.erase(kept.begin(), kept.end() - max);
  std::vector<FlightEvent> out;
  out.reserve(kept.size());
  for (auto& [seq, event] : kept) out.push_back(std::move(event));
  return out;
}

std::string FlightRecorder::DumpJson() const {
  const std::vector<FlightEvent> events = Recent();
  char buf[64];
  std::string out = "{\"type\":\"flight_recorder\",\"ts_us\":";
  std::snprintf(buf, sizeof(buf), "%.3f", NowMicros());
  out += buf;
  std::snprintf(buf, sizeof(buf), "%" PRIu64, events_recorded());
  out += ",\"events_recorded\":";
  out += buf;
  std::snprintf(buf, sizeof(buf), "%zu", capacity_);
  out += ",\"capacity\":";
  out += buf;
  out += ",\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (i) out += ',';
    out += "{\"ts_us\":";
    std::snprintf(buf, sizeof(buf), "%.3f", e.ts_us);
    out += buf;
    out += ",\"kind\":";
    out += adm::JsonQuote(FlightEventKindName(e.kind));
    out += ",\"scope\":";
    out += adm::JsonQuote(e.scope);
    out += ",\"detail\":";
    out += adm::JsonQuote(e.detail);
    std::snprintf(buf, sizeof(buf), "%d", e.node);
    out += ",\"node\":";
    out += buf;
    std::snprintf(buf, sizeof(buf), "%" PRIu64, e.count);
    out += ",\"count\":";
    out += buf;
    out += '}';
  }
  out += "]}";
  return out;
}

Status FlightRecorder::DumpToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("flight recorder: cannot open " + path);
  }
  const std::string json = DumpJson() + "\n";
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::Internal("flight recorder: short write to " + path);
  }
  return Status::OK();
}

void FlightRecorder::Clear() {
  for (size_t i = 0; i < capacity_; ++i) {
    Slot& slot = slots_[i];
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.seq = 0;
    slot.event = FlightEvent();
  }
  next_.store(0, std::memory_order_relaxed);
}

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder* recorder = new FlightRecorder(2048);
  return *recorder;
}

}  // namespace idea::obs
