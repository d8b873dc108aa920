#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace idea::obs {

/// Kinds of lifecycle events the flight recorder keeps. Deliberately coarse:
/// the recorder captures the *story* of a run (feed start/stop, retries, DLQ
/// evictions, WAL recovery, fault-injection hits), not per-record traffic.
enum class FlightEventKind : uint8_t {
  kFeedStart = 0,
  kFeedStop,
  kFeedAbort,
  kRetry,
  kDeadLetter,
  kDlqEviction,
  kWalRecovery,
  kFaultFire,
  kHolderAbort,
  kNodeSuspect,
  kNodeDead,
  kFailover,
};

const char* FlightEventKindName(FlightEventKind kind);

struct FlightEvent {
  double ts_us = 0;  ///< obs::NowMicros() at record time.
  FlightEventKind kind = FlightEventKind::kFeedStart;
  std::string scope;   ///< Feed, dataset, or fault-point name the event is about.
  std::string detail;  ///< Free-form context (status text, stage, ...).
  int node = -1;       ///< Node/partition the event happened on, -1 if global.
  uint64_t count = 0;  ///< Kind-specific magnitude (attempt #, records, fires).
};

/// A bounded ring of structured lifecycle events, cheap enough to leave armed
/// in production paths. Writers claim a slot with a single atomic fetch_add and
/// then lock only that slot, so concurrent recorders contend only when the
/// ring wraps onto a slot a reader is copying. Dumped to JSON on feed abort or
/// crash recovery so a failed run leaves a readable post-mortem.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 1024);

  void Record(FlightEventKind kind, std::string scope, std::string detail = "",
              int node = -1, uint64_t count = 0);

  /// Surviving events, oldest first. `max == 0` means all retained.
  std::vector<FlightEvent> Recent(size_t max = 0) const;

  /// Total events ever recorded (including ones the ring has evicted).
  uint64_t events_recorded() const { return next_.load(std::memory_order_relaxed); }
  size_t capacity() const { return capacity_; }

  /// One JSON object: {"type":"flight_recorder","events":[...],...}.
  std::string DumpJson() const;
  Status DumpToFile(const std::string& path) const;

  void Clear();

  /// Process-wide recorder used by the feed/storage/fault wiring.
  static FlightRecorder& Default();

 private:
  struct Slot {
    mutable std::mutex mu;
    uint64_t seq = 0;  ///< 1-based sequence number; 0 means never written.
    FlightEvent event;
  };

  const size_t capacity_;
  std::atomic<uint64_t> next_{0};
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace idea::obs
