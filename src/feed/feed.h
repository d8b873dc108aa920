// Feed descriptors and shared feed-pipeline types.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "feed/adapter.h"

namespace idea::feed {

/// Per-feed ingestion failure policy (the AsterixDB feed-policy lineage:
/// "Scalable Fault-Tolerant Data Feeds in AsterixDB", Grover & Carey).
/// Applies to record-level failures (parse/validation rejects, persistently
/// failing UDF evaluations, storage rejections) after retries are exhausted.
enum class OnError : uint8_t {
  kAbort,       // first failure kills the feed (default; pre-policy behavior)
  kSkip,        // drop the failing record, count it, keep going
  kDeadLetter,  // park the failing record in the feed's dead-letter queue
};

/// "abort" | "skip" | "dead-letter" (case-insensitive; '_' == '-').
Result<OnError> ParseOnError(const std::string& name);
const char* OnErrorName(OnError policy);

/// Static description of a feed (CREATE FEED ... WITH {...}).
struct FeedConfig {
  std::string name;
  std::string type_name;       // datatype used for parsing/validation
  std::string format = "JSON"; // "JSON" | "delimited-text"
  /// Records per computing-job invocation (1X), split evenly over the
  /// partitions. Below one record per partition, an invocation pulls one
  /// record per partition instead.
  size_t batch_size = 420;
  /// false: one intake node (node 0). true: "balanced" — every node runs an
  /// adapter (paper §7.1's Balanced variants).
  bool balanced_intake = false;
  /// Target frame size for enriched data shipped to the storage job.
  size_t frame_bytes = 32 * 1024;
  /// What to do with a record/batch that still fails after `max_retries`.
  OnError on_error = OnError::kAbort;
  /// Transient-failure retries per computing invocation (plan refresh + UDF
  /// evaluation). 0 = fail straight into `on_error`.
  uint32_t max_retries = 0;
  /// Base retry backoff (µs). Delays grow exponentially per attempt (capped
  /// at 64x) with deterministic jitter in [delay/2, delay].
  uint64_t retry_backoff_us = 1000;
  /// Dead-letter queue capacity (oldest letters are evicted beyond this).
  size_t dlq_capacity = 4096;
  /// Deadline for a blocked partition-holder push (µs); a producer stalled
  /// longer than this (dead consumer) fails with TimedOut instead of
  /// deadlocking. 0 = wait forever.
  uint64_t holder_push_deadline_us = 120 * 1000 * 1000ull;
  /// Records of queue-depth skew tolerated before the intake router diverts
  /// a record off its round-robin partition to the shallowest one. While
  /// depths stay within it, routing is exact round-robin.
  size_t routing_slack = 64;
  /// Survive node death: plan partitions over the live membership roster,
  /// lease pulled batches for at-least-once redelivery, and move the tasks
  /// of a node that dies mid-feed onto survivors (WAL + PK idempotence keep
  /// the stored contents bit-identical). Off by default: non-HA feeds keep
  /// the fail-fast pre-HA behavior and zero ledger cost.
  bool ha_failover = false;
  /// Distinct dead nodes a feed survives before giving up (ha_failover).
  uint32_t max_failovers = 2;
  /// When non-empty, a failed feed writes a post-mortem (final metrics +
  /// flight-recorder dump, one JSON object) to
  /// `<post_mortem_dir>/<feed>.postmortem.json` — no live admin endpoint
  /// required. Set per feed via WITH {"post-mortem-dir": ...} or instance-wide
  /// via InstanceOptions::post_mortem_dir.
  std::string post_mortem_dir;
  /// Adapter config passthrough ("adapter-name", "sockets", ...).
  std::map<std::string, std::string> adapter_config;
};

/// CONNECT FEED f TO DATASET d [APPLY FUNCTION fn].
struct FeedConnection {
  std::string dataset;
  std::string apply_function;  // SQL++ name, native qualified name, or ""
};

/// Builds the adapter for intake node `intake_index` of `intake_count`.
/// Factories for finite replayed sources typically stride-slice the input.
using AdapterFactory = std::function<Result<std::unique_ptr<FeedAdapter>>(
    size_t intake_index, size_t intake_count)>;

/// Cumulative counters for a running/finished feed.
struct FeedRuntimeStats {
  uint64_t records_ingested = 0;   // records that reached storage
  uint64_t parse_errors = 0;       // lexer/shape failures (ParseError)
  uint64_t validation_errors = 0;  // datatype validation/coercion rejects
  uint64_t records_skipped = 0;    // dropped by the `skip` policy
  uint64_t dead_letters = 0;       // parked by the `dead-letter` policy
  uint64_t retries = 0;            // transient-failure retry attempts
  uint64_t computing_jobs = 0;     // invocations (dynamic framework)
  double compute_micros_total = 0; // Σ wall time of computing jobs
  double wall_micros_total = 0;    // feed lifetime

  // HA summary (ha_failover feeds).
  uint64_t failovers = 0;           // partition-map re-plans after node deaths
  uint64_t records_redelivered = 0; // unacked records re-queued (at-least-once)
  double last_recovery_us = 0;      // re-plan duration of the latest failover
  double recovery_to_resume_us = 0; // latest failover -> next successful batch

  double RefreshPeriodMicros() const {
    return computing_jobs == 0 ? 0 : compute_micros_total / static_cast<double>(computing_jobs);
  }
  double ThroughputRecordsPerSec() const {
    return wall_micros_total <= 0
               ? 0
               : static_cast<double>(records_ingested) * 1e6 / wall_micros_total;
  }
};

/// Builds an AdapterFactory from a CREATE FEED config map. Supports
/// "adapter-name": "socket_adapter" (with "sockets": "host:port") and
/// "localfs" (with "path"). The socket adapter always binds on the single
/// intake node.
Result<AdapterFactory> MakeAdapterFactory(const std::map<std::string, std::string>& config);

/// AdapterFactory over a shared pre-generated record vector; each intake
/// node replays a strided slice.
AdapterFactory MakeVectorAdapterFactory(
    std::shared_ptr<const std::vector<std::string>> records);

}  // namespace idea::feed
