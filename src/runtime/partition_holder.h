// Partition holders: the new Hyracks operator class introduced by the paper
// (§5.3) to let data cross job boundaries through in-memory queues.
//
//   * A *passive* partition holder (tail of the intake job) buffers incoming
//     records and waits for another job to PULL them — computing jobs
//     collect their input batches here.
//   * An *active* partition holder (head of the storage job) receives frames
//     pushed by computing jobs and actively drives them into its downstream
//     operators.
//
// Each holder has an id (feed, role, partition) that names its metrics. The
// intake and storage jobs own their holders, and the Active Feed Manager
// hands each computing invocation the holders of every partition directly.
//
// HA additions (Grover & Carey at-least-once feeds): the intake holder keeps
// a *lease ledger* of pulled-but-unacked batches. A computing invocation
// pulls under a lease, ships N frames, and closes the lease; the storage job
// acks each frame after its WAL group-commit. If the computing or storage
// node dies in between, RedeliverUnacked() re-queues the leased records at
// the front of the queue — duplicates are harmless because storage upserts
// are PK-idempotent. A holder is process memory, so an intake holder lives
// as long as its feed and never moves: failover re-points where a
// partition's tasks run, not where its records wait.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "runtime/frame.h"

namespace idea::runtime {

struct PartitionHolderId {
  std::string feed;
  std::string role;  // "intake" | "storage"
  size_t partition = 0;

  std::string ToString() const {
    return feed + "/" + role + "/" + std::to_string(partition);
  }
  /// Metric-name scope for this holder: idea.<role>.<feed>.p<partition>.
  std::string MetricPrefix() const {
    return "idea." + role + "." + feed + ".p" + std::to_string(partition);
  }
};

/// Per-holder statistics. This struct is a *view* over the holder's registry
/// metrics (idea.<role>.<feed>.p<n>.*), not parallel bookkeeping: counters
/// are reported relative to a baseline captured at holder construction, so a
/// holder instance sees only its own traffic even though the underlying
/// registry series are cumulative for the process.
struct HolderStats {
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t pulls = 0;
  uint64_t pushes = 0;
  uint64_t queue_depth = 0;  // records (intake) / frames (storage)
};

/// The registry metrics one holder records into, plus the construction-time
/// baseline that makes HolderStats a per-instance view.
///
/// The queue_depth gauge is maintained with exact +/- deltas (never Set), so
/// two live holder instances sharing a metric name — a storage relocation
/// overlap, or an abort/drain race — see the gauge as the *sum* of their depths
/// instead of stomping each other with absolute writes. Holders report their
/// own exact deque size in stats(); the shared gauge feeds dashboards and
/// high-watermark series.
struct HolderMetrics {
  obs::Counter* records_in = nullptr;
  obs::Counter* records_out = nullptr;
  obs::Counter* pushes = nullptr;
  obs::Counter* pulls = nullptr;
  obs::Counter* blocked_pushes = nullptr;
  obs::Counter* blocked_pulls = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Histogram* push_block_us = nullptr;
  obs::Histogram* pull_block_us = nullptr;
  HolderStats base;  // counter values at holder construction

  void Init(const PartitionHolderId& id, obs::MetricsRegistry* registry);
  HolderStats View() const;
};

/// Passive holder: raw (unparsed) records queue up; computing jobs pull
/// batches. The feed's EOF marker makes an in-progress pull return with a
/// partial batch (paper §6.1).
class IntakePartitionHolder {
 public:
  IntakePartitionHolder(PartitionHolderId id, size_t capacity = 1u << 16,
                        obs::MetricsRegistry* registry = nullptr)
      : id_(std::move(id)), capacity_(capacity) {
    metrics_.Init(id_, registry);
  }
  ~IntakePartitionHolder();

  const PartitionHolderId& id() const { return id_; }

  /// Enqueues one raw record; blocks while the holder is full — at most
  /// `push_deadline_us` (TimedOut beyond that; 0 = wait forever). A holder
  /// aborted mid-wait returns the abort status instead of deadlocking the
  /// producer against a dead consumer. On failure `raw_record` is left
  /// intact (not moved-from), so routers can re-push it elsewhere.
  Status Push(std::string&& raw_record);
  /// Marks end-of-feed: pending pulls complete with what they have.
  void PushEof();

  /// Poisons the holder: waiting/future pushes fail with `cause`, waiting
  /// pulls drain what is queued and then stop. First abort wins; idempotent.
  void Abort(Status cause);

  /// Bounds how long Push may block on a full queue (0 = forever).
  void set_push_deadline_us(uint64_t micros) { push_deadline_us_ = micros; }

  /// Pulls up to `max_records`, blocking until the batch fills or EOF.
  /// Returns false when the holder is exhausted (EOF seen and drained) or
  /// aborted and drained.
  ///
  /// When `lease_out` is non-null, the pulled records are additionally
  /// retained in the redelivery ledger under a fresh lease id `*lease_out`
  /// (this holder's own sequence, starting at 1) until the lease is closed
  /// and every shipped frame acked.
  bool PullBatch(size_t max_records, std::vector<std::string>* out,
                 uint64_t* lease_out = nullptr);

  /// Declares how many frames the leased batch produced (0 acks the lease
  /// immediately: nothing shipped means nothing to redeliver).
  void CloseLease(uint64_t lease, size_t frames_shipped);
  /// Acks one durably-stored frame of `lease`; the ledger entry is dropped
  /// once closed and fully acked. Unknown leases are ignored (late acks
  /// after a redelivery round).
  void AckFrame(uint64_t lease);
  /// Re-queues every unacked leased batch at the FRONT of the queue (lease
  /// order, so redelivery preserves original intake order) and clears the
  /// ledger. Returns the number of records re-queued.
  size_t RedeliverUnacked();

  /// Lock-free queue-depth hint for congestion-aware routing.
  size_t approx_depth() const { return approx_depth_.load(std::memory_order_relaxed); }
  /// Records currently retained in the redelivery ledger.
  size_t UnackedForTest() const;

  bool ExhaustedForTest() const;
  HolderStats stats() const;

 private:
  struct LeaseEntry {
    std::vector<std::string> records;
    size_t expected_frames = 0;
    size_t acked_frames = 0;
    bool closed = false;
  };

  void SetDepthLocked(size_t depth);

  PartitionHolderId id_;
  size_t capacity_;
  HolderMetrics metrics_;
  mutable std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pull_;
  std::deque<std::string> records_;
  bool eof_ = false;
  Status abort_cause_;  // OK until Abort()
  std::atomic<uint64_t> push_deadline_us_{0};
  std::atomic<size_t> approx_depth_{0};
  uint64_t last_lease_ = 0;                  // lease ids issued so far
  std::map<uint64_t, LeaseEntry> inflight_;  // lease id -> ledger entry
};

/// Active holder: computing jobs push enriched frames; the storage job's
/// drain loop pops them and pushes on to its partitioner.
class StoragePartitionHolder {
 public:
  StoragePartitionHolder(PartitionHolderId id, size_t capacity = 256,
                         obs::MetricsRegistry* registry = nullptr)
      : id_(std::move(id)), capacity_(capacity) {
    metrics_.Init(id_, registry);
  }
  ~StoragePartitionHolder();

  const PartitionHolderId& id() const { return id_; }

  /// Enqueues one frame; blocks while full — at most `push_deadline_us`
  /// (TimedOut beyond that; 0 = wait forever). Fails with the abort cause if
  /// the holder was aborted.
  Status Push(Frame frame);
  /// Blocks until a frame arrives; false when closed/aborted and drained.
  bool Pop(Frame* out);
  void Close();

  /// Poisons the holder: like Close(), but pushes fail with `cause` and the
  /// queue is discarded (a dead storage job must not wedge producers).
  /// First abort wins; idempotent.
  void Abort(Status cause);

  /// Bounds how long Push may block on a full queue (0 = forever).
  void set_push_deadline_us(uint64_t micros) { push_deadline_us_ = micros; }

  /// Lock-free queue-depth hint for congestion-aware routing.
  size_t approx_depth() const { return approx_depth_.load(std::memory_order_relaxed); }

  HolderStats stats() const;

 private:
  void SetDepthLocked(size_t depth);

  PartitionHolderId id_;
  size_t capacity_;
  HolderMetrics metrics_;
  mutable std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<Frame> frames_;
  bool closed_ = false;
  Status abort_cause_;  // OK until Abort()
  std::atomic<uint64_t> push_deadline_us_{0};
  std::atomic<size_t> approx_depth_{0};
};

}  // namespace idea::runtime
