// Storage job: the long-running tail of the new ingestion framework
// (Figure 23, bottom). Each partition's *active* storage partition holder
// receives enriched frames from the collocated computing task (compute
// partition p ships to storage holder p), and its drain writes them to the
// one shared LSM dataset, one UpsertBatch per frame, group-committing the
// WAL per frame. Drain loops run as long-lived tasks on their node's
// persistent scheduler.
//
// HA additions: when a partition's node dies, its drain restarts on a
// surviving node (RelocatePartition — the old holder is poisoned, a fresh
// holder plus drain task start on the target). Frames carry
// (origin_partition, lease_id); after a frame's WAL group-commit the ack hook
// reports it durable so the intake ledger can retire the lease.
//
// After Start, only the feed's invocation loop calls holder(),
// RelocatePartition(), Close() and Abort(), so the holder table needs no
// lock; each drain task holds its own holder.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster_controller.h"
#include "common/first_error.h"
#include "common/status.h"
#include "feed/dead_letter.h"
#include "feed/feed.h"
#include "runtime/partition_holder.h"
#include "runtime/task_scheduler.h"
#include "storage/lsm_dataset.h"

namespace idea::obs {
class Counter;
class Histogram;
}  // namespace idea::obs

namespace idea::feed {

/// Called once per durably committed frame: (origin intake partition, lease).
using FrameAckFn = std::function<void(size_t, uint64_t)>;

class StorageJob {
 public:
  /// `config` supplies the failure policy (on_error/max_retries/backoff) for
  /// write failures and the holder push deadline; `dlq` receives records that
  /// persistently fail to store under the dead-letter policy.
  StorageJob(std::string feed_name, cluster::Cluster* cluster,
             std::shared_ptr<storage::LsmDataset> dataset,
             FeedConfig config = FeedConfig(), DeadLetterQueue* dlq = nullptr);
  ~StorageJob();

  /// Creates one storage partition holder per partition (partition p on
  /// node placement[p]) and starts the drain tasks on the node schedulers.
  Status Start(const std::vector<size_t>& placement);

  /// Installs the durable-frame hook (must be set before frames flow; the
  /// Active Feed Manager wires it to IntakeJob::AckFrame for HA feeds).
  void set_frame_ack(FrameAckFn fn) { ack_fn_ = std::move(fn); }

  /// Moves partition `p` to `target_node`: the old holder is poisoned with
  /// kUnavailable (its drain loop exits; queued frames there are lost — the
  /// intake lease ledger redelivers their records) and a fresh holder plus
  /// drain task start on the target.
  Status RelocatePartition(size_t p, size_t target_node);

  /// Closes the holders; drain tasks finish after the backlog empties.
  void Close();

  /// Poisons every storage holder with `cause`: queued frames are discarded,
  /// blocked computing-job pushes fail fast with the cause, drain tasks stop.
  void Abort(Status cause);

  void Join();

  /// Records dropped by the `skip` policy after write retries were exhausted.
  uint64_t records_skipped() const { return skipped_.load(std::memory_order_relaxed); }
  /// Records parked in the DLQ after write retries were exhausted.
  uint64_t dead_letters() const { return dead_letters_.load(std::memory_order_relaxed); }
  /// Write retry attempts spent by the drain loops.
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  /// First storage error (storage failures surface at feed completion).
  Status first_error() const { return error_.Get(); }

  std::shared_ptr<runtime::StoragePartitionHolder> holder(size_t partition) const {
    return holders_[partition];
  }

 private:
  /// Starts the drain loop for `holder` (partition `p`) on `node`'s
  /// scheduler. The loop is bound to this holder instance: relocation aborts
  /// the old holder (its loop exits) and launches a new loop here.
  Status LaunchDrain(size_t p, size_t node,
                     std::shared_ptr<runtime::StoragePartitionHolder> holder);

  std::string feed_name_;
  cluster::Cluster* cluster_;
  std::shared_ptr<storage::LsmDataset> dataset_;
  FeedConfig config_;
  DeadLetterQueue* dlq_;
  FrameAckFn ack_fn_;
  std::vector<std::shared_ptr<runtime::StoragePartitionHolder>> holders_;
  runtime::TaskGroup drain_tasks_;
  std::atomic<uint64_t> skipped_{0};
  std::atomic<uint64_t> dead_letters_{0};
  std::atomic<uint64_t> retries_{0};
  common::FirstError error_;
  bool joined_ = false;

  // Shared drain metrics (created in Start, used by every drain loop).
  obs::Histogram* store_us_ = nullptr;
  obs::Histogram* decode_cpu_us_ = nullptr;  // thread CPU per frame, by phase
  obs::Histogram* apply_cpu_us_ = nullptr;
  obs::Histogram* commit_us_ = nullptr;
  obs::Counter* frames_stored_ = nullptr;
  obs::Counter* records_metric_ = nullptr;
};

}  // namespace idea::feed
