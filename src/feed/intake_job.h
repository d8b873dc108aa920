// Intake job: the long-running head of the new ingestion framework
// (Figure 23, top). Adapters receive raw records on the intake node(s), the
// partitioner spreads them across the partitions, and each partition's
// passive intake partition holder buffers them for computing jobs to pull.
// Adapter loops run as long-lived tasks on their intake node's persistent
// scheduler.
//
// Routing is round-robin, plus a divert: a record whose rotation target is
// more than `routing_slack` records deeper than the shallowest partition goes
// to that partition instead. The router reads no membership state. Every
// computing invocation waits for every partition's share of its batch, so a
// partition the router stopped feeding would stall the feed; a slow node
// still sheds load, because its queue grows deeper.
//
// The holders live as long as the feed. For HA feeds (FeedConfig::ha_failover)
// pulled batches are leased for at-least-once redelivery; when a node dies,
// the Active Feed Manager re-points the partition's tasks to a survivor and
// re-queues the unacked leases in place (RedeliverUnackedAll).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "cluster/cluster_controller.h"
#include "common/first_error.h"
#include "common/status.h"
#include "feed/dead_letter.h"
#include "feed/feed.h"
#include "runtime/partition_holder.h"
#include "runtime/task_scheduler.h"

namespace idea::feed {

class IntakeJob {
 public:
  IntakeJob(std::string feed_name, cluster::Cluster* cluster);
  ~IntakeJob();

  /// Creates `partitions` intake partition holders, builds the adapters
  /// (one, or one per intake node when balanced), and starts ingesting.
  /// config supplies the intake layout (balanced_intake), the routing slack,
  /// the failure policy for adapter read errors, and the holder push
  /// deadline; `dlq` receives unreadable records under the dead-letter
  /// policy.
  Status Start(const AdapterFactory& factory, const FeedConfig& config, size_t partitions,
               DeadLetterQueue* dlq = nullptr);

  /// Asks adapters to stop (STOP FEED); ingestion drains and EOF follows.
  void StopAdapters();

  /// Poisons every intake holder with `cause`: blocked adapters wake and
  /// stop, computing jobs drain what is queued and see EOF.
  void Abort(Status cause);

  /// Blocks until all adapter tasks finish (EOF has then been pushed to
  /// every partition holder).
  void Join();

  /// First intake-side failure (stalled push, adapter read error under the
  /// abort policy); OK while healthy.
  Status first_error() const { return error_.Get(); }

  /// Re-queues every unacked leased batch on every partition (post-failover
  /// at-least-once redelivery). Returns records re-queued.
  size_t RedeliverUnackedAll();

  /// Acks one durably-stored frame of `lease` against partition `p` (wired
  /// to the storage job's post-group-commit hook).
  void AckFrame(size_t partition, uint64_t lease);

  /// Partition `p`'s holder. The holders are made in Start and never
  /// replaced.
  std::shared_ptr<runtime::IntakePartitionHolder> holder(size_t partition) const {
    return holders_[partition];
  }
  size_t partition_count() const { return holders_.size(); }

 private:
  /// Picks the destination partition for one record (advancing the
  /// adapter's rotation `cursor`) and pushes it there.
  Status RouteRecord(std::string&& raw, size_t* cursor);

  std::string feed_name_;
  cluster::Cluster* cluster_;
  std::vector<std::shared_ptr<runtime::IntakePartitionHolder>> holders_;
  std::vector<std::unique_ptr<FeedAdapter>> adapters_;
  runtime::TaskGroup adapter_tasks_;
  std::atomic<size_t> live_adapters_{0};
  common::FirstError error_;
  size_t routing_slack_ = 64;
  bool joined_ = false;
};

}  // namespace idea::feed
