// Intake job: the long-running head of the new ingestion framework
// (Figure 23, top). Adapters receive raw records on the intake node(s), the
// partitioner spreads them across the cluster, and each node's passive
// intake partition holder buffers them for computing jobs to pull. Adapter
// loops run as long-lived tasks on their intake node's persistent scheduler.
//
// Routing is membership- and congestion-aware (FeedConfig::routing): the
// rotation skips partitions whose node is dead/draining/suspect and, under
// queue-depth skew beyond `routing_slack`, diverts to the shallowest
// routable partition. With a healthy balanced cluster it degrades to the
// pre-HA blind round-robin exactly.
//
// HA feeds (FeedConfig::ha_failover) additionally lease pulled batches for
// at-least-once redelivery and support relocating a partition's holder —
// queue, unacked ledger, EOF flag — onto a surviving node when its node dies
// (RelocatePartition; driven by the Active Feed Manager).
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
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

  /// Creates one intake partition holder per partition (partition p on node
  /// placement[p]), builds the adapters (one, or one per intake node when
  /// balanced), and starts ingesting. config supplies the intake layout
  /// (balanced_intake), the routing policy, the failure policy for adapter
  /// read errors, and the holder push deadline; `dlq` receives unreadable
  /// records under the dead-letter policy.
  Status Start(const AdapterFactory& factory, const FeedConfig& config,
               const std::vector<size_t>& placement, DeadLetterQueue* dlq = nullptr);

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

  /// Moves partition `p`'s holder — queued records, unacked ledger, EOF —
  /// to a fresh holder on `target_node`. The old holder is poisoned with
  /// kUnavailable so stranded producers/pullers re-resolve.
  Status RelocatePartition(size_t p, size_t target_node);

  /// Re-queues every unacked leased batch on every partition (post-failover
  /// at-least-once redelivery). Returns records re-queued.
  size_t RedeliverUnackedAll();

  /// Acks one durably-stored frame of `lease` against partition `p` (wired
  /// to the storage job's post-group-commit hook).
  void AckFrame(size_t partition, uint64_t lease);

  std::shared_ptr<runtime::IntakePartitionHolder> holder(size_t partition) const;
  /// Node currently hosting partition `p`'s holder.
  size_t partition_node(size_t p) const;
  size_t partition_count() const;

  uint64_t records_ingested() const {
    return records_.load(std::memory_order_relaxed);
  }
  uint64_t records_redelivered() const {
    return redelivered_.load(std::memory_order_relaxed);
  }
  size_t intake_node_count() const { return adapters_.size(); }

 private:
  struct Slot {
    std::shared_ptr<runtime::IntakePartitionHolder> holder;
    size_t node = 0;
  };
  /// Per-adapter routing state: the rotation cursor plus a routability
  /// bitmap cached against the membership epoch (recomputed only when the
  /// roster changes, so the per-record path stays lock-free on the table).
  struct RouterState {
    size_t cursor = 0;
    uint64_t epoch = ~0ull;
    std::vector<uint8_t> routable;
  };

  /// Picks the destination partition for one record and pushes it, retrying
  /// through relocations (kUnavailable) against the refreshed roster.
  Status RouteRecord(std::string&& raw, RouterState* rs);
  void RefreshRoutable(const std::vector<Slot>& slots, RouterState* rs) const;

  std::string feed_name_;
  cluster::Cluster* cluster_;
  /// Guards slots_ swaps (relocation); per-record reads take shared locks.
  mutable std::shared_mutex slots_mu_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<FeedAdapter>> adapters_;
  runtime::TaskGroup adapter_tasks_;
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> redelivered_{0};
  std::atomic<size_t> live_adapters_{0};
  std::atomic<uint64_t> lease_counter_{0};
  common::FirstError error_;
  RoutingPolicy routing_ = RoutingPolicy::kCongestion;
  size_t routing_slack_ = 64;
  bool leasing_ = false;
  uint64_t push_deadline_us_ = 0;
  bool joined_ = false;
};

}  // namespace idea::feed
