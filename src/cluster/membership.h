// Cluster liveness: an epoch-stamped roster of node states plus a
// heartbeat-driven health monitor. The paper's framework assumes a healthy
// node set; this module relaxes that so the Active Feed Manager can move a
// partition's tasks off a node that dies mid-feed (the Grover & Carey
// fault-tolerant-feeds recovery model). The intake router reads none of it:
// every partition keeps getting records whatever its node's state. The set
// of nodes itself is fixed when the cluster is built (cluster_controller.h);
// only their states move.
//
// The MembershipTable is the single source of truth: every state transition
// bumps a monotonically increasing epoch, published with the per-state node
// counts as idea.cluster.* gauges. The HealthMonitor runs on its own virtual
// clock (advanced explicitly by whoever drives the feed) so figure benches
// and chaos soaks stay deterministic — no background threads, no wall-clock
// coupling.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace idea::obs {
class Gauge;
class Counter;
}  // namespace idea::obs

namespace idea::cluster {

/// Liveness of one node in the roster.
///   kAlive   — healthy.
///   kSuspect — missed heartbeats; still executing and keeps its partitions,
///              but HA feeds place no new ones on it (at start or failover)
///              until it beats again.
///   kDead    — declared failed; its partitions' tasks move to survivors.
///              Terminal.
enum class NodeState : uint8_t { kAlive, kSuspect, kDead };

const char* NodeStateName(NodeState state);

/// Epoch-stamped roster. Thread-safe; reads are mutex-guarded.
class MembershipTable {
 public:
  MembershipTable() = default;

  /// Registers one more node (initially kAlive) and returns its index. The
  /// cluster registers its whole roster this way when it is built.
  size_t AddNode();

  /// Number of registered nodes (dead nodes keep their slot).
  size_t size() const;

  /// Roster version: bumped on every state change and on AddNode. Starts at 1
  /// once the first node registers. Lock-free.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  NodeState state(size_t node) const;

  /// Transition `node` to `state`. Dead is terminal: any transition out of
  /// kDead is rejected (kInvalidArgument).
  /// A no-op transition (same state) does not bump the epoch.
  Status SetState(size_t node, NodeState state);

  /// Node executes work: kAlive or kSuspect (suspect nodes still run what
  /// they have — they are avoided, not fenced).
  bool IsAlive(size_t node) const;
  bool IsDead(size_t node) const;
  /// Node may take *new* partitions (HA feed start, failover): kAlive only.
  bool IsRoutable(size_t node) const;

  /// Indices of all kAlive/kSuspect nodes, ascending.
  std::vector<size_t> AliveNodes() const;
  /// Indices of all kAlive nodes (placement targets), ascending.
  std::vector<size_t> RoutableNodes() const;

 private:
  mutable std::mutex mu_;
  std::vector<NodeState> states_;
  std::atomic<uint64_t> epoch_{0};
};

struct HealthMonitorOptions {
  /// Expected beat period. One "miss" is one interval without a beat.
  uint64_t heartbeat_interval_us = 10'000;
  /// Consecutive missed intervals before kAlive -> kSuspect.
  uint64_t suspect_misses = 2;
  /// Consecutive missed intervals before -> kDead.
  uint64_t dead_misses = 5;
};

/// Drives MembershipTable transitions from (virtual-time) heartbeats. All
/// time is the monitor's own virtual clock, advanced by Tick(); nothing here
/// reads the wall clock, so a chaos soak replays bit-identically under a
/// fixed seed. Watches the nodes registered in `table` when it is built.
class HealthMonitor {
 public:
  explicit HealthMonitor(MembershipTable* table, HealthMonitorOptions options = {});

  /// Records a beat from `node` at the monitor's current time. The beat is
  /// dropped — and false returned — when the `cluster.heartbeat` fault point
  /// fires (keyed by `node_id`, so a probability trigger partitions nodes
  /// deterministically) or the node is already dead. A beat from a kSuspect
  /// node recovers it to kAlive.
  bool Heartbeat(size_t node, const std::string& node_id);

  /// Advances the monitor clock by `advance_us` and re-evaluates every node:
  /// nodes past suspect_misses/dead_misses silent intervals transition to
  /// kSuspect/kDead. Returns the indices of nodes *newly* declared dead by
  /// this tick (the caller triggers failover for those).
  std::vector<size_t> Tick(uint64_t advance_us);

  uint64_t now_us() const { return now_us_; }
  const HealthMonitorOptions& options() const { return options_; }

 private:
  MembershipTable* table_;
  HealthMonitorOptions options_;
  mutable std::mutex mu_;
  uint64_t now_us_ = 0;
  std::vector<uint64_t> last_beat_us_;  ///< By node; all start at time 0.

  obs::Counter* beats_;
  obs::Counter* beats_dropped_;
  obs::Counter* suspects_;
  obs::Counter* deaths_;
};

}  // namespace idea::cluster
