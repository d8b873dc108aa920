// Cluster Controller (CC) / in-process cluster. One CC coordinates N Node
// Controllers (paper §6.1): it starts jobs and tracks feeds (via the Active
// Feed Manager in src/feed). Each feed's computing job keeps its own
// per-node compiled artifacts (feed/computing_job.h).
//
// Every partitioned task runs on the persistent worker pool of its node, in
// one process. `ClusterConfig::mode` is not read by any code. The figure
// benches run this cluster at the paper's node counts and turn the tasks'
// measured CPU into N-node time with cluster/cost_model.h.
//
// The roster is fixed when the cluster is built: `ClusterConfig::nodes`
// NodeControllers, never added or removed afterwards. Only their liveness
// changes (alive, suspect, dead; cluster/membership.h), and a dead node
// keeps its index.
//
// Execution substrate: every NodeController owns a persistent
// runtime::TaskScheduler, and the CC owns one more ("cc") for coordination
// work (each feed's invocation loop). Pools start with the cluster and stop
// — draining — when it is destroyed, so they share the owning Instance's
// lifecycle.
#pragma once

#include <memory>
#include <vector>

#include "cluster/membership.h"
#include "cluster/node_controller.h"
#include "runtime/task_scheduler.h"

namespace idea::cluster {

enum class ExecutionMode : uint8_t { kThreads, kVirtualTime };

struct ClusterConfig {
  size_t nodes = 3;
  /// Not read by any code (see the header comment); callers still set it.
  ExecutionMode mode = ExecutionMode::kVirtualTime;
  /// Heartbeat cadence / miss thresholds for the health monitor.
  HealthMonitorOptions health;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  size_t node_count() const { return nodes_.size(); }
  NodeController& node(size_t i) { return *nodes_[i]; }

  /// Epoch-stamped liveness roster consulted by routers / the AFM.
  MembershipTable& membership() { return membership_; }
  /// Heartbeat-driven health monitor (virtual-clock; advanced via PumpHealth).
  HealthMonitor& health() { return *health_; }

  /// Declares a node dead (terminal), triggering feed failover on the next
  /// liveness check.
  Status FailNode(size_t node);

  /// Liveness probe used by per-partition tasks: returns kUnavailable when
  /// `node` is dead — or when the deterministic `node.kill` chaos point
  /// (keyed by the node id) fires, in which case the node is first marked
  /// dead so every later probe agrees.
  Status CheckAlive(size_t node);

  /// One health-plane round: every non-dead node emits a heartbeat (dropped
  /// when `cluster.heartbeat` fires), then the monitor clock advances by
  /// `advance_us` and silence thresholds are re-evaluated. Returns nodes
  /// newly declared dead this round.
  std::vector<size_t> PumpHealth(uint64_t advance_us);

  const ClusterConfig& config() const { return config_; }

  /// The CC's own pool: each feed's invocation loop runs here so control
  /// loops recycle threads like everything else.
  runtime::TaskScheduler& cc_scheduler() { return *cc_scheduler_; }

 private:
  ClusterConfig config_;
  /// Filled by the constructor and never resized, so reads need no lock.
  std::vector<std::unique_ptr<NodeController>> nodes_;
  MembershipTable membership_;
  std::unique_ptr<HealthMonitor> health_;
  std::unique_ptr<runtime::TaskScheduler> cc_scheduler_;
};

}  // namespace idea::cluster
