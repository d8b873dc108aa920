// Cluster Controller (CC) / in-process cluster. One CC coordinates N Node
// Controllers (paper §6.1): it starts jobs, tracks feeds (via the Active
// Feed Manager in src/feed), and owns the predeployed-job cache.
//
// Every partitioned task runs on the persistent worker pool of its node, in
// one process. `ClusterConfig::mode` is not read by any code. The figure
// benches run this cluster at the paper's node counts and turn the tasks'
// measured CPU into N-node time with cluster/cost_model.h.
//
// Execution substrate: every NodeController owns a persistent
// runtime::TaskScheduler, and the CC owns one more ("cc") for coordination
// work (feed driver loops, pipelined invocation coordinators). Pools start
// with the cluster and stop — draining — when it is destroyed, so they share
// the owning Instance's lifecycle.
#pragma once

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "cluster/node_controller.h"
#include "runtime/memory_governor.h"
#include "runtime/predeployed.h"
#include "runtime/task_scheduler.h"

namespace idea::cluster {

enum class ExecutionMode : uint8_t { kThreads, kVirtualTime };

struct ClusterConfig {
  size_t nodes = 3;
  /// Not read by any code (see the header comment); callers still set it.
  ExecutionMode mode = ExecutionMode::kVirtualTime;
  /// Per-node memory-governor budget/delay (idea.memgov.*).
  runtime::MemoryGovernorOptions memgov;
  /// Heartbeat cadence / miss thresholds for the health monitor.
  HealthMonitorOptions health;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  size_t node_count() const {
    std::shared_lock<std::shared_mutex> lock(nodes_mu_);
    return nodes_.size();
  }
  NodeController& node(size_t i) {
    std::shared_lock<std::shared_mutex> lock(nodes_mu_);
    return *nodes_[i];
  }

  /// Epoch-stamped liveness roster consulted by routers / the AFM.
  MembershipTable& membership() { return membership_; }
  /// Heartbeat-driven health monitor (virtual-clock; advanced via PumpHealth).
  HealthMonitor& health() { return *health_; }

  /// Elastic membership. AddNode appends a new kAlive node (indices are
  /// stable; dead nodes keep their slot) and returns its index. DrainNode
  /// fences a node from new traffic while it finishes in-flight work.
  /// FailNode declares a node dead (terminal), triggering feed failover on
  /// the next liveness check.
  size_t AddNode();
  Status DrainNode(size_t node);
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

  /// {"nodes":[{"id":...,"budget_bytes":...,...}]} for the /memgov endpoint.
  std::string MemgovJson() const;
  runtime::PredeployedJobManager& predeployed() { return predeployed_; }
  const ClusterConfig& config() const { return config_; }

  /// The CC's own pool: feed drivers and invocation coordinators run here so
  /// control loops recycle threads like everything else.
  runtime::TaskScheduler& cc_scheduler() { return *cc_scheduler_; }

 private:
  ClusterConfig config_;
  /// Guards nodes_ growth (AddNode) against concurrent readers; the
  /// NodeController objects themselves are stable behind unique_ptr.
  mutable std::shared_mutex nodes_mu_;
  std::vector<std::unique_ptr<NodeController>> nodes_;
  MembershipTable membership_;
  std::unique_ptr<HealthMonitor> health_;
  runtime::PredeployedJobManager predeployed_;
  std::unique_ptr<runtime::TaskScheduler> cc_scheduler_;
};

}  // namespace idea::cluster
