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
// NodeControllers, never added or removed afterwards. A node is alive until
// it is declared dead, by FailNode or by the `node.kill` fault point in
// CheckAlive; dead is terminal, and a dead node keeps its index. Nothing
// else changes a node's liveness: there is no heartbeat, since every node
// lives in this process.
//
// Execution substrate: every NodeController owns a persistent
// runtime::TaskScheduler, and the CC owns one more ("cc") for coordination
// work (each feed's invocation loop). Pools start with the cluster and stop
// — draining — when it is destroyed, so they share the owning Instance's
// lifecycle.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "cluster/node_controller.h"
#include "common/status.h"
#include "runtime/task_scheduler.h"

namespace idea::cluster {

enum class ExecutionMode : uint8_t { kThreads, kVirtualTime };

struct ClusterConfig {
  size_t nodes = 3;
  /// Not read by any code (see the header comment); callers still set it.
  ExecutionMode mode = ExecutionMode::kVirtualTime;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  size_t node_count() const { return nodes_.size(); }
  NodeController& node(size_t i) { return *nodes_[i]; }

  /// Declares a node dead (terminal); feeds on it fail over on their next
  /// liveness check. Idempotent; NotFound for an index past the roster. The
  /// first call records a kNodeDead flight event and updates the
  /// idea.cluster.nodes_{alive,dead} gauges.
  Status FailNode(size_t node);

  /// Liveness probe used by per-partition tasks: returns kUnavailable when
  /// `node` is dead — or when the deterministic `node.kill` chaos point
  /// (keyed by the node id) fires, in which case the node is first marked
  /// dead so every later probe agrees.
  Status CheckAlive(size_t node);

  /// Indices of the nodes not declared dead, ascending.
  std::vector<size_t> LiveNodes() const;

  const ClusterConfig& config() const { return config_; }

  /// The CC's own pool: each feed's invocation loop runs here so control
  /// loops recycle threads like everything else.
  runtime::TaskScheduler& cc_scheduler() { return *cc_scheduler_; }

 private:
  ClusterConfig config_;
  /// Filled by the constructor and never resized, so reads need no lock.
  std::vector<std::unique_ptr<NodeController>> nodes_;
  /// Serializes FailNode's flag flip with its gauge update.
  std::mutex fail_mu_;
  size_t dead_count_ = 0;  ///< Guarded by fail_mu_.
  std::unique_ptr<runtime::TaskScheduler> cc_scheduler_;
};

}  // namespace idea::cluster
