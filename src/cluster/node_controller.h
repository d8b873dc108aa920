// Node Controller (NC): per-node state of the in-process cluster — its
// index, its id, its persistent task scheduler and its dead flag (paper
// §6.1: every worker node runs an NC that takes computing tasks from the
// CC). All per-node work — intake adapter loops, computing invocations,
// storage drains — runs on the node's scheduler so repeated invocations
// recycle worker threads instead of spawning fresh ones per batch.
//
// A node is alive until Cluster::FailNode declares it dead; dead is
// terminal. The flag only fences the node off: its scheduler keeps running,
// and failover moves the work of its partitions to live nodes.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "runtime/task_scheduler.h"

namespace idea::cluster {

class NodeController {
 public:
  explicit NodeController(size_t index)
      : index_(index),
        id_("node-" + std::to_string(index)),
        scheduler_(std::make_unique<runtime::TaskScheduler>(id_)) {}

  size_t index() const { return index_; }
  const std::string& id() const { return id_; }

  /// Lock-free; set once by Cluster::FailNode and never cleared.
  bool dead() const { return dead_.load(std::memory_order_acquire); }

  /// Persistent per-node worker pool; stops (draining) with the node.
  runtime::TaskScheduler& scheduler() { return *scheduler_; }

 private:
  friend class Cluster;

  size_t index_;
  std::string id_;
  std::unique_ptr<runtime::TaskScheduler> scheduler_;
  std::atomic<bool> dead_{false};
};

}  // namespace idea::cluster
