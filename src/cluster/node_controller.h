// Node Controller (NC): per-node state of the in-process cluster — its
// index, its id and its persistent task scheduler (paper §6.1: every worker
// node runs an NC that takes computing tasks from the CC). All per-node
// work — intake adapter loops, computing invocations, storage drains — runs
// on the node's scheduler so repeated invocations recycle worker threads
// instead of spawning fresh ones per batch.
#pragma once

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

  /// Persistent per-node worker pool; stops (draining) with the node.
  runtime::TaskScheduler& scheduler() { return *scheduler_; }

 private:
  size_t index_;
  std::string id_;
  std::unique_ptr<runtime::TaskScheduler> scheduler_;
};

}  // namespace idea::cluster
