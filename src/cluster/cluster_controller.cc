#include "cluster/cluster_controller.h"

#include "common/fault_injection.h"

namespace idea::cluster {

Cluster::Cluster(ClusterConfig config) : config_(config) {
  for (size_t i = 0; i < config_.nodes; ++i) {
    nodes_.push_back(std::make_unique<NodeController>(i, config_.memgov));
    membership_.AddNode();
  }
  health_ = std::make_unique<HealthMonitor>(&membership_, config_.health);
  cc_scheduler_ = std::make_unique<runtime::TaskScheduler>("cc");
}

Cluster::~Cluster() {
  // Stop order: coordination loops first (they fan work out to the nodes),
  // then the per-node pools (NodeController destructors).
  cc_scheduler_->Stop();
  nodes_.clear();
}

size_t Cluster::AddNode() {
  std::unique_lock<std::shared_mutex> lock(nodes_mu_);
  const size_t index = nodes_.size();
  nodes_.push_back(std::make_unique<NodeController>(index, config_.memgov));
  membership_.AddNode();
  return index;
}

Status Cluster::DrainNode(size_t node) {
  return membership_.SetState(node, NodeState::kDraining);
}

Status Cluster::FailNode(size_t node) {
  return membership_.SetState(node, NodeState::kDead);
}

Status Cluster::CheckAlive(size_t node) {
  {
    std::shared_lock<std::shared_mutex> lock(nodes_mu_);
    if (node >= nodes_.size()) {
      return Status::Unavailable("node " + std::to_string(node) + " does not exist");
    }
  }
  if (membership_.IsDead(node)) {
    return Status::Unavailable("node-" + std::to_string(node) + " is dead");
  }
  Status kill = IDEA_FAULT_HIT_KEYED("node.kill", this->node(node).id());
  if (!kill.ok()) {
    (void)FailNode(node);  // every later probe from any thread agrees
    return Status::Unavailable("node-" + std::to_string(node) + " killed: " +
                               kill.ToString());
  }
  return Status::OK();
}

std::vector<size_t> Cluster::PumpHealth(uint64_t advance_us) {
  const size_t n = node_count();
  for (size_t i = 0; i < n; ++i) {
    if (membership_.IsDead(i)) continue;
    health_->Heartbeat(i, node(i).id());
  }
  return health_->Tick(advance_us);
}

std::string Cluster::MemgovJson() const {
  std::shared_lock<std::shared_mutex> lock(nodes_mu_);
  std::string out = "{\"nodes\":[";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const runtime::MemoryGovernorStats s = nodes_[i]->memgov().Stats();
    if (i > 0) out += ",";
    out += "{\"id\":\"" + nodes_[i]->id() + "\"";
    out += ",\"state\":\"" + std::string(NodeStateName(membership_.state(i))) + "\"";
    out += ",\"budget_bytes\":" + std::to_string(s.budget_bytes);
    out += ",\"used_bytes\":" + std::to_string(s.used_bytes);
    out += ",\"used_high_watermark\":" + std::to_string(s.used_high_watermark);
    out += ",\"admitted\":" + std::to_string(s.admitted);
    out += ",\"delayed\":" + std::to_string(s.delayed);
    out += ",\"spills\":" + std::to_string(s.spills);
    out += "}";
  }
  out += "],\"epoch\":" + std::to_string(membership_.epoch()) + "}";
  return out;
}

}  // namespace idea::cluster
