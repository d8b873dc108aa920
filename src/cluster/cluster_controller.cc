#include "cluster/cluster_controller.h"

#include "common/fault_injection.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace idea::cluster {

namespace {

void PublishLiveness(size_t alive, size_t dead) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.GetGauge("idea.cluster.nodes_alive")->Set(static_cast<int64_t>(alive));
  reg.GetGauge("idea.cluster.nodes_dead")->Set(static_cast<int64_t>(dead));
}

}  // namespace

Cluster::Cluster(ClusterConfig config) : config_(config) {
  for (size_t i = 0; i < config_.nodes; ++i) {
    nodes_.push_back(std::make_unique<NodeController>(i));
  }
  PublishLiveness(nodes_.size(), 0);
  cc_scheduler_ = std::make_unique<runtime::TaskScheduler>("cc");
}

Cluster::~Cluster() {
  // Stop order: coordination loops first (they fan work out to the nodes),
  // then the per-node pools (NodeController destructors).
  cc_scheduler_->Stop();
  nodes_.clear();
}

Status Cluster::FailNode(size_t node) {
  if (node >= nodes_.size()) {
    return Status::NotFound("cluster: no node " + std::to_string(node));
  }
  std::lock_guard<std::mutex> lock(fail_mu_);
  if (nodes_[node]->dead_.exchange(true, std::memory_order_acq_rel)) {
    return Status::OK();  // dead is terminal; the first call did the work
  }
  ++dead_count_;
  PublishLiveness(nodes_.size() - dead_count_, dead_count_);
  obs::FlightRecorder::Default().Record(obs::FlightEventKind::kNodeDead, "cluster",
                                        nodes_[node]->id(), static_cast<int>(node));
  return Status::OK();
}

Status Cluster::CheckAlive(size_t node) {
  if (node >= nodes_.size()) {
    return Status::Unavailable("node " + std::to_string(node) + " does not exist");
  }
  if (nodes_[node]->dead()) {
    return Status::Unavailable("node-" + std::to_string(node) + " is dead");
  }
  Status kill = IDEA_FAULT_HIT_KEYED("node.kill", nodes_[node]->id());
  if (!kill.ok()) {
    (void)FailNode(node);  // every later probe from any thread agrees
    return Status::Unavailable("node-" + std::to_string(node) + " killed: " +
                               kill.ToString());
  }
  return Status::OK();
}

std::vector<size_t> Cluster::LiveNodes() const {
  std::vector<size_t> live;
  for (const auto& n : nodes_) {
    if (!n->dead()) live.push_back(n->index());
  }
  return live;
}

}  // namespace idea::cluster
