#include "cluster/membership.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace idea::cluster {

const char* NodeStateName(NodeState state) {
  switch (state) {
    case NodeState::kAlive:
      return "alive";
    case NodeState::kSuspect:
      return "suspect";
    case NodeState::kDead:
      return "dead";
  }
  return "unknown";
}

namespace {

// Keeps the idea.cluster.nodes_{alive,suspect,dead} level gauges and the
// epoch gauge current. Called with mu_ held (states is a stable snapshot).
void PublishRoster(const std::vector<NodeState>& states, uint64_t epoch) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  int64_t counts[3] = {0, 0, 0};
  for (NodeState s : states) counts[static_cast<size_t>(s)]++;
  reg.GetGauge("idea.cluster.nodes_alive")->Set(counts[0]);
  reg.GetGauge("idea.cluster.nodes_suspect")->Set(counts[1]);
  reg.GetGauge("idea.cluster.nodes_dead")->Set(counts[2]);
  reg.GetGauge("idea.cluster.membership_epoch")->Set(static_cast<int64_t>(epoch));
}

}  // namespace

size_t MembershipTable::AddNode() {
  std::lock_guard<std::mutex> lock(mu_);
  states_.push_back(NodeState::kAlive);
  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  PublishRoster(states_, epoch);
  return states_.size() - 1;
}

size_t MembershipTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_.size();
}

NodeState MembershipTable::state(size_t node) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (node >= states_.size()) return NodeState::kDead;
  return states_[node];
}

Status MembershipTable::SetState(size_t node, NodeState state) {
  std::lock_guard<std::mutex> lock(mu_);
  if (node >= states_.size()) {
    return Status::NotFound("membership: no node " + std::to_string(node));
  }
  NodeState cur = states_[node];
  if (cur == state) return Status::OK();
  if (cur == NodeState::kDead) {
    return Status::InvalidArgument("membership: node " + std::to_string(node) +
                                   " is dead (dead is terminal)");
  }
  states_[node] = state;
  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  PublishRoster(states_, epoch);
  if (state == NodeState::kSuspect) {
    obs::FlightRecorder::Default().Record(obs::FlightEventKind::kNodeSuspect, "cluster",
                                          NodeStateName(cur), static_cast<int>(node));
  } else if (state == NodeState::kDead) {
    obs::FlightRecorder::Default().Record(obs::FlightEventKind::kNodeDead, "cluster",
                                          NodeStateName(cur), static_cast<int>(node));
  }
  return Status::OK();
}

bool MembershipTable::IsAlive(size_t node) const {
  NodeState s = state(node);
  return s == NodeState::kAlive || s == NodeState::kSuspect;
}

bool MembershipTable::IsDead(size_t node) const { return state(node) == NodeState::kDead; }

bool MembershipTable::IsRoutable(size_t node) const {
  return state(node) == NodeState::kAlive;
}

std::vector<size_t> MembershipTable::AliveNodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t> out;
  for (size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == NodeState::kAlive || states_[i] == NodeState::kSuspect) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<size_t> MembershipTable::RoutableNodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t> out;
  for (size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == NodeState::kAlive) out.push_back(i);
  }
  return out;
}

HealthMonitor::HealthMonitor(MembershipTable* table, HealthMonitorOptions options)
    : table_(table), options_(options), last_beat_us_(table->size(), 0) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  beats_ = reg.GetCounter("idea.cluster.health.heartbeats");
  beats_dropped_ = reg.GetCounter("idea.cluster.health.heartbeats_dropped");
  suspects_ = reg.GetCounter("idea.cluster.health.suspect_transitions");
  deaths_ = reg.GetCounter("idea.cluster.health.dead_transitions");
}

bool HealthMonitor::Heartbeat(size_t node, const std::string& node_id) {
  Status dropped = IDEA_FAULT_HIT_KEYED("cluster.heartbeat", node_id);
  std::lock_guard<std::mutex> lock(mu_);
  if (node >= last_beat_us_.size()) return false;
  if (!dropped.ok()) {
    beats_dropped_->Increment();
    return false;
  }
  if (table_->IsDead(node)) return false;
  last_beat_us_[node] = now_us_;
  beats_->Increment();
  if (table_->state(node) == NodeState::kSuspect) {
    (void)table_->SetState(node, NodeState::kAlive);
  }
  return true;
}

std::vector<size_t> HealthMonitor::Tick(uint64_t advance_us) {
  std::lock_guard<std::mutex> lock(mu_);
  now_us_ += advance_us;
  std::vector<size_t> newly_dead;
  const uint64_t suspect_after = options_.suspect_misses * options_.heartbeat_interval_us;
  const uint64_t dead_after = options_.dead_misses * options_.heartbeat_interval_us;
  for (size_t i = 0; i < last_beat_us_.size(); ++i) {
    NodeState s = table_->state(i);
    if (s == NodeState::kDead) continue;
    const uint64_t silent = now_us_ - std::min(now_us_, last_beat_us_[i]);
    if (silent >= dead_after) {
      if (table_->SetState(i, NodeState::kDead).ok()) {
        deaths_->Increment();
        newly_dead.push_back(i);
      }
    } else if (silent >= suspect_after && s == NodeState::kAlive) {
      if (table_->SetState(i, NodeState::kSuspect).ok()) suspects_->Increment();
    }
  }
  return newly_dead;
}

}  // namespace idea::cluster
