#include "feed/intake_job.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/virtual_clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace idea::feed {

IntakeJob::IntakeJob(std::string feed_name, cluster::Cluster* cluster)
    : feed_name_(std::move(feed_name)), cluster_(cluster) {}

IntakeJob::~IntakeJob() {
  StopAdapters();
  Join();
}

Status IntakeJob::Start(const AdapterFactory& factory, const FeedConfig& config,
                        const std::vector<size_t>& placement, DeadLetterQueue* dlq) {
  const size_t nodes = cluster_->node_count();
  routing_ = config.routing;
  routing_slack_ = config.routing_slack;
  leasing_ = config.ha_failover;
  push_deadline_us_ = config.holder_push_deadline_us;
  for (size_t p = 0; p < placement.size(); ++p) {
    auto holder = std::make_shared<runtime::IntakePartitionHolder>(
        runtime::PartitionHolderId{feed_name_, "intake", p});
    holder->set_push_deadline_us(push_deadline_us_);
    if (leasing_) holder->EnableLeasing(&lease_counter_);
    slots_.push_back(Slot{std::move(holder), placement[p]});
  }
  const size_t intake_count = config.balanced_intake ? nodes : 1;
  for (size_t i = 0; i < intake_count; ++i) {
    IDEA_ASSIGN_OR_RETURN(std::unique_ptr<FeedAdapter> adapter, factory(i, intake_count));
    adapters_.push_back(std::move(adapter));
  }
  live_adapters_.store(adapters_.size());
  obs::Scope scope(&obs::MetricsRegistry::Default(), "idea.intake." + feed_name_);
  obs::Counter* adapter_records = scope.Counter("adapter_records");
  obs::Counter* read_errors = scope.Counter("read_errors");
  obs::Histogram* adapter_cpu_us = scope.Histogram("adapter_cpu_us");
  const OnError on_error = config.on_error;
  for (size_t i = 0; i < adapters_.size(); ++i) {
    // Adapter i lives on its intake node's pool: one intake node for the
    // default single-adapter feed, every node when balanced.
    runtime::TaskScheduler* pool = &cluster_->node(i % nodes).scheduler();
    Status launched = adapter_tasks_.Launch(
        pool, [this, i, adapter_records, read_errors, adapter_cpu_us, on_error,
               dlq]() -> Status {
          ThreadCpuTimer cpu_timer;
          cpu_timer.Start();
          FeedAdapter* adapter = adapters_[i].get();
          // Partitioner (Figure 23): spread records evenly so the (possibly
          // expensive) attached UDF parallelizes well; offset the rotation
          // per intake node to avoid skew.
          RouterState rs;
          rs.cursor = i;
          std::string raw;
          while (adapter->Next(&raw)) {
            // Injected adapter read failure (a source hiccup): the record is
            // in hand but unusable. Keyed by content so the affected set is
            // seed-deterministic.
            Status read = IDEA_FAULT_HIT_KEYED("intake.read", raw);
            if (!read.ok()) {
              read_errors->Increment();
              if (on_error == OnError::kDeadLetter && dlq != nullptr) {
                dlq->Add(DeadLetter{std::move(raw), "intake", read, 0});
              } else if (on_error == OnError::kAbort) {
                error_.Set(read);
                break;
              }
              raw.clear();
              continue;
            }
            Status pushed = RouteRecord(std::move(raw), &rs);
            if (!pushed.ok()) {
              // Aborted = normal teardown (EOF/stop); anything else (e.g. a
              // deadline-expired push against a dead consumer) is a failure.
              if (pushed.code() != StatusCode::kAborted) error_.Set(pushed);
              break;
            }
            raw.clear();
            records_.fetch_add(1, std::memory_order_relaxed);
            adapter_records->Increment();
          }
          adapter_cpu_us->Record(cpu_timer.ElapsedMicros());
          // Last adapter out marks EOF on every holder (paper §6.1).
          if (live_adapters_.fetch_sub(1) == 1) {
            std::shared_lock<std::shared_mutex> lock(slots_mu_);
            for (auto& s : slots_) s.holder->PushEof();
          }
          return Status::OK();
        });
    if (!launched.ok()) {
      // This adapter never ran: take its EOF turn so the holders still close.
      if (live_adapters_.fetch_sub(1) == 1) {
        std::shared_lock<std::shared_mutex> lock(slots_mu_);
        for (auto& s : slots_) s.holder->PushEof();
      }
      return launched;
    }
  }
  return Status::OK();
}

void IntakeJob::RefreshRoutable(const std::vector<Slot>& slots, RouterState* rs) const {
  rs->routable.assign(slots.size(), 1);
  cluster::MembershipTable& membership = cluster_->membership();
  bool any = false;
  for (size_t p = 0; p < slots.size(); ++p) {
    const cluster::NodeState s = membership.state(slots[p].node);
    // Dead and draining nodes never take new records; suspect nodes are
    // avoided too (they recover to routable on their next heartbeat).
    rs->routable[p] = (s == cluster::NodeState::kAlive) ? 1 : 0;
    any |= rs->routable[p] != 0;
  }
  if (!any) {
    // Whole roster suspect/draining: prefer any still-executing node over
    // stalling the adapter.
    for (size_t p = 0; p < slots.size(); ++p) {
      if (membership.IsAlive(slots[p].node)) rs->routable[p] = 1;
    }
  }
}

Status IntakeJob::RouteRecord(std::string&& raw, RouterState* rs) {
  // A push can fail with kUnavailable when its holder was relocated under us;
  // the roster re-read then finds the replacement. Bounded so a fully dead
  // cluster surfaces the error instead of spinning.
  Status last = Status::Unavailable("no routable intake partition");
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::shared_ptr<runtime::IntakePartitionHolder> holder;
    {
      std::shared_lock<std::shared_mutex> lock(slots_mu_);
      const size_t partitions = slots_.size();
      const uint64_t epoch = cluster_->membership().epoch();
      if (epoch != rs->epoch || rs->routable.size() != partitions) {
        RefreshRoutable(slots_, rs);
        rs->epoch = epoch;
      }
      // Next routable partition in rotation order.
      const size_t start = rs->cursor % partitions;
      rs->cursor++;
      size_t chosen = partitions;  // sentinel: none routable
      for (size_t k = 0; k < partitions; ++k) {
        const size_t p = (start + k) % partitions;
        if (rs->routable[p] != 0) {
          chosen = p;
          break;
        }
      }
      if (chosen == partitions) {
        return Status::Unavailable("intake: no live node to route to for feed " +
                                   feed_name_);
      }
      if (routing_ == RoutingPolicy::kCongestion) {
        // Divert only past the slack: while depths are balanced this keeps
        // the rotation bit-for-bit, under skew it drains to the shallowest
        // routable partition.
        const size_t chosen_depth = slots_[chosen].holder->approx_depth();
        if (chosen_depth > routing_slack_) {
          size_t best = chosen;
          size_t best_depth = chosen_depth;
          for (size_t p = 0; p < partitions; ++p) {
            if (rs->routable[p] == 0) continue;
            const size_t d = slots_[p].holder->approx_depth();
            if (d + routing_slack_ < chosen_depth && d < best_depth) {
              best = p;
              best_depth = d;
            }
          }
          chosen = best;
        }
      }
      holder = slots_[chosen].holder;
    }
    // Push OUTSIDE slots_mu_: a full-queue push can block until its consumer
    // drains — or until a relocation (which needs the exclusive lock) aborts
    // the holder. On failure the record is left intact for the retry.
    Status pushed = holder->Push(std::move(raw));
    if (pushed.ok()) return Status::OK();
    if (pushed.code() != StatusCode::kUnavailable) return pushed;
    last = std::move(pushed);
    // Relocation in flight: force a roster/routability re-read next loop.
    rs->epoch = ~0ull;
  }
  return last;
}

Status IntakeJob::RelocatePartition(size_t p, size_t target_node) {
  std::unique_lock<std::shared_mutex> lock(slots_mu_);
  if (p >= slots_.size()) {
    return Status::NotFound("intake: no partition " + std::to_string(p));
  }
  Slot& slot = slots_[p];
  if (slot.node == target_node) return Status::OK();
  runtime::IntakePartitionHolder::ExtractedState state = slot.holder->ExtractForRelocation(
      Status::Unavailable("node-" + std::to_string(slot.node) + " died; partition " +
                          std::to_string(p) + " relocating"));
  auto fresh = std::make_shared<runtime::IntakePartitionHolder>(
      runtime::PartitionHolderId{feed_name_, "intake", p});
  fresh->set_push_deadline_us(push_deadline_us_);
  if (leasing_) fresh->EnableLeasing(&lease_counter_);
  fresh->PreloadForRelocation(std::move(state));
  obs::FlightRecorder::Default().Record(
      obs::FlightEventKind::kFailover, feed_name_,
      "intake partition " + std::to_string(p) + ": node-" + std::to_string(slot.node) +
          " -> node-" + std::to_string(target_node),
      static_cast<int>(p));
  slot.holder = std::move(fresh);
  slot.node = target_node;
  return Status::OK();
}

size_t IntakeJob::RedeliverUnackedAll() {
  std::shared_lock<std::shared_mutex> lock(slots_mu_);
  size_t total = 0;
  for (auto& s : slots_) total += s.holder->RedeliverUnacked();
  redelivered_.fetch_add(total, std::memory_order_relaxed);
  return total;
}

void IntakeJob::AckFrame(size_t partition, uint64_t lease) {
  std::shared_lock<std::shared_mutex> lock(slots_mu_);
  if (partition >= slots_.size()) return;
  slots_[partition].holder->AckFrame(lease);
}

std::shared_ptr<runtime::IntakePartitionHolder> IntakeJob::holder(size_t partition) const {
  std::shared_lock<std::shared_mutex> lock(slots_mu_);
  return slots_[partition].holder;
}

size_t IntakeJob::partition_node(size_t p) const {
  std::shared_lock<std::shared_mutex> lock(slots_mu_);
  return slots_[p].node;
}

size_t IntakeJob::partition_count() const {
  std::shared_lock<std::shared_mutex> lock(slots_mu_);
  return slots_.size();
}

void IntakeJob::StopAdapters() {
  for (auto& a : adapters_) a->Stop();
}

void IntakeJob::Abort(Status cause) {
  for (auto& a : adapters_) a->Stop();
  std::shared_lock<std::shared_mutex> lock(slots_mu_);
  for (auto& s : slots_) s.holder->Abort(cause);
}

void IntakeJob::Join() {
  if (joined_) return;
  (void)adapter_tasks_.Wait();
  joined_ = true;
}

}  // namespace idea::feed
