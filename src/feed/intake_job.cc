#include "feed/intake_job.h"

#include "common/fault_injection.h"
#include "common/virtual_clock.h"
#include "obs/metrics.h"

namespace idea::feed {

IntakeJob::IntakeJob(std::string feed_name, cluster::Cluster* cluster)
    : feed_name_(std::move(feed_name)), cluster_(cluster) {}

IntakeJob::~IntakeJob() {
  StopAdapters();
  Join();
}

Status IntakeJob::Start(const AdapterFactory& factory, const FeedConfig& config,
                        size_t partitions, DeadLetterQueue* dlq) {
  const size_t nodes = cluster_->node_count();
  routing_slack_ = config.routing_slack;
  for (size_t p = 0; p < partitions; ++p) {
    auto holder = std::make_shared<runtime::IntakePartitionHolder>(
        runtime::PartitionHolderId{feed_name_, "intake", p});
    holder->set_push_deadline_us(config.holder_push_deadline_us);
    holders_.push_back(std::move(holder));
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
          size_t cursor = i;
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
            Status pushed = RouteRecord(std::move(raw), &cursor);
            if (!pushed.ok()) {
              // Aborted = normal teardown (EOF/stop); anything else (e.g. a
              // deadline-expired push against a dead consumer) is a failure.
              if (pushed.code() != StatusCode::kAborted) error_.Set(pushed);
              break;
            }
            raw.clear();
            adapter_records->Increment();
          }
          adapter_cpu_us->Record(cpu_timer.ElapsedMicros());
          // Last adapter out marks EOF on every holder (paper §6.1).
          if (live_adapters_.fetch_sub(1) == 1) {
            for (auto& h : holders_) h->PushEof();
          }
          return Status::OK();
        });
    if (!launched.ok()) {
      // This adapter never ran: take its EOF turn so the holders still close.
      if (live_adapters_.fetch_sub(1) == 1) {
        for (auto& h : holders_) h->PushEof();
      }
      return launched;
    }
  }
  return Status::OK();
}

Status IntakeJob::RouteRecord(std::string&& raw, size_t* cursor) {
  const size_t partitions = holders_.size();
  size_t chosen = (*cursor)++ % partitions;
  // Divert only past the slack: while depths are balanced this keeps the
  // rotation bit-for-bit, under skew it drains to the shallowest partition.
  const size_t chosen_depth = holders_[chosen]->approx_depth();
  if (chosen_depth > routing_slack_) {
    size_t best_depth = chosen_depth;
    for (size_t p = 0; p < partitions; ++p) {
      const size_t d = holders_[p]->approx_depth();
      if (d + routing_slack_ < chosen_depth && d < best_depth) {
        chosen = p;
        best_depth = d;
      }
    }
  }
  return holders_[chosen]->Push(std::move(raw));
}

size_t IntakeJob::RedeliverUnackedAll() {
  size_t total = 0;
  for (auto& h : holders_) total += h->RedeliverUnacked();
  return total;
}

void IntakeJob::AckFrame(size_t partition, uint64_t lease) {
  if (partition >= holders_.size()) return;
  holders_[partition]->AckFrame(lease);
}

void IntakeJob::StopAdapters() {
  for (auto& a : adapters_) a->Stop();
}

void IntakeJob::Abort(Status cause) {
  for (auto& a : adapters_) a->Stop();
  for (auto& h : holders_) h->Abort(cause);
}

void IntakeJob::Join() {
  if (joined_) return;
  (void)adapter_tasks_.Wait();
  joined_ = true;
}

}  // namespace idea::feed
