#include "feed/storage_job.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/fault_injection.h"
#include "common/virtual_clock.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace idea::feed {

StorageJob::StorageJob(std::string feed_name, cluster::Cluster* cluster,
                       std::shared_ptr<storage::LsmDataset> dataset,
                       FailurePolicy* policy, FeedConfig config)
    : feed_name_(std::move(feed_name)),
      cluster_(cluster),
      dataset_(std::move(dataset)),
      policy_(policy),
      config_(std::move(config)) {}

StorageJob::~StorageJob() {
  Close();
  Join();
}

Status StorageJob::Start(const std::vector<size_t>& placement) {
  obs::Scope scope(&obs::MetricsRegistry::Default(), "idea.storage." + feed_name_);
  store_us_ = scope.Histogram("store_us");
  decode_cpu_us_ = scope.Histogram("decode_cpu_us");
  apply_cpu_us_ = scope.Histogram("apply_cpu_us");
  commit_us_ = scope.Histogram("commit_us");
  frames_stored_ = scope.Counter("frames");
  records_metric_ = scope.Counter("records");
  records_ingested_ = obs::MetricsRegistry::Default().GetCounter(
      "idea.feed." + feed_name_ + ".records_ingested");
  for (size_t p = 0; p < placement.size(); ++p) {
    const size_t node = placement[p];
    auto holder = std::make_shared<runtime::StoragePartitionHolder>(
        runtime::PartitionHolderId{feed_name_, "storage", p});
    holder->set_push_deadline_us(config_.holder_push_deadline_us);
    holders_.push_back(holder);
    IDEA_RETURN_NOT_OK(LaunchDrain(p, node, std::move(holder)));
  }
  return Status::OK();
}

Status StorageJob::LaunchDrain(size_t p, size_t node,
                               std::shared_ptr<runtime::StoragePartitionHolder> holder) {
  // The drain loop is a long-lived task collocated with partition p's
  // holder. A write failure goes to the feed's policy: under abort the first
  // one poisons the holder (blocked producers fail fast instead of wedging
  // against a dead consumer); under skip/dead-letter the loop keeps draining
  // and the policy takes the failing record. The loop is bound to this
  // holder *instance*: after a relocation the poisoned holder drains to
  // false and the loop exits, leaving the replacement loop (launched on the
  // target node) as the partition's sole consumer.
  return drain_tasks_.Launch(
      &cluster_->node(node).scheduler(),
      [this, p, node, holder = std::move(holder)]() -> Status {
        obs::Tracer& tracer = obs::Tracer::Default();
        const FailurePolicy::RetrySite site{
            "storage", static_cast<int>(p),
            common::StableHash64(feed_name_) ^ (0x5374ull << 32) ^ p};
        runtime::Frame frame;
        std::vector<adm::Value> records;  // the frame being stored, decoded
        while (holder->Pop(&frame)) {
          // Liveness probe: the node.kill fault site fires here, modeling the
          // drain's node dying between frames. A dead verdict is NOT a feed
          // error — the holder is poisoned so blocked producers fail fast,
          // and the Active Feed Manager restarts the drain on a survivor.
          Status alive = cluster_->CheckAlive(node);
          if (alive.IsUnavailable()) {
            holder->Abort(alive);
            break;
          }
          runtime::FrameView view(frame);
          auto store = [&]() -> Status {
            // Compute partition p ships to storage holder p, and every drain
            // writes the one shared dataset: records are not re-routed by
            // primary key. The frame is decoded once and applied with one
            // UpsertBatch call (one exclusive lock hold) per run of records
            // up to the next failure. storage.apply is hit once per record
            // attempt, first attempts in record order: a run ends at the
            // first failed hit, and records whose hit already passed when an
            // earlier record of the run failed keep it for the next run.
            double t0 = obs::NowMicros();
            ThreadCpuTimer cpu_timer;
            cpu_timer.Start();
            records.clear();
            Status decoded;
            for (size_t i = 0; i < view.size(); ++i) {
              Result<adm::Value> rec = view[i].Decode();
              if (!rec.ok()) {
                decoded = rec.status();
                break;
              }
              records.push_back(std::move(*rec));
            }
            const double decode_cpu = cpu_timer.ElapsedMicros();
            cpu_timer.Start();
            const size_t n = records.size();
            size_t i = 0;        // next record to store
            size_t hit_end = 0;  // records [i, hit_end) passed storage.apply
            Status hit_failed;   // failed hit of record hit_end, if any
            size_t rejected = 0;  // records skipped or dead-lettered
            while (i < n) {
              while (hit_failed.ok() && hit_end < n) {
                hit_failed = IDEA_FAULT_HIT("storage.apply");
                if (hit_failed.ok()) ++hit_end;
              }
              size_t applied = 0;
              Status failed;
              if (hit_end > i) {
                failed = dataset_->UpsertBatch(
                    std::span<adm::Value>(records).subspan(i, hit_end - i), &applied);
              }
              i += applied;
              if (i == n) break;
              if (failed.ok()) {
                // The run ended at record i's failed storage.apply hit.
                failed = std::exchange(hit_failed, Status::OK());
              }
              // Record i's first attempt (its hit, or its write in the run)
              // has failed, so the policy retries from that status without
              // another attempt. A retry hits storage.apply and upserts a
              // fresh decode of the record's frame bytes.
              auto again = [&]() -> Status {
                IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("storage.apply"));
                IDEA_ASSIGN_OR_RETURN(adm::Value rec, view[i].Decode());
                return dataset_->Upsert(std::move(rec));
              };
              uint32_t attempts = 0;
              Status written = policy_->Retry(site, std::move(failed), again, &attempts);
              ++i;
              hit_end = std::max(hit_end, i);
              if (written.ok()) continue;
              IDEA_RETURN_NOT_OK(policy_->Reject("storage", std::move(written), attempts, [&] {
                Result<adm::Value> rec = view[i - 1].Decode();
                return rec.ok() ? rec->ToString() : std::string();
              }));
              ++rejected;
            }
            IDEA_RETURN_NOT_OK(decoded);
            apply_cpu_us_->Record(cpu_timer.ElapsedMicros());
            decode_cpu_us_->Record(decode_cpu);
            double t1 = obs::NowMicros();
            store_us_->Record(t1 - t0);
            tracer.AddSpan(frame.trace_id(), obs::Span{"storage.store",
                                                       static_cast<int>(p), t0, t1 - t0});
            records_metric_->Add(view.size());
            frames_stored_->Increment();
            // Group commit: the batch is durable once the log flush returns
            // (paper §5.2).
            double t2 = obs::NowMicros();
            Status flushed = dataset_->FlushWal();
            commit_us_->Record(obs::NowMicros() - t2);
            tracer.AddSpan(frame.trace_id(),
                           obs::Span{"storage.flush", static_cast<int>(p), t2,
                                     obs::NowMicros() - t2});
            IDEA_RETURN_NOT_OK(flushed);
            // Durable: count the records committed to the dataset. A leased
            // frame is retired against its intake lease first, and the
            // at-least-once ledger says how many records count now.
            uint64_t stored = n - rejected;
            if (ack_fn_ && frame.lease_id() != 0) {
              stored = ack_fn_(frame.origin_partition(), frame.lease_id(), stored);
            }
            stored_.fetch_add(stored, std::memory_order_relaxed);
            records_ingested_->Add(stored);
            return Status::OK();
          };
          Status stored = store();
          if (!stored.ok()) {
            error_.Set(stored);
            if (policy_->aborts()) {
              // Dead-node model: stop consuming and fail producers fast.
              holder->Abort(stored);
              break;
            }
          }
        }
        return Status::OK();
      });
}

Status StorageJob::RelocatePartition(size_t p, size_t target_node) {
  if (p >= holders_.size()) {
    return Status::NotFound("storage: no partition " + std::to_string(p));
  }
  auto fresh = std::make_shared<runtime::StoragePartitionHolder>(
      runtime::PartitionHolderId{feed_name_, "storage", p});
  fresh->set_push_deadline_us(config_.holder_push_deadline_us);
  std::shared_ptr<runtime::StoragePartitionHolder> stranded =
      std::exchange(holders_[p], fresh);
  // Poison the stranded holder: its drain loop (on the dead node) exits, and
  // blocked computing-job pushes fail fast with kUnavailable. Frames queued
  // there are dropped — their leases stay unacked, so redelivery
  // reconstructs the records.
  stranded->Abort(Status::Unavailable("storage partition " + std::to_string(p) +
                                      " relocating to node-" +
                                      std::to_string(target_node)));
  return LaunchDrain(p, target_node, std::move(fresh));
}

void StorageJob::Close() {
  for (auto& h : holders_) h->Close();
}

void StorageJob::Abort(Status cause) {
  for (auto& h : holders_) h->Abort(cause);
}

void StorageJob::Join() {
  if (joined_) return;
  (void)drain_tasks_.Wait();
  joined_ = true;
}

}  // namespace idea::feed
