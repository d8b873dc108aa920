#include "runtime/partition_holder.h"

#include <algorithm>
#include <chrono>

#include "common/fault_injection.h"
#include "obs/flight_recorder.h"

namespace idea::runtime {

namespace {

/// Waits on `cv` until `pred` holds, bounding the wait by `deadline_us` when
/// nonzero. Returns false on deadline expiry with `pred` still false.
template <typename Pred>
bool WaitBounded(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                 uint64_t deadline_us, Pred pred) {
  if (deadline_us == 0) {
    cv.wait(lock, pred);
    return true;
  }
  return cv.wait_for(lock, std::chrono::microseconds(deadline_us), pred);
}

}  // namespace

void HolderMetrics::Init(const PartitionHolderId& id, obs::MetricsRegistry* registry) {
  if (registry == nullptr) registry = &obs::MetricsRegistry::Default();
  obs::Scope scope(registry, id.MetricPrefix());
  records_in = scope.Counter("records_in");
  records_out = scope.Counter("records_out");
  pushes = scope.Counter("pushes");
  pulls = scope.Counter("pulls");
  blocked_pushes = scope.Counter("blocked_pushes");
  blocked_pulls = scope.Counter("blocked_pulls");
  queue_depth = scope.Gauge("queue_depth");
  push_block_us = scope.Histogram("push_block_us");
  pull_block_us = scope.Histogram("pull_block_us");
  // The depth gauge is NOT zeroed here: it is delta-maintained, and an
  // absolute write would stomp a live same-named instance (storage
  // relocation overlap, abort/drain race).
}

void IntakePartitionHolder::SetDepthLocked(size_t depth) {
  const int64_t delta =
      static_cast<int64_t>(depth) -
      static_cast<int64_t>(approx_depth_.load(std::memory_order_relaxed));
  if (delta != 0) metrics_.queue_depth->Add(delta);
  approx_depth_.store(depth, std::memory_order_relaxed);
}

IntakePartitionHolder::~IntakePartitionHolder() {
  std::lock_guard<std::mutex> lock(mu_);
  SetDepthLocked(0);  // return this instance's contribution to the shared gauge
}

Status IntakePartitionHolder::Push(std::string&& raw_record) {
  IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("holder.push"));
  std::unique_lock<std::mutex> lock(mu_);
  if (records_.size() >= capacity_ && !eof_) {
    metrics_.blocked_pushes->Increment();
    double start = obs::NowMicros();
    bool ready = WaitBounded(can_push_, lock, push_deadline_us_.load(),
                             [&] { return records_.size() < capacity_ || eof_; });
    metrics_.push_block_us->Record(obs::NowMicros() - start);
    if (!ready) {
      return Status::TimedOut("push into intake partition holder " +
                              id_.ToString() + " stalled past deadline" +
                              " (consumer dead?)");
    }
  }
  if (!abort_cause_.ok()) return abort_cause_;
  if (eof_) return Status::Aborted("push into finished intake partition holder");
  records_.push_back(std::move(raw_record));
  metrics_.records_in->Increment();
  metrics_.pushes->Increment();
  SetDepthLocked(records_.size());
  can_pull_.notify_one();
  return Status::OK();
}

void IntakePartitionHolder::PushEof() {
  std::lock_guard<std::mutex> lock(mu_);
  eof_ = true;
  can_pull_.notify_all();
  can_push_.notify_all();
}

bool IntakePartitionHolder::PullBatch(size_t max_records, std::vector<std::string>* out,
                                      uint64_t* lease_out) {
  // Pulls report via bool; only delay faults apply here (slow consumer).
  (void)IDEA_FAULT_HIT("holder.pop");
  if (lease_out != nullptr) *lease_out = 0;
  std::unique_lock<std::mutex> lock(mu_);
  // Wait for a full batch or EOF (paper §6.1: on EOF the computing job runs
  // with whatever was collected).
  if (records_.size() < max_records && !eof_) {
    metrics_.blocked_pulls->Increment();
    double start = obs::NowMicros();
    can_pull_.wait(lock, [&] { return records_.size() >= max_records || eof_; });
    metrics_.pull_block_us->Record(obs::NowMicros() - start);
  }
  if (records_.empty() && eof_) return false;
  size_t n = std::min(max_records, records_.size());
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(records_.front()));
    records_.pop_front();
  }
  if (lease_out != nullptr && n > 0) {
    // Retain a copy under a fresh lease until storage acks every frame the
    // batch ships.
    *lease_out = ++last_lease_;
    inflight_[last_lease_].records.assign(out->end() - static_cast<ptrdiff_t>(n),
                                          out->end());
  }
  metrics_.records_out->Add(n);
  metrics_.pulls->Increment();
  SetDepthLocked(records_.size());
  can_push_.notify_all();
  return true;
}

void IntakePartitionHolder::CloseLease(uint64_t lease, size_t frames) {
  if (lease == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inflight_.find(lease);
  if (it == inflight_.end()) return;
  if (frames == 0) {
    // Nothing ships (all records rejected/skipped): nothing to redeliver.
    inflight_.erase(it);
    return;
  }
  it->second.expected_frames = frames;
}

uint64_t IntakePartitionHolder::AckFrame(uint64_t lease, uint64_t stored) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inflight_.find(lease);
  if (it == inflight_.end()) return 0;  // late ack after a redelivery round
  LeaseEntry& entry = it->second;
  entry.stored += stored;
  if (++entry.acked_frames < entry.expected_frames) return 0;
  stored = entry.stored;
  inflight_.erase(it);
  return stored;
}

size_t IntakePartitionHolder::RedeliverUnacked() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t redelivered = 0;
  // Walk leases newest-first, prepending each batch (itself reversed), so the
  // queue front ends up oldest-lease-first in original record order.
  for (auto it = inflight_.rbegin(); it != inflight_.rend(); ++it) {
    std::vector<std::string>& batch = it->second.records;
    redelivered += batch.size();
    for (auto r = batch.rbegin(); r != batch.rend(); ++r) {
      records_.push_front(std::move(*r));
    }
  }
  inflight_.clear();
  if (redelivered > 0) {
    SetDepthLocked(records_.size());
    can_pull_.notify_all();
  }
  return redelivered;
}

void IntakePartitionHolder::Abort(Status cause) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!abort_cause_.ok()) return;  // first abort wins
  abort_cause_ = cause.ok() ? Status::Aborted("intake holder aborted") : std::move(cause);
  obs::FlightRecorder::Default().Record(
      obs::FlightEventKind::kHolderAbort, id_.feed,
      id_.ToString() + ": " + abort_cause_.ToString(),
      static_cast<int>(id_.partition));
  eof_ = true;  // pending pulls finish with what is queued, then stop
  can_pull_.notify_all();
  can_push_.notify_all();
}

size_t IntakePartitionHolder::Unacked() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [lease, entry] : inflight_) n += entry.records.size();
  return n;
}

void StoragePartitionHolder::SetDepthLocked(size_t depth) {
  const int64_t delta =
      static_cast<int64_t>(depth) -
      static_cast<int64_t>(approx_depth_.load(std::memory_order_relaxed));
  if (delta != 0) metrics_.queue_depth->Add(delta);
  approx_depth_.store(depth, std::memory_order_relaxed);
}

StoragePartitionHolder::~StoragePartitionHolder() {
  std::lock_guard<std::mutex> lock(mu_);
  SetDepthLocked(0);  // return this instance's contribution to the shared gauge
}

Status StoragePartitionHolder::Push(Frame frame) {
  IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("holder.push"));
  std::unique_lock<std::mutex> lock(mu_);
  if (frames_.size() >= capacity_ && !closed_) {
    metrics_.blocked_pushes->Increment();
    double start = obs::NowMicros();
    bool ready = WaitBounded(can_push_, lock, push_deadline_us_.load(),
                             [&] { return frames_.size() < capacity_ || closed_; });
    metrics_.push_block_us->Record(obs::NowMicros() - start);
    if (!ready) {
      return Status::TimedOut("push into storage partition holder " +
                              id_.ToString() + " stalled past deadline" +
                              " (consumer dead?)");
    }
  }
  if (!abort_cause_.ok()) return abort_cause_;
  if (closed_) return Status::Aborted("push into closed storage partition holder");
  metrics_.records_in->Add(frame.record_count());
  metrics_.pushes->Increment();
  frames_.push_back(std::move(frame));
  SetDepthLocked(frames_.size());
  can_pop_.notify_one();
  return Status::OK();
}

bool StoragePartitionHolder::Pop(Frame* out) {
  // Pops report via bool; only delay faults apply here (slow consumer).
  (void)IDEA_FAULT_HIT("holder.pop");
  std::unique_lock<std::mutex> lock(mu_);
  if (frames_.empty() && !closed_) {
    metrics_.blocked_pulls->Increment();
    double start = obs::NowMicros();
    can_pop_.wait(lock, [&] { return !frames_.empty() || closed_; });
    metrics_.pull_block_us->Record(obs::NowMicros() - start);
  }
  if (frames_.empty()) return false;
  *out = std::move(frames_.front());
  frames_.pop_front();
  metrics_.records_out->Add(out->record_count());
  metrics_.pulls->Increment();
  SetDepthLocked(frames_.size());
  can_push_.notify_one();
  return true;
}

void StoragePartitionHolder::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  can_pop_.notify_all();
  can_push_.notify_all();
}

void StoragePartitionHolder::Abort(Status cause) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!abort_cause_.ok()) return;  // first abort wins
  abort_cause_ = cause.ok() ? Status::Aborted("storage holder aborted") : std::move(cause);
  obs::FlightRecorder::Default().Record(
      obs::FlightEventKind::kHolderAbort, id_.feed,
      id_.ToString() + ": " + abort_cause_.ToString(),
      static_cast<int>(id_.partition));
  closed_ = true;
  // Drop queued frames: nothing will drain them, and a full queue would keep
  // producers blocked even though closed_ wakes them. The depth gauge walks
  // back by exactly what this instance drops — an absolute Set(0) here would
  // erase a live sibling's contribution during an abort/drain race.
  frames_.clear();
  SetDepthLocked(0);
  can_pop_.notify_all();
  can_push_.notify_all();
}

}  // namespace idea::runtime
