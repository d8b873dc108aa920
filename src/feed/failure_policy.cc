#include "feed/failure_policy.h"

#include <chrono>
#include <thread>

#include "common/fault_injection.h"
#include "obs/flight_recorder.h"

namespace idea::feed {

namespace {

/// Retryable = worth another attempt with the same inputs. Aborts mean the
/// pipeline itself is going down; validation-class codes are deterministic
/// for a given record and will not change on retry.
bool IsRetryable(const Status& st) {
  switch (st.code()) {
    case StatusCode::kAborted:
    case StatusCode::kTypeMismatch:
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    // Unavailable = the hosting node died; retrying on the same node cannot
    // succeed. It must surface to the Active Feed Manager, which re-points
    // the partition's tasks and resumes (feed failover).
    case StatusCode::kUnavailable:
      return false;
    default:
      return true;
  }
}

}  // namespace

DeadLetterQueue::DeadLetterQueue(std::string feed, size_t capacity)
    : feed_(std::move(feed)), capacity_(capacity == 0 ? 1 : capacity) {
  obs::Scope scope(&obs::MetricsRegistry::Default(), "idea.feed." + feed_ + ".dlq");
  enqueued_metric_ = scope.Counter("enqueued");
  dropped_metric_ = scope.Counter("dropped");
  depth_metric_ = scope.Gauge("depth");
  depth_metric_->Set(0);
}

void DeadLetterQueue::Add(DeadLetter letter) {
  std::lock_guard<std::mutex> lock(mu_);
  if (letters_.size() >= capacity_) {
    obs::FlightRecorder::Default().Record(
        obs::FlightEventKind::kDlqEviction, feed_,
        "evicted stage=" + letters_.front().stage, /*node=*/-1,
        dropped_count_ + 1);
    letters_.pop_front();
    ++dropped_count_;
    dropped_metric_->Increment();
  }
  letters_.push_back(std::move(letter));
  ++enqueued_count_;
  enqueued_metric_->Increment();
  depth_metric_->Set(static_cast<int64_t>(letters_.size()));
}

std::vector<DeadLetter> DeadLetterQueue::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DeadLetter> out(std::make_move_iterator(letters_.begin()),
                              std::make_move_iterator(letters_.end()));
  letters_.clear();
  depth_metric_->Set(0);
  return out;
}

size_t DeadLetterQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return letters_.size();
}

uint64_t DeadLetterQueue::enqueued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enqueued_count_;
}

uint64_t DeadLetterQueue::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_count_;
}

FailurePolicy::FailurePolicy(const FeedConfig& config)
    : feed_(config.name),
      on_error_(config.on_error),
      max_retries_(config.max_retries),
      retry_backoff_us_(config.retry_backoff_us) {
  if (on_error_ == OnError::kDeadLetter) {
    dlq_ = std::make_shared<DeadLetterQueue>(feed_, config.dlq_capacity);
  }
  obs::Scope scope(&obs::MetricsRegistry::Default(), "idea.feed." + feed_);
  skipped_metric_ = scope.Counter("records_skipped");
  retries_metric_ = scope.Counter("retries");
}

bool FailurePolicy::WaitToRetry(const RetrySite& site, const Status& failed,
                                uint32_t retry) {
  if (!IsRetryable(failed) || retry >= max_retries_) return false;
  retries_.fetch_add(1, std::memory_order_relaxed);
  retries_metric_->Increment();
  obs::FlightRecorder::Default().Record(obs::FlightEventKind::kRetry, feed_, site.stage,
                                        site.partition, retry + 1);
  const uint64_t us = common::RetryBackoffMicros(retry_backoff_us_, retry, site.salt);
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  return true;
}

}  // namespace idea::feed
