// A feed run's failure policy: the one AsterixDB ingestion policy ("Scalable
// Fault-Tolerant Data Feeds in AsterixDB", Grover & Carey) that the intake,
// computing and storage jobs all apply. The jobs hand it their failures; it
// retries what may be transient, and answers a record that failed for good
// by failing the feed (abort), dropping it (skip) or parking it in the
// dead-letter queue (dead-letter). It owns the run's skip and retry counts
// (FeedRuntimeStats and the idea.feed.<f>.{records_skipped,retries} series)
// and its dead-letter queue. A record that does not fail never reaches it.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "feed/feed.h"
#include "obs/metrics.h"

namespace idea::feed {

/// One record the pipeline gave up on.
struct DeadLetter {
  std::string raw;    // original raw record (serialized record for storage stage)
  std::string stage;  // "intake" | "parse" | "udf" | "storage"
  Status reason;      // final error after retries
  uint32_t attempts = 0;  // evaluation attempts spent (0 for intake/parse drops)
};

/// Bounded MPMC dead-letter buffer with idea.feed.<feed>.dlq.* metrics
/// (enqueued / dropped counters, depth gauge). When full, the oldest letter
/// is evicted and counted. The Active Feed Manager keeps a feed's queue until
/// the feed restarts, so operators can drain it after the run.
class DeadLetterQueue {
 public:
  explicit DeadLetterQueue(std::string feed, size_t capacity);

  /// Parks one letter; evicts the oldest when the queue is at capacity.
  void Add(DeadLetter letter);

  /// Removes and returns every parked letter (oldest first).
  std::vector<DeadLetter> Drain();

  size_t depth() const;
  /// Letters added over this queue's lifetime (drained ones included).
  uint64_t enqueued() const;
  /// Letters evicted because the queue was full.
  uint64_t dropped() const;

 private:
  std::string feed_;
  size_t capacity_;
  mutable std::mutex mu_;
  std::deque<DeadLetter> letters_;
  uint64_t enqueued_count_ = 0;
  uint64_t dropped_count_ = 0;
  obs::Counter* enqueued_metric_ = nullptr;
  obs::Counter* dropped_metric_ = nullptr;
  obs::Gauge* depth_metric_ = nullptr;
};

class FailurePolicy {
 public:
  /// Where a retry happens: the stage its flight event names, the partition,
  /// and the salt of the backoff's jitter (each job keeps its own).
  struct RetrySite {
    const char* stage;  // "compute" | "storage"
    int partition;
    uint64_t salt;
  };

  /// Takes on_error, max_retries, retry_backoff_us and dlq_capacity from
  /// `config`. The dead-letter policy gets a fresh queue.
  explicit FailurePolicy(const FeedConfig& config);

  /// True under abort: the first record that fails for good fails the feed,
  /// so a failing batch is not salvaged record by record.
  bool aborts() const { return on_error_ == OnError::kAbort; }

  /// Retries a failed attempt: `failed` is the outcome of the attempt the
  /// caller already made, and `again` makes each retry WaitToRetry grants.
  /// Returns the last outcome; `*attempts` (when non-null) gets the attempts
  /// made, the first included.
  template <typename Fn>
  Status Retry(const RetrySite& site, Status failed, Fn&& again,
               uint32_t* attempts = nullptr) {
    uint32_t retry = 0;
    while (!failed.ok() && WaitToRetry(site, failed, retry)) {
      ++retry;
      failed = again();
    }
    if (attempts != nullptr) *attempts = retry + 1;
    return failed;
  }

  /// A record of `stage` ("intake" | "parse" | "udf" | "storage") that failed
  /// for good with `cause` after `attempts` attempts. Abort returns the cause;
  /// skip counts the record; dead-letter parks `raw()` (called only then) in
  /// the queue. Skip and dead-letter return OK.
  template <typename RawFn>
  Status Reject(const char* stage, Status cause, uint32_t attempts, RawFn&& raw) {
    switch (on_error_) {
      case OnError::kAbort:
        return cause;
      case OnError::kSkip:
        skipped_.fetch_add(1, std::memory_order_relaxed);
        skipped_metric_->Increment();
        break;
      case OnError::kDeadLetter:
        dlq_->Add(DeadLetter{raw(), stage, std::move(cause), attempts});
        break;
    }
    return Status::OK();
  }

  /// Records dropped by the skip policy, over every stage.
  uint64_t records_skipped() const { return skipped_.load(std::memory_order_relaxed); }
  /// Retry attempts, over every stage.
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  /// Letters parked this run: the queue's enqueued() count (0 without one).
  uint64_t dead_letters() const { return dlq_ == nullptr ? 0 : dlq_->enqueued(); }
  /// The run's dead-letter queue; null unless the policy is dead-letter.
  const std::shared_ptr<DeadLetterQueue>& dlq() const { return dlq_; }

 private:
  /// Whether `failed` earns retry number `retry` (0-based): its code is
  /// retryable and fewer than max_retries retries were spent. If so, counts
  /// the retry, records its flight event and sleeps the backoff.
  bool WaitToRetry(const RetrySite& site, const Status& failed, uint32_t retry);

  std::string feed_;
  OnError on_error_;
  uint32_t max_retries_;
  uint64_t retry_backoff_us_;
  std::shared_ptr<DeadLetterQueue> dlq_;
  std::atomic<uint64_t> skipped_{0};
  std::atomic<uint64_t> retries_{0};
  obs::Counter* skipped_metric_;  // idea.feed.<f>.records_skipped
  obs::Counter* retries_metric_;  // idea.feed.<f>.retries
};

}  // namespace idea::feed
