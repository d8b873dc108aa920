// Thread-safe first-error collector: many workers report, the first non-OK
// Status wins and later ones are dropped. Used by TaskGroup, the intake and
// storage jobs, and the Active Feed Manager.
#pragma once

#include <atomic>
#include <mutex>

#include "common/status.h"

namespace idea::common {

class FirstError {
 public:
  /// Records `st` if it is the first non-OK status seen. Returns true when
  /// `st` became the stored error (i.e. this call was the first failure).
  bool Set(const Status& st) {
    if (st.ok()) return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_.ok()) return false;
    first_ = st;
    failed_.store(true, std::memory_order_release);
    return true;
  }

  Status Get() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

  /// Lock-free check for "has any error been recorded" (hot-path guard).
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  bool ok() const { return !failed(); }

 private:
  mutable std::mutex mu_;
  std::atomic<bool> failed_{false};
  Status first_;
};

}  // namespace idea::common
