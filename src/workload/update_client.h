// Update client: a wall-clock background thread that upserts reference
// records into a dataset at a fixed rate — the §7.3 experiment's companion
// program that "sends reference data updates to AsterixDB through a data
// feed". The Figure 27 bench runs it beside a feed.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "common/status.h"
#include "storage/catalog.h"

namespace idea::workload {

class UpdateClient {
 public:
  /// Applies ~`rate` upserts per wall-clock second against `dataset` until
  /// Stop(). `dataset_size` bounds the key space (records cycle).
  UpdateClient(storage::Catalog* catalog, std::string dataset, size_t dataset_size,
               size_t country_domain, double rate);
  ~UpdateClient();

  Status Start();
  void Stop();
  uint64_t updates_applied() const { return applied_.load(std::memory_order_relaxed); }
  Status first_error() const;

 private:
  storage::Catalog* catalog_;
  std::string dataset_;
  size_t dataset_size_;
  size_t country_domain_;
  double rate_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> applied_{0};
  mutable std::mutex mu_;
  Status error_;
};

}  // namespace idea::workload
