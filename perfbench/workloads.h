// The benchmark's workloads and the pieces shared by the end-to-end trials
// (engine_bench.cc) and the single-threaded layer replay (replay.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"
#include "common/status.h"
#include "instance/instance.h"
#include "storage/lsm_dataset.h"
#include "workload/usecases.h"

namespace perfbench {

inline constexpr size_t kNodes = 2;
inline constexpr size_t kBatchSize = 420;
inline constexpr size_t kCountryDomain = 500;
inline constexpr const char* kFeed = "TweetFeed";

struct WorkloadSpec {
  std::string name;
  /// Tweets replayed per trial; fixed, since compaction cost grows with
  /// dataset size.
  size_t tweets = 0;
  /// Enrichment UDF applied by the feed ("" = none) and its use case.
  std::string udf;
  idea::workload::UseCaseId use_case = idea::workload::UseCaseId::kSafetyRating;
  std::string enriched_field;  // the field the UDF adds
  size_t reference_records = 0;
  /// Open loop: tweets released at this rate on a due-time schedule.
  /// 0 = closed loop (as fast as the intake holders accept them).
  double tweet_rate = 0;
  /// Reference upserts per second into the use case's dataset (0 = none).
  double update_rate = 0;
  std::string target;     // dataset the feed writes
  std::string reference;  // dataset the updates write ("" = none)
};

/// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Everything a run derives from its seed.
struct Inputs {
  uint64_t seed = 0;
  std::vector<std::string> tweets;  // JSON, one per record
};
Inputs MakeInputs(const WorkloadSpec& w, uint64_t seed);

/// The k-th reference update of a run.
idea::adm::Value UpdateRecord(const WorkloadSpec& w, const Inputs& in, uint64_t k);

/// Reference updates per trial: update_rate over the tweet schedule's span.
uint64_t UpdateCount(const WorkloadSpec& w);

/// An instance with the tweet DDL, reference data, UDF and the feed
/// declared and connected, but not started.
struct Deployment {
  std::unique_ptr<idea::Instance> db;
  std::shared_ptr<idea::storage::LsmDataset> target;
  std::shared_ptr<idea::storage::LsmDataset> reference;  // null without one
};
idea::Result<Deployment> Deploy(const WorkloadSpec& w, const Inputs& in);

/// Steady-clock nanoseconds.
int64_t NowNs();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Single-threaded replay of the workload's inputs through each layer's
/// public entry points, in pipeline order, with a span around every call.
/// Writes the spans (`<out_prefix>.spans.tsv`) and per-layer self times
/// (`<out_prefix>.selftime.json`); fills `metrics` with the per-layer
/// metrics. `failed` counts records whose replayed result is wrong.
idea::Status RunReplay(const WorkloadSpec& w, const Inputs& in,
                       const std::string& out_prefix, Metrics* metrics,
                       uint64_t* failed);

}  // namespace perfbench
