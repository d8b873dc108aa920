// Figure 27: enrichment throughput vs reference-data update rate (0, 1, 10,
// 50, 100, 200, 400 updates/second) on 6 nodes. Paper: 100K tweets; here
// 1.5K.
//
// Expected shapes: every case drops when updates first appear (the LSM
// in-memory component activates, adding merge/locking cost to every read);
// Fuzzy Suspects (smallest reference set) is least affected; Nearby
// Monuments (live index probes throughout the job) degrades most at high
// rates.
#include "harness.h"

using namespace idea;
using namespace idea::bench;

namespace {

const char* UpdateDatasetFor(workload::UseCaseId id) {
  switch (id) {
    case workload::UseCaseId::kSafetyRating:
      return "SafetyRatings";
    case workload::UseCaseId::kReligiousPopulation:
    case workload::UseCaseId::kLargestReligions:
      return "ReligiousPopulations";
    case workload::UseCaseId::kFuzzySuspects:
      return "SensitiveNamesDataset";
    case workload::UseCaseId::kNearbyMonuments:
      return "monumentList";
    default:
      return "";
  }
}

size_t UpdateDatasetSize(const workload::RefSizes& sizes, workload::UseCaseId id) {
  switch (id) {
    case workload::UseCaseId::kSafetyRating:
      return sizes.safety_ratings;
    case workload::UseCaseId::kReligiousPopulation:
    case workload::UseCaseId::kLargestReligions:
      return sizes.religious_populations;
    case workload::UseCaseId::kFuzzySuspects:
      return sizes.sensitive_names;
    case workload::UseCaseId::kNearbyMonuments:
      return sizes.monuments;
    default:
      return 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  MetricsOut metrics_out(argc, argv);
  const std::vector<double> rates = {0, 1, 10, 50, 100, 200, 400};
  BenchJsonWriter json("fig27");

  PrintHeader("Figure 27: throughput vs reference-data update rate (6 nodes)",
              "records/second while a client upserts reference data at the given rate");
  std::vector<std::string> header = {"use case"};
  for (double r : rates) header.push_back(Fmt(r, "%.0f") + " upd/s");
  PrintRow(header, 16);

  for (auto id : EvalUseCases()) {
    // Fresh bench per use case: update runs mutate the reference datasets.
    SimBench::Options options;
    options.use_cases = {id};
    options.base_sizes = EvalBenchSizes();
    options.tweets = 1500;
    SimBench bench(options);
    const auto& uc = workload::GetUseCase(id);
    std::vector<std::string> row = {uc.name};
    for (double rate : rates) {
      SimConfig config;
      config.nodes = 6;
      config.batch_size = kBatch1X;
      config.costs = BenchCosts();
      config.udf = uc.function_name;
      config.update_dataset = rate > 0 ? UpdateDatasetFor(id) : "";
      config.update_rate = rate * 50;  // preserve updates-per-batch at 1:50 time compression
      config.update_dataset_size = UpdateDatasetSize(bench.sizes(), id);
      config.country_domain = bench.country_domain();
      SimReport r = bench.Run(config);
      row.push_back(Fmt(r.throughput_rps, "%.0f"));
      json.Add(uc.name + std::string("/") + Fmt(rate, "%.0f") + "ups", config, r);
    }
    PrintRow(row, 16);
  }
  return 0;
}
