// Figure 30: speed-up of 24 nodes over 6 nodes for all eight UDFs under
// batch sizes 1X/4X/16X. Paper: 100K tweets; here 600.
//
// Expected shapes: the three cheap lookup UDFs barely speed up (their
// refresh period is already tiny, so per-job overhead dominates and grows
// with cluster size); the compute-heavy UDFs approach (or, for Tweet Context
// in the paper, exceed) the ideal 4x; bigger batches speed up better.
#include "harness.h"

using namespace idea;
using namespace idea::bench;

int main(int argc, char** argv) {
  MetricsOut metrics_out(argc, argv);
  std::vector<workload::UseCaseId> all = {
      workload::UseCaseId::kSafetyRating,     workload::UseCaseId::kLargestReligions,
      workload::UseCaseId::kReligiousPopulation, workload::UseCaseId::kFuzzySuspects,
      workload::UseCaseId::kNearbyMonuments,  workload::UseCaseId::kSuspiciousNames,
      workload::UseCaseId::kTweetContext,     workload::UseCaseId::kWorrisomeTweets};
  SimBench::Options options;
  options.use_cases = all;
  options.base_sizes = ComplexBenchSizes();
  options.tweets = 600;
  SimBench bench(options);
  BenchJsonWriter json("fig30");

  PrintHeader("Figure 30: speed-up, 24 vs 6 nodes, per batch size",
              "ideal speed-up = 4.0 (paper: 100K tweets)");
  PrintRow({"use case", "1X", "4X", "16X"}, 22);

  for (auto id : all) {
    const auto& uc = workload::GetUseCase(id);
    std::vector<std::string> row = {uc.name};
    for (size_t mult : {1, 4, 16}) {
      auto throughput = [&](size_t nodes) {
        SimConfig config;
        config.nodes = nodes;
        config.batch_size = kBatch1X * mult;
        config.costs = BenchCosts();
        config.udf = uc.function_name;
        SimReport r = bench.Run(config);
        json.Add(uc.name + std::string("/") + std::to_string(mult) + "X/" +
                     std::to_string(nodes) + "n",
                 config, r);
        return r.throughput_rps;
      };
      double t6 = throughput(6);
      double t24 = throughput(24);
      row.push_back(Fmt(t6 > 0 ? t24 / t6 : 0, "%.2f"));
    }
    PrintRow(row, 22);
  }
  return 0;
}
