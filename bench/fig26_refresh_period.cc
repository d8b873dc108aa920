// Figure 26: refresh period (execution time per computing-job invocation,
// i.e. how stale the UDF's intermediate state can get) for Dynamic SQL++
// enrichment under batch sizes 1X/4X/16X, five use cases, 6 nodes.
//
// Expected shape: refresh periods grow with batch size; Fuzzy Suspects and
// Nearby Monuments sit far above the three simple lookup/aggregate cases.
#include "harness.h"

using namespace idea;
using namespace idea::bench;

int main(int argc, char** argv) {
  MetricsOut metrics_out(argc, argv);
  SimBench::Options options;
  options.use_cases = EvalUseCases();
  options.base_sizes = EvalBenchSizes();
  options.tweets = 3000;
  SimBench bench(options);
  BenchJsonWriter json("fig26");

  PrintHeader("Figure 26: refresh period per batch size (Dynamic SQL++, 6 nodes)",
              "seconds per computing-job invocation");
  PrintRow({"use case", "1X (42)", "4X (168)", "16X (672)"}, 22);

  for (auto id : EvalUseCases()) {
    const auto& uc = workload::GetUseCase(id);
    std::vector<std::string> row = {uc.name};
    for (size_t mult : {1, 4, 16}) {
      SimConfig config;
      config.nodes = 6;
      config.batch_size = kBatch1X * mult;
      config.costs = BenchCosts();
      config.udf = uc.function_name;
      SimReport r = bench.Run(config);
      row.push_back(Fmt(r.refresh_period_us / 1e6, "%.3f"));
      json.Add(uc.name + std::string("/") + std::to_string(mult) + "X", config, r);
    }
    PrintRow(row, 22);
  }

  return 0;
}
