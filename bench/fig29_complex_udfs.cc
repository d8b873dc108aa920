// Figure 29: UDF complexity comparison — the four complex use cases (Nearby
// Monuments, Suspicious Names, Tweet Context, Worrisome Tweets) on 6 nodes
// under batch sizes 1X/4X/16X. Paper: 100K tweets; here 800.
//
// Expected shapes: Tweet Context is by far the slowest (multiple correlated
// joins per record, plus per-job state rebuild) and benefits most from
// larger batches; the probe-dominated cases gain little from batching.
#include "harness.h"

using namespace idea;
using namespace idea::bench;

int main(int argc, char** argv) {
  MetricsOut metrics_out(argc, argv);
  SimBench::Options options;
  options.use_cases = ComplexUseCases();
  options.base_sizes = ComplexBenchSizes();
  options.tweets = 1000;
  SimBench bench(options);
  BenchJsonWriter json("fig29");

  PrintHeader("Figure 29: complex-UDF throughput vs batch size (6 nodes)",
              "records/second, Dynamic SQL++ (paper: 100K tweets)");
  PrintRow({"use case", "1X (42)", "4X (168)", "16X (672)"}, 20);

  for (auto id : ComplexUseCases()) {
    const auto& uc = workload::GetUseCase(id);
    std::vector<std::string> row = {uc.name};
    for (size_t mult : {1, 4, 16}) {
      SimConfig config;
      config.nodes = 6;
      config.batch_size = kBatch1X * mult;
      config.costs = BenchCosts();
      config.udf = uc.function_name;
      SimReport r = bench.Run(config);
      row.push_back(Fmt(r.throughput_rps, "%.0f"));
      json.Add(uc.name + std::string("/") + std::to_string(mult) + "X", config, r);
    }
    PrintRow(row, 20);
  }
  return 0;
}
