// Figure 28: reference-data scale-out — cluster 6/12/18/24 nodes with the
// reference datasets scaled 1X/2X/3X/4X in lockstep, Dynamic SQL++ at 16X
// batches. Paper: 1M tweets; here 2K.
//
// Expected shape: throughput stays roughly flat (slight decline from the
// growing per-job start-up overhead): per-node state-rebuild work is
// constant when data and nodes scale together.
#include "harness.h"

using namespace idea;
using namespace idea::bench;

int main(int argc, char** argv) {
  MetricsOut metrics_out(argc, argv);
  const std::vector<std::pair<size_t, double>> steps = {
      {6, 0.5}, {12, 1.0}, {18, 1.5}, {24, 2.0}};
  BenchJsonWriter json("fig28");

  PrintHeader("Figure 28: reference data scale-out (nodes x data scaled together)",
              "records/second, Dynamic SQL++ 16X batches (672 records, scaled)");
  std::vector<std::string> header = {"use case"};
  for (const auto& [nodes, scale] : steps) {
    header.push_back(std::to_string(nodes) + "n/" + Fmt(scale, "%.1f") + "X");
  }
  PrintRow(header, 18);

  for (auto id : EvalUseCases()) {
    const auto& uc = workload::GetUseCase(id);
    std::vector<std::string> row = {uc.name};
    for (const auto& [nodes, scale] : steps) {
      SimBench::Options options;
      options.use_cases = {id};
      options.base_sizes = EvalBenchSizes();
      options.ref_scale = scale;
      options.tweets = 2000;
      SimBench bench(options);
      SimConfig config;
      config.nodes = nodes;
      config.batch_size = kBatch16X;
      config.costs = BenchCosts();
      config.udf = uc.function_name;
      SimReport r = bench.Run(config);
      row.push_back(Fmt(r.throughput_rps, "%.0f"));
      json.Add(uc.name + std::string("/") + std::to_string(nodes) + "n", config, r);
    }
    PrintRow(row, 18);
  }
  return 0;
}
