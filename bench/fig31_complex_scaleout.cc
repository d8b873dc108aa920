// Figure 31: throughput (a) and speed-up over 6 nodes (b) as the cluster
// grows 6 -> 24 nodes for the four complex UDFs plus the hint-forced "Naive
// Nearby Monuments" (scan join; /*+ skip-index */). Paper: 100K tweets at
// 16X batches; here 800.
//
// Expected shapes: gains level off as job-start overhead grows; indexed
// Nearby Monuments flattens early (its probes broadcast every tweet to all
// nodes); the naive variant starts far lower and climbs steadily as the
// scan join parallelizes.
#include "harness.h"

using namespace idea;
using namespace idea::bench;

int main(int argc, char** argv) {
  MetricsOut metrics_out(argc, argv);
  SimBench::Options options;
  options.use_cases = ComplexUseCases();
  options.base_sizes = ComplexBenchSizes();
  options.tweets = 500;
  SimBench bench(options);

  struct Case {
    std::string label;
    std::string fn;
  };
  std::vector<Case> cases;
  for (auto id : ComplexUseCases()) {
    const auto& uc = workload::GetUseCase(id);
    cases.push_back({uc.name, uc.function_name});
    if (id == workload::UseCaseId::kNearbyMonuments) {
      cases.push_back({"Naive Nearby Monuments", "enrichTweetQ4Naive"});
    }
  }

  const std::vector<size_t> node_counts = {6, 12, 18, 24};
  BenchJsonWriter json("fig31");

  PrintHeader("Figure 31a: complex-UDF throughput vs cluster size",
              "records/second, Dynamic SQL++ 16X batches");
  std::vector<std::string> header = {"use case"};
  for (size_t n : node_counts) header.push_back(std::to_string(n) + " nodes");
  PrintRow(header, 24);

  std::vector<std::vector<double>> matrix;
  for (const auto& c : cases) {
    std::vector<std::string> row = {c.label};
    std::vector<double> values;
    for (size_t nodes : node_counts) {
      SimConfig config;
      config.nodes = nodes;
      config.batch_size = kBatch16X;
      config.costs = BenchCosts();
      config.udf = c.fn;
      SimReport r = bench.Run(config);
      values.push_back(r.throughput_rps);
      row.push_back(Fmt(r.throughput_rps, "%.0f"));
      json.Add(c.label + "/" + std::to_string(nodes) + "n", config, r);
    }
    matrix.push_back(values);
    PrintRow(row, 24);
  }

  PrintHeader("Figure 31b: speed-up over 6 nodes", "");
  PrintRow(header, 24);
  for (size_t i = 0; i < cases.size(); ++i) {
    std::vector<std::string> row = {cases[i].label};
    for (double v : matrix[i]) {
      row.push_back(Fmt(matrix[i][0] > 0 ? v / matrix[i][0] : 0, "%.2f"));
    }
    PrintRow(row, 24);
  }
  return 0;
}
