// Figure 25: 1M-tweet enrichment throughput on 6 nodes, five use cases
// (Safety Rating, Religious Population, Largest Religions, Fuzzy Suspects,
// Nearby Monuments) x {Static-Java, Dynamic-Java 1X/4X/16X,
// Dynamic-SQL++ 1X/4X/16X}. Here: 3K tweets.
//
// Expected shapes: static (stale-state) enrichment is fastest except Nearby
// Monuments, where the SQL++ R-tree index nested-loop join beats the Java
// linear scan; throughput rises with batch size, least for Fuzzy Suspects /
// Nearby Monuments whose per-record compute dominates.
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

  const size_t kNodes = 6;
  BenchJsonWriter json("fig25");

  PrintHeader("Figure 25: 3K tweets enrichment with UDFs on 6 nodes",
              "throughput in records/second, log-scale shape in the paper");
  PrintRow({"use case", "StaticJava", "DynJava-1X", "DynJava-4X", "DynJava-16X",
            "DynSQL-1X", "DynSQL-4X", "DynSQL-16X"},
           16);

  for (auto id : EvalUseCases()) {
    const auto& uc = workload::GetUseCase(id);
    std::vector<std::string> row = {uc.name};
    auto run = [&](const std::string& series, bool dynamic, bool native,
                   size_t batch_mult) {
      SimConfig config;
      config.nodes = kNodes;
      config.dynamic = dynamic;
      config.batch_size = kBatch1X * batch_mult;
      config.costs = BenchCosts();
      config.udf = native ? uc.native_udf : uc.function_name;
      SimReport r = bench.Run(config);
      row.push_back(Fmt(r.throughput_rps, "%.0f"));
      json.Add(uc.name + std::string("/") + series, config, r);
    };
    run("StaticJava", /*dynamic=*/false, /*native=*/true, 1);
    run("DynJava-1X", true, true, 1);
    run("DynJava-4X", true, true, 4);
    run("DynJava-16X", true, true, 16);
    run("DynSQL-1X", true, false, 1);
    run("DynSQL-4X", true, false, 4);
    run("DynSQL-16X", true, false, 16);
    PrintRow(row, 16);
  }

  // Single-node record path: DynSQL-4X with every modelled cost zeroed and
  // cpu_scale 1, so the series charges the engine's measured CPU alone
  // (intake, parse -> enrich -> ship, decode -> apply).
  PrintHeader("Single-node record path",
              "throughput in records/second, measured CPU only");
  PrintRow({"use case", "DynSQL-4X"}, 18);
  for (auto id : EvalUseCases()) {
    const auto& uc = workload::GetUseCase(id);
    SimConfig config;
    config.nodes = 1;
    config.dynamic = true;
    config.batch_size = kBatch4X;
    cluster::CostModelConfig cm;
    cm.job_start_fixed_us = 0;
    cm.job_start_per_node_us = 0;
    cm.compile_us = 0;
    cm.network_per_kib_us = 0;
    cm.log_flush_us = 0;
    cm.cpu_scale = 1.0;
    cm.intake_per_record_us = 0;
    config.costs = cm;
    config.udf = uc.function_name;
    SimReport r = bench.Run(config);
    json.Add(uc.name + std::string("/1node/DynSQL-4X-zerocopy"), config, r);
    PrintRow({uc.name, Fmt(r.throughput_rps, "%.0f")}, 18);
  }
  return 0;
}
