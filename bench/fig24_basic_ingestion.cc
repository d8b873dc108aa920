// Figure 24: basic ingestion (no UDF) speed-up over cluster sizes 1-24.
// Paper: 10M tweets; here: 20K (bench scale; shapes, not absolutes).
//
//   Static Ingestion              flat (parse coupled on one intake node)
//   Balanced Static Ingestion     scales with nodes
//   Dynamic Ingestion 1X/4X/16X   rises, converges to the intake-node bound
//   Balanced Dynamic 1X/4X/16X    keeps growing; trails Balanced Static at
//                                 large clusters (computing-job overhead)
//
// Ablations (design choices called out in DESIGN.md):
//   --ablate-predeploy   recompile the computing job on every invocation
//   --ablate-fused       single fused insert job instead of the decoupled
//                        computing/storage split (§5.1 vs §5.2)
#include <cstring>

#include "harness.h"

using namespace idea;
using namespace idea::bench;

int main(int argc, char** argv) {
  MetricsOut metrics_out(argc, argv);
  bool ablate_predeploy = false, ablate_fused = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ablate-predeploy") == 0) ablate_predeploy = true;
    if (std::strcmp(argv[i], "--ablate-fused") == 0) ablate_fused = true;
  }

  SimBench::Options options;
  options.use_cases = {};  // no UDF: pure ingestion
  options.tweets = 20000;
  SimBench bench(options);

  const std::vector<size_t> node_counts = {1, 2, 3, 4, 6, 12, 18, 24};
  BenchJsonWriter json("fig24");

  PrintHeader("Figure 24: 20K tweets ingestion speed-up over 1-24 nodes",
              "throughput in thousands of records/second (paper: 10M tweets)");
  std::vector<std::string> header = {"nodes", "Static", "BalStatic", "Dyn-1X",
                                     "Dyn-4X", "Dyn-16X", "BalDyn-1X", "BalDyn-4X",
                                     "BalDyn-16X"};
  PrintRow(header, 12);

  for (size_t nodes : node_counts) {
    std::vector<std::string> row = {std::to_string(nodes)};
    auto run = [&](const std::string& series, bool dynamic, bool balanced,
                   size_t batch_mult) {
      SimConfig config;
      config.nodes = nodes;
      config.dynamic = dynamic;
      config.balanced_intake = balanced;
      config.batch_size = kBatch1X * batch_mult;
      config.costs = BenchCosts();
      config.predeployed = !ablate_predeploy;
      config.fused_insert_job = ablate_fused;
      SimReport r = bench.Run(config);
      row.push_back(Fmt(r.throughput_rps / 1000.0, "%.1f"));
      json.Add(series, config, r);
      return r;
    };
    run("Static", /*dynamic=*/false, /*balanced=*/false, 1);
    run("BalStatic", false, true, 1);
    SimReport d1 = run("Dyn-1X", true, false, 1);
    run("Dyn-4X", true, false, 4);
    run("Dyn-16X", true, false, 16);
    run("BalDyn-1X", true, true, 1);
    run("BalDyn-4X", true, true, 4);
    run("BalDyn-16X", true, true, 16);
    PrintRow(row, 12);
    if (nodes == 24) {
      std::printf("  (24 nodes, Dyn-1X: %llu computing jobs, refresh rate %.0f jobs/s)\n",
                  static_cast<unsigned long long>(d1.computing_jobs),
                  d1.computing_jobs / (d1.makespan_us / 1e6));
    }
  }
  if (ablate_predeploy) {
    std::printf("\n[ablation] predeployed jobs DISABLED: every invocation paid the "
                "compile+distribute cost\n");
  }
  if (ablate_fused) {
    std::printf("\n[ablation] fused insert job: UDF evaluation waits for the storage "
                "log flush (pre-decoupling design, paper 5.2)\n");
  }
  return 0;
}
