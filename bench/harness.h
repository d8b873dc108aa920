// Shared harness for the figure-reproduction benches: sets up a catalog with
// the tweet schema, a chosen set of use cases (DDL + UDFs + reference data +
// native resources) and a pre-generated tweet stream, then runs each
// configuration on the production engine — a fresh cluster::Cluster with the
// figure's node count, driven by an ActiveFeedManager through the intake,
// computing and storage jobs — and charges the engine's measured task CPU
// through the cost model (cluster::ChargeRun) to get the N-node time. Counts
// are scaled down from the paper (documented per bench); shapes, not
// absolute numbers, are the reproduction target.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "adm/json.h"
#include "cluster/cluster_controller.h"
#include "cluster/cost_model.h"
#include "feed/active_feed_manager.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"
#include "sqlpp/analyzer.h"
#include "sqlpp/enrichment_plan.h"
#include "sqlpp/parser.h"
#include "workload/native_udfs.h"
#include "workload/reference_data.h"
#include "workload/tweets.h"
#include "workload/update_client.h"
#include "workload/usecases.h"

namespace idea::bench {

inline void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckResult(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

// Bench scale: tweet counts and batch sizes are scaled ~1:10 from the paper
// (batches 42/168/672 instead of 420/1680/6720) and the per-job coordination
// costs scale in lockstep, so the paper's reference-size : batch-size ratios
// — the quantity that decides static-vs-dynamic and batch-size behaviour —
// are preserved.
constexpr size_t kBatch1X = 42;
constexpr size_t kBatch4X = 168;
constexpr size_t kBatch16X = 672;

/// Coordination costs scaled with the 1:10 batch scale.
inline cluster::CostModelConfig BenchCosts() {
  cluster::CostModelConfig c;
  c.job_start_fixed_us = 80;
  c.job_start_per_node_us = 40;
  c.compile_us = 2500;
  c.log_flush_us = 300;
  return c;
}

/// Reference sizes for the §7.2 use cases, preserving the paper's
/// reference:batch ratios (e.g. SafetyRatings 500K : 420 ≈ 50K : 42).
inline workload::RefSizes EvalBenchSizes() {
  workload::RefSizes s = workload::SimulatorScaleSizes();
  s.sensitive_words = 2000;
  s.safety_ratings = 50000;
  s.religious_populations = 50000;
  s.sensitive_names = 1000;  // paper's SuspectsNames is small (5K)
  s.monuments = 50000;
  return s;
}

/// Reference sizes for the §7.4.2 complex use cases.
inline workload::RefSizes ComplexBenchSizes() {
  workload::RefSizes s = workload::SimulatorScaleSizes();
  s.religious_buildings = 2000;
  s.facilities = 5000;
  s.average_incomes = 5000;
  s.district_areas = 500;
  s.persons = 20000;
  s.attack_events = 1000;
  s.sensitive_names = 2000;  // SuspiciousNames
  s.monuments = 50000;
  return s;
}

/// One figure-bench configuration: how the engine runs, plus the accounting
/// choices the cost model applies to the run.
struct SimConfig {
  size_t nodes = 6;
  size_t batch_size = 420;  // records per computing-job invocation (1X)
  bool dynamic = true;      // false: charge the run as the static pipeline
  bool balanced_intake = false;
  bool predeployed = true;        // ablation: compile_us per invocation
  bool fused_insert_job = false;  // ablation: single insert job (§5.1, pre-§5.2)
  std::string udf;                // SQL++ name or native "lib#name"; "" = none
  cluster::CostModelConfig costs;

  // Reference-update client (Figure 27): upserts per wall-clock second
  // against `update_dataset` while the feed runs (0 = no updates).
  std::string update_dataset;
  double update_rate = 0;
  size_t update_dataset_size = 0;
  size_t country_domain = 500;
};

/// The cost model's charge for one run (cluster::RunCharge), plus counts.
struct SimReport {
  uint64_t records = 0;
  double makespan_us = 0;
  double throughput_rps = 0;
  uint64_t computing_jobs = 0;    // 0 under static accounting
  double refresh_period_us = 0;   // mean modelled invocation time (Fig 26)
  double intake_us = 0;
  double compute_us = 0;
  double storage_us = 0;
  // Modelled per-invocation time distribution (dynamic accounting only).
  double batch_p50_us = 0;
  double batch_p95_us = 0;
  double batch_p99_us = 0;
  double batch_max_us = 0;
};

/// One catalog + UDF registry prepared for a set of use cases.
class SimBench {
 public:
  struct Options {
    std::vector<workload::UseCaseId> use_cases;
    double ref_scale = 1.0;          // multiplier over the base sizes
    workload::RefSizes base_sizes = workload::SimulatorScaleSizes();
    size_t country_domain = 500;
    size_t tweets = 2000;
    uint64_t seed = 42;
  };

  explicit SimBench(Options options) : options_(options) {
    sizes_ = options.base_sizes.Scaled(options.ref_scale);
    ApplyDdl(workload::TweetDdl());
    resource_dir_ = MakeResourceDir();
    Check(workload::WriteNativeResources(resource_dir_, sizes_, options.country_domain,
                                         options.seed),
          "write native resources");
    Check(workload::RegisterNativeUdfs(&udfs_, resource_dir_), "register native UDFs");
    for (auto id : options.use_cases) {
      const auto& uc = workload::GetUseCase(id);
      ApplyDdl(uc.ddl);
      RegisterFunction(uc.function_ddl);
      Check(workload::LoadUseCaseData(&catalog_, uc, sizes_, options.country_domain,
                                      options.seed),
            "load reference data");
    }
    // The hinted naive variant rides along when Nearby Monuments is loaded.
    for (auto id : options.use_cases) {
      if (id == workload::UseCaseId::kNearbyMonuments) {
        RegisterFunction(workload::NaiveNearbyMonumentsFunctionDdl());
      }
    }
    raw_ = workload::TweetGenerator::GenerateJson(
        options.tweets,
        {.seed = options.seed + 1, .country_domain = options.country_domain});
  }

  /// Runs one configuration on a fresh cluster into a fresh target dataset
  /// and charges it through the cost model. Exits unless every tweet is
  /// stored.
  SimReport Run(const SimConfig& config) {
    // Registry series are process-cumulative: one feed name per run.
    static int runs = 0;
    const std::string feed_name = "run" + std::to_string(runs++);
    const std::string target = "Out" + feed_name;
    Check(catalog_.CreateDataset(target, "TweetType", "id"), "create target dataset");
    std::shared_ptr<const sqlpp::SqlppFunctionDef> sqlpp_udf = SqlppUdf(config.udf);
    if (sqlpp_udf != nullptr && !config.dynamic &&
        sqlpp::AnalyzeFunctionBody(*sqlpp_udf->body, sqlpp_udf->params).stateful) {
      // The paper's static pipeline rejects these (§4.3.4).
      std::fprintf(stderr,
                   "FATAL: stateful SQL++ UDF '%s' cannot run on the static pipeline\n",
                   config.udf.c_str());
      std::exit(1);
    }
    cluster::Accounting how;
    how.nodes = config.nodes;
    how.dynamic = config.dynamic;
    how.balanced_intake = config.balanced_intake;
    how.predeployed = config.predeployed;
    how.fused_insert_job = config.fused_insert_job;
    how.broadcast = sqlpp_udf != nullptr && ProbesIndexNestedLoop(sqlpp_udf);

    {
      cluster::ClusterConfig cc;
      cc.nodes = config.nodes;
      cluster::Cluster cluster(cc);
      feed::ActiveFeedManager afm(&cluster, &catalog_, &udfs_);
      std::unique_ptr<workload::UpdateClient> updates;
      if (config.update_rate > 0) {
        updates = std::make_unique<workload::UpdateClient>(
            &catalog_, config.update_dataset, config.update_dataset_size,
            config.country_domain, config.update_rate);
        Check(updates->Start(), "start update client");
      }
      feed::ActiveFeedManager::StartArgs args;
      args.config.name = feed_name;
      args.config.type_name = "TweetType";
      args.config.batch_size = config.batch_size;
      args.config.balanced_intake = config.balanced_intake;
      args.connection.dataset = target;
      args.connection.apply_function = config.udf;
      args.adapter_factory = feed::MakeVectorAdapterFactory(raw_);
      Check(afm.StartFeed(std::move(args)), "start feed");
      feed::FeedRuntimeStats stats = CheckResult(afm.WaitForFeedStats(feed_name), "run feed");
      if (updates != nullptr) {
        updates->Stop();
        Check(updates->first_error(), "update client");
      }
      const size_t stored = catalog_.FindDataset(target)->LiveRecordCount();
      if (stats.records_ingested != raw_->size() || stored != raw_->size()) {
        std::fprintf(stderr, "FATAL (run %s): stored %zu of %zu tweets\n",
                     feed_name.c_str(), stored, raw_->size());
        std::exit(1);
      }
    }
    const cluster::RunCharge c =
        cluster::ChargeRun(ReadTaskTotals(feed_name), config.costs, how);
    SimReport report;
    report.records = raw_->size();
    report.makespan_us = c.makespan_us;
    report.throughput_rps = c.throughput_rps;
    report.computing_jobs =
        config.dynamic ? ReadCounter("idea.compute." + feed_name + ".invocations") : 0;
    report.refresh_period_us = c.refresh_period_us;
    report.intake_us = c.intake_us;
    report.compute_us = c.compute_us;
    report.storage_us = c.storage_us;
    report.batch_p50_us = c.batch_p50_us;
    report.batch_p95_us = c.batch_p95_us;
    report.batch_p99_us = c.batch_p99_us;
    report.batch_max_us = c.batch_max_us;
    Check(catalog_.DropDataset(target), "drop target dataset");
    return report;
  }

  const workload::RefSizes& sizes() const { return sizes_; }
  size_t country_domain() const { return options_.country_domain; }

 private:
  /// The SQL++ definition of `udf`; null for none or a native UDF.
  std::shared_ptr<const sqlpp::SqlppFunctionDef> SqlppUdf(const std::string& udf) const {
    if (udf.empty() || udfs_.HasNative(udf)) return nullptr;
    std::shared_ptr<const sqlpp::SqlppFunctionDef> def = udfs_.FindSqlppShared(udf);
    if (def == nullptr) {
      std::fprintf(stderr, "FATAL: unknown function '%s'\n", udf.c_str());
      std::exit(1);
    }
    return def;
  }

  /// Whether the UDF's plan probes an index nested loop, which broadcasts
  /// every tweet to all nodes (§7.4.2).
  bool ProbesIndexNestedLoop(std::shared_ptr<const sqlpp::SqlppFunctionDef> def) {
    storage::CatalogAccessor accessor(&catalog_, /*cache=*/true);
    std::unique_ptr<sqlpp::EnrichmentPlan> plan = CheckResult(
        sqlpp::EnrichmentPlan::Compile(def, &accessor, &udfs_), "compile UDF");
    for (const auto& c : plan->choices()) {
      if (c.kind == sqlpp::AccessPathKind::kIndexNestedLoopEq ||
          c.kind == sqlpp::AccessPathKind::kIndexNestedLoopSpatial) {
        return true;
      }
    }
    return false;
  }

  static uint64_t ReadCounter(const std::string& name) {
    return obs::MetricsRegistry::Default().GetCounter(name)->value();
  }

  /// The run's task totals, from the engine's per-feed registry series.
  static cluster::TaskTotals ReadTaskTotals(const std::string& feed) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    const std::string compute = "idea.compute." + feed + ".";
    const std::string storage = "idea.storage." + feed + ".";
    auto sum = [&](const std::string& name) { return reg.GetHistogram(name)->sum(); };
    cluster::TaskTotals t;
    t.records = ReadCounter(storage + "records");
    t.invocations = ReadCounter(compute + "invocations");
    t.frames = ReadCounter(storage + "frames");
    t.ship_bytes = static_cast<double>(ReadCounter(compute + "ship_bytes"));
    t.adapter_cpu_us = sum("idea.intake." + feed + ".adapter_cpu_us");
    t.parse_cpu_us = sum(compute + "parse_cpu_us");
    t.enrich_cpu_us = sum(compute + "enrich_cpu_us");
    t.ship_cpu_us = sum(compute + "ship_cpu_us");
    const obs::Histogram* critical = reg.GetHistogram(compute + "critical_cpu_us");
    t.critical_cpu_us = critical->sum();
    t.critical_p50_us = critical->Percentile(0.50);
    t.critical_p95_us = critical->Percentile(0.95);
    t.critical_p99_us = critical->Percentile(0.99);
    t.critical_max_us = critical->max();
    t.decode_cpu_us = sum(storage + "decode_cpu_us");
    t.apply_cpu_us = sum(storage + "apply_cpu_us");
    return t;
  }

  static std::string MakeResourceDir() {
    std::string dir = "/tmp/idea_bench_resources";
    (void)::system(("mkdir -p " + dir).c_str());
    return dir;
  }

  void ApplyDdl(const std::string& script) {
    auto stmts = CheckResult(sqlpp::ParseScript(script), "parse DDL");
    for (const auto& stmt : stmts) {
      if (stmt.kind == sqlpp::StatementKind::kCreateType) {
        std::vector<adm::FieldSpec> fields;
        for (const auto& f : stmt.create_type.fields) {
          fields.push_back({f.name,
                            CheckResult(adm::FieldTypeFromName(f.type_name), "field type"),
                            f.optional});
        }
        (void)catalog_.CreateDatatype(adm::Datatype(stmt.create_type.name, fields));
      } else if (stmt.kind == sqlpp::StatementKind::kCreateDataset) {
        (void)catalog_.CreateDataset(stmt.create_dataset.name,
                                     stmt.create_dataset.type_name,
                                     stmt.create_dataset.primary_key);
      } else if (stmt.kind == sqlpp::StatementKind::kCreateIndex) {
        auto ds = catalog_.FindDataset(stmt.create_index.dataset);
        if (ds != nullptr) {
          (void)ds->CreateIndex(stmt.create_index.name, stmt.create_index.field,
                                stmt.create_index.index_type);
        }
      }
    }
  }

  void RegisterFunction(const std::string& fn_ddl) {
    auto fn = CheckResult(sqlpp::ParseStatement(fn_ddl), "parse function");
    sqlpp::SqlppFunctionDef def;
    def.name = fn.create_function.name;
    def.params = fn.create_function.params;
    def.body =
        std::shared_ptr<const sqlpp::SelectStatement>(std::move(fn.create_function.body));
    (void)udfs_.RegisterSqlpp(std::move(def), /*or_replace=*/true);
  }

  Options options_;
  workload::RefSizes sizes_;
  storage::Catalog catalog_;
  feed::UdfRegistry udfs_;
  std::string resource_dir_;
  std::shared_ptr<const std::vector<std::string>> raw_;
};

/// The §7.2 evaluation set (cases 1-5).
inline std::vector<workload::UseCaseId> EvalUseCases() {
  return {workload::UseCaseId::kSafetyRating, workload::UseCaseId::kReligiousPopulation,
          workload::UseCaseId::kLargestReligions, workload::UseCaseId::kFuzzySuspects,
          workload::UseCaseId::kNearbyMonuments};
}

/// The §7.4.2 complex set (cases 5-8).
inline std::vector<workload::UseCaseId> ComplexUseCases() {
  return {workload::UseCaseId::kNearbyMonuments, workload::UseCaseId::kSuspiciousNames,
          workload::UseCaseId::kTweetContext, workload::UseCaseId::kWorrisomeTweets};
}

// --- machine-readable results ------------------------------------------------

/// Writes one JSON object per bench data point to BENCH_<fig>.json in the
/// working directory (JSON lines, same convention as obs::SnapshotExporter).
/// Each row carries the run configuration plus throughput, refresh period,
/// the modelled per-batch latency percentiles, and each layer's charge.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(const std::string& fig)
      : path_("BENCH_" + fig + ".json"), file_(std::fopen(path_.c_str(), "w")) {
    if (file_ == nullptr) {
      std::fprintf(stderr, "warning: cannot open %s for writing\n", path_.c_str());
    }
  }
  ~BenchJsonWriter() {
    if (file_ != nullptr) {
      std::fclose(file_);
      std::printf("\nwrote %s\n", path_.c_str());
    }
  }
  BenchJsonWriter(const BenchJsonWriter&) = delete;
  BenchJsonWriter& operator=(const BenchJsonWriter&) = delete;

  void Add(const std::string& series, const SimConfig& config, const SimReport& r) {
    if (file_ == nullptr) return;
    std::fprintf(
        file_,
        "{\"series\":%s,\"nodes\":%zu,\"batch_size\":%zu,\"records\":%" PRIu64
        ",\"makespan_us\":%.3f,\"throughput_rps\":%.3f,\"computing_jobs\":%" PRIu64
        ",\"refresh_period_us\":%.3f,\"batch_p50_us\":%.3f,\"batch_p95_us\":%.3f,"
        "\"batch_p99_us\":%.3f,\"batch_max_us\":%.3f,\"intake_us\":%.3f,"
        "\"compute_us\":%.3f,\"storage_us\":%.3f}\n",
        adm::JsonQuote(series).c_str(), config.nodes, config.batch_size, r.records,
        r.makespan_us, r.throughput_rps, r.computing_jobs, r.refresh_period_us,
        r.batch_p50_us, r.batch_p95_us, r.batch_p99_us, r.batch_max_us, r.intake_us,
        r.compute_us, r.storage_us);
  }

 private:
  std::string path_;
  std::FILE* file_;
};

// --- closing metrics snapshot ------------------------------------------------

/// `--metrics-out <path>` support: every fig bench declares one of these in
/// main(); at scope exit (process end) it persists the process's closing
/// metrics snapshot (registry + recent batch traces, obs JSONL) next to the
/// bench's BENCH_*.json row. A no-op when the flag is absent.
class MetricsOut {
 public:
  MetricsOut(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--metrics-out") == 0) path_ = argv[i + 1];
    }
  }
  ~MetricsOut() {
    if (path_.empty()) return;
    obs::SnapshotExporter exporter(&obs::MetricsRegistry::Default(),
                                   &obs::Tracer::Default());
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot open %s for writing\n", path_.c_str());
      return;
    }
    const std::string lines = exporter.SnapshotJsonLines();
    std::fwrite(lines.data(), 1, lines.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path_.c_str());
  }
  MetricsOut(const MetricsOut&) = delete;
  MetricsOut& operator=(const MetricsOut&) = delete;

 private:
  std::string path_;
};

// --- tiny table printer ------------------------------------------------------

inline void PrintHeader(const std::string& title, const std::string& note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
}

inline void PrintRow(const std::vector<std::string>& cells, size_t width = 26) {
  for (const auto& c : cells) std::printf("%-*s", static_cast<int>(width), c.c_str());
  std::printf("\n");
}

inline std::string Fmt(double v, const char* fmt = "%.1f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace idea::bench
