// Delta-aware probe-cache micro-benchmark and ctest gate.
//
// Drives the two index nested-loop paths (B-tree equality, R-tree spatial)
// through an enrichment plan under a zipf(1.0)-skewed probe-key workload —
// the regime the memo is built for: a handful of hot keys absorb most probes.
// For each path the same probe sequence runs with the cache off and on; the
// gate requires (a) bit-identical enrichment results and (b) at least a 2x
// per-probe speedup with the cache. Emits BENCH_probe_cache.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "adm/json.h"
#include "adm/serde.h"
#include "common/rng.h"
#include "common/virtual_clock.h"
#include "sqlpp/enrichment_plan.h"
#include "sqlpp/parser.h"
#include "storage/catalog.h"

namespace {

using namespace idea;
using adm::Value;

constexpr size_t kKeys = 512;        // probe-key domain
constexpr size_t kRowsPerKey = 24;   // reference rows behind each key
constexpr int kProbes = 4000;
constexpr int kReps = 3;

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, s.ToString().c_str());
    std::exit(2);
  }
}

/// Zipf(s=1.0) sampler over [0, n): P(k) ~ 1/(k+1). Inverse-CDF over a
/// precomputed cumulative table (the repo has no zipf generator; this one is
/// deterministic via common/rng.h).
class Zipf {
 public:
  explicit Zipf(size_t n, uint64_t seed) : rng_(seed), cdf_(n) {
    double sum = 0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / static_cast<double>(k + 1);
      cdf_[k] = sum;
    }
    for (size_t k = 0; k < n; ++k) cdf_[k] /= sum;
  }

  size_t Next() {
    double u = rng_.NextDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

class EmptyResolver : public sqlpp::FunctionResolver {
 public:
  const sqlpp::SqlppFunctionDef* FindSqlppFunction(const std::string&) const override {
    return nullptr;
  }
  sqlpp::NativeFunctionHandle* FindNativeFunction(const std::string&) const override {
    return nullptr;
  }
};

std::shared_ptr<const sqlpp::SqlppFunctionDef> ParseFn(const std::string& ddl) {
  auto s = sqlpp::ParseStatement(ddl);
  Check(s.status(), "parse function");
  auto def = std::make_shared<sqlpp::SqlppFunctionDef>();
  def->name = s->create_function.name;
  def->params = s->create_function.params;
  def->body = std::shared_ptr<const sqlpp::SelectStatement>(
      std::move(s->create_function.body));
  return def;
}

void ApplyDdl(storage::Catalog* catalog, const std::string& script) {
  auto stmts = sqlpp::ParseScript(script);
  Check(stmts.status(), "parse ddl");
  for (const auto& stmt : *stmts) {
    if (stmt.kind == sqlpp::StatementKind::kCreateType) {
      std::vector<adm::FieldSpec> fields;
      for (const auto& f : stmt.create_type.fields) {
        fields.push_back({f.name, *adm::FieldTypeFromName(f.type_name), f.optional});
      }
      (void)catalog->CreateDatatype(adm::Datatype(stmt.create_type.name, fields));
    } else if (stmt.kind == sqlpp::StatementKind::kCreateDataset) {
      (void)catalog->CreateDataset(stmt.create_dataset.name,
                                   stmt.create_dataset.type_name,
                                   stmt.create_dataset.primary_key);
    } else if (stmt.kind == sqlpp::StatementKind::kCreateIndex) {
      auto ds = catalog->FindDataset(stmt.create_index.dataset);
      (void)ds->CreateIndex(stmt.create_index.name, stmt.create_index.field,
                            stmt.create_index.index_type);
    }
  }
}

/// One benchmark section: probe `probes` through fresh cache-off / cache-on
/// plans, assert bit-identical outputs, return {live_us, cached_us}.
struct SectionResult {
  double live_us = 0;
  double cached_us = 0;
  uint64_t hits = 0;
  bool identical = true;
};

SectionResult RunSection(const std::shared_ptr<const sqlpp::SqlppFunctionDef>& def,
                         storage::CatalogAccessor* accessor,
                         const std::vector<Value>& probes) {
  EmptyResolver resolver;
  sqlpp::PlanConfig off;
  off.enable_probe_cache = false;
  auto live = sqlpp::EnrichmentPlan::Compile(def, accessor, &resolver, off);
  Check(live.status(), "compile live plan");
  auto cached = sqlpp::EnrichmentPlan::Compile(def, accessor, &resolver);
  Check(cached.status(), "compile cached plan");
  Check((*live)->Initialize(), "initialize live");
  Check((*cached)->Initialize(), "initialize cached");

  SectionResult res;
  // Correctness pass: every probe bit-identical between the two plans.
  for (const Value& p : probes) {
    auto a = (*live)->EnrichOne(p);
    auto b = (*cached)->EnrichOne(p);
    Check(a.status(), "live probe");
    Check(b.status(), "cached probe");
    if (adm::SerializeToBytes(*a) != adm::SerializeToBytes(*b)) {
      res.identical = false;
      std::fprintf(stderr, "MISMATCH\nlive:   %s\ncached: %s\n",
                   a->ToString().c_str(), b->ToString().c_str());
      break;
    }
  }

  // Timing passes (best-of-N thread CPU; caches stay warm across reps, which
  // is exactly the steady state the memo targets).
  double live_best = 1e30, cached_best = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    ThreadCpuTimer timer;
    timer.Start();
    for (const Value& p : probes) Check((*live)->EnrichOne(p).status(), "live probe");
    live_best = std::min(live_best, timer.ElapsedMicros());
    timer.Start();
    for (const Value& p : probes) Check((*cached)->EnrichOne(p).status(), "cached probe");
    cached_best = std::min(cached_best, timer.ElapsedMicros());
  }
  res.live_us = live_best;
  res.cached_us = cached_best;
  res.hits = (*cached)->stats().probe_cache_hits;
  return res;
}

}  // namespace

int main() {
  std::FILE* json = std::fopen("BENCH_probe_cache.json", "w");
  int failures = 0;
  Rng rng(11);

  auto report = [&](const char* name, const SectionResult& r) {
    double per_probe_live = r.live_us / kProbes;
    double per_probe_cached = r.cached_us / kProbes;
    double speedup = per_probe_live / per_probe_cached;
    std::printf("%-18s %12.2fus %12.2fus %8.2fx  hits=%llu\n", name, per_probe_live,
                per_probe_cached, speedup, static_cast<unsigned long long>(r.hits));
    if (json != nullptr) {
      std::fprintf(json,
                   "{\"series\":%s,\"probes\":%d,\"zipf_s\":1.0,"
                   "\"per_probe_live_us\":%.3f,\"per_probe_cached_us\":%.3f,"
                   "\"speedup\":%.3f,\"cache_hits\":%llu,\"identical\":%s}\n",
                   adm::JsonQuote(std::string("probe_cache/") + name).c_str(), kProbes,
                   per_probe_live, per_probe_cached, speedup,
                   static_cast<unsigned long long>(r.hits),
                   r.identical ? "true" : "false");
    }
    if (!r.identical) {
      std::fprintf(stderr, "FAIL %s: cached results not bit-identical\n", name);
      ++failures;
    }
    if (speedup < 2.0) {
      std::fprintf(stderr, "FAIL %s: per-probe speedup %.2fx < 2x\n", name, speedup);
      ++failures;
    }
  };

  std::printf("%-18s %14s %14s %9s\n", "path", "live/probe", "cached/probe", "speedup");

  {
    // B-tree equality nested loop.
    storage::Catalog catalog;
    storage::CatalogAccessor accessor(&catalog, false);
    ApplyDdl(&catalog, R"(
CREATE TYPE PcRefType AS OPEN { rid: int, k: int, payload: string };
CREATE DATASET PcRef(PcRefType) PRIMARY KEY rid;
CREATE INDEX pcRefK ON PcRef(k);
)");
    auto ds = catalog.FindDataset("PcRef");
    int rid = 0;
    for (size_t k = 0; k < kKeys; ++k) {
      for (size_t j = 0; j < kRowsPerKey; ++j) {
        adm::Fields f;
        f.emplace_back("rid", Value::MakeInt(rid++));
        f.emplace_back("k", Value::MakeInt(static_cast<int64_t>(k)));
        f.emplace_back("payload", Value::MakeString(rng.NextAlpha(96)));
        Check(ds->Upsert(Value::MakeObject(std::move(f))), "load ref row");
      }
    }
    auto def = ParseFn(R"(
CREATE FUNCTION pcProbe(t) {
  LET n = (SELECT count(r.rid) FROM PcRef r WHERE r.k = t.k)[0]
  SELECT t.*, n
};
)");
    Zipf zipf(kKeys, 99);
    std::vector<Value> probes;
    for (int i = 0; i < kProbes; ++i) {
      adm::Fields f;
      f.emplace_back("id", Value::MakeInt(i));
      f.emplace_back("k", Value::MakeInt(static_cast<int64_t>(zipf.Next())));
      probes.push_back(Value::MakeObject(std::move(f)));
    }
    report("btree-eq", RunSection(def, &accessor, probes));
  }

  {
    // R-tree spatial nested loop: zipf over a fixed set of hot locations.
    storage::Catalog catalog;
    storage::CatalogAccessor accessor(&catalog, false);
    ApplyDdl(&catalog, R"(
CREATE TYPE PcMonType AS OPEN { mid: int, loc: point, name: string };
CREATE DATASET PcMonuments(PcMonType) PRIMARY KEY mid;
CREATE INDEX pcMonLoc ON PcMonuments(loc) TYPE RTREE;
)");
    // Hot sites with clusters of heavy monuments around them: each live probe
    // pays the R-tree descent plus a deep copy of every candidate record,
    // while a memo hit hands back pointers. The payload size is what the
    // cache saves; the residual spatial filter costs both paths the same.
    constexpr size_t kSites = 128;
    constexpr int kPerSite = 4;
    std::vector<adm::Point> sites;
    for (size_t k = 0; k < kSites; ++k) {
      sites.push_back({rng.NextDouble() * 120 - 60, rng.NextDouble() * 120 - 60});
    }
    auto ds = catalog.FindDataset("PcMonuments");
    int mid = 0;
    for (const adm::Point& s : sites) {
      for (int j = 0; j < kPerSite; ++j) {
        adm::Fields f;
        f.emplace_back("mid", Value::MakeInt(mid++));
        f.emplace_back("loc", Value::MakePoint({s.x + rng.NextDouble() * 0.6 - 0.3,
                                                s.y + rng.NextDouble() * 0.6 - 0.3}));
        f.emplace_back("name", Value::MakeString(rng.NextAlpha(64)));
        // Wide records: a live probe deep-copies every field of every
        // candidate; the residual filter only ever reads `loc`.
        for (int p = 0; p < 32; ++p) {
          std::string name = "p";
          name += std::to_string(p);
          f.emplace_back(std::move(name), Value::MakeString(rng.NextAlpha(64)));
        }
        Check(ds->Upsert(Value::MakeObject(std::move(f))), "load monument");
      }
    }
    for (int m = 0; m < 4000; ++m) {
      adm::Fields f;
      f.emplace_back("mid", Value::MakeInt(mid++));
      f.emplace_back("loc", Value::MakePoint({rng.NextDouble() * 120 - 60,
                                              rng.NextDouble() * 120 - 60}));
      f.emplace_back("name", Value::MakeString(rng.NextAlpha(160)));
      Check(ds->Upsert(Value::MakeObject(std::move(f))), "load monument");
    }
    auto def = ParseFn(R"(
CREATE FUNCTION pcNearby(t) {
  LET nearby = (SELECT VALUE m.mid
                FROM PcMonuments m
                WHERE spatial_intersect(
                        m.loc,
                        create_circle(create_point(t.latitude, t.longitude), 0.5)))
  SELECT t.*, nearby
};
)");
    // Probe locations drawn zipf-skewed from the hot-site list.
    Zipf zipf(kSites, 101);
    std::vector<Value> probes;
    for (int i = 0; i < kProbes; ++i) {
      const adm::Point& s = sites[zipf.Next()];
      adm::Fields f;
      f.emplace_back("id", Value::MakeInt(i));
      f.emplace_back("latitude", Value::MakeDouble(s.x));
      f.emplace_back("longitude", Value::MakeDouble(s.y));
      probes.push_back(Value::MakeObject(std::move(f)));
    }
    report("rtree-spatial", RunSection(def, &accessor, probes));
  }

  if (json != nullptr) {
    std::fclose(json);
    std::printf("\nwrote BENCH_probe_cache.json\n");
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d probe_cache gate failure(s)\n", failures);
    return 1;
  }
  std::printf("probe_cache gate OK: bit-identical and >=2x per-probe on both paths\n");
  return 0;
}
