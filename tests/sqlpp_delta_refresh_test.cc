// Property tests for incremental intermediate-state maintenance: a plan that
// refreshes its cached hash builds / snapshots from the reference dataset's
// mutation delta must enrich bit-identically to a plan that rebuilds from
// scratch every invocation — across random upsert/delete churn, the no-change
// steady state, and the changelog-wrap fall-back.
#include <gtest/gtest.h>

#include "adm/json.h"
#include "common/rng.h"
#include "sqlpp/enrichment_plan.h"
#include "sqlpp/parser.h"
#include "storage/catalog.h"
#include "workload/reference_data.h"
#include "workload/tweets.h"
#include "workload/usecases.h"

namespace idea::sqlpp {
namespace {

using adm::Value;

class EmptyResolver : public FunctionResolver {
 public:
  const SqlppFunctionDef* FindSqlppFunction(const std::string&) const override {
    return nullptr;
  }
  NativeFunctionHandle* FindNativeFunction(const std::string&) const override {
    return nullptr;
  }
};

std::shared_ptr<const SqlppFunctionDef> ParseFn(const std::string& ddl) {
  auto s = ParseStatement(ddl);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  auto def = std::make_shared<SqlppFunctionDef>();
  def->name = s->create_function.name;
  def->params = s->create_function.params;
  def->body = std::shared_ptr<const SelectStatement>(std::move(s->create_function.body));
  return def;
}

class DeltaRefreshTest : public ::testing::Test {
 protected:
  DeltaRefreshTest() : accessor_(&catalog_, /*cache_snapshots=*/true) {}

  /// Creates the use case's types/datasets/indexes with the given changelog
  /// ring capacity, then loads the (downscaled) reference data.
  void Setup(const workload::UseCaseSpec& uc, size_t changelog_capacity) {
    auto stmts = ParseScript(uc.ddl);
    ASSERT_TRUE(stmts.ok());
    storage::DatasetOptions options;
    options.changelog_capacity = changelog_capacity;
    for (const auto& stmt : *stmts) {
      if (stmt.kind == StatementKind::kCreateType) {
        std::vector<adm::FieldSpec> fields;
        for (const auto& f : stmt.create_type.fields) {
          auto ft = adm::FieldTypeFromName(f.type_name);
          ASSERT_TRUE(ft.ok());
          fields.push_back({f.name, *ft, f.optional});
        }
        (void)catalog_.CreateDatatype(adm::Datatype(stmt.create_type.name, fields));
      } else if (stmt.kind == StatementKind::kCreateDataset) {
        ASSERT_TRUE(catalog_
                        .CreateDataset(stmt.create_dataset.name,
                                       stmt.create_dataset.type_name,
                                       stmt.create_dataset.primary_key, options)
                        .ok());
      } else if (stmt.kind == StatementKind::kCreateIndex) {
        auto ds = catalog_.FindDataset(stmt.create_index.dataset);
        ASSERT_NE(ds, nullptr);
        ASSERT_TRUE(ds->CreateIndex(stmt.create_index.name, stmt.create_index.field,
                                    stmt.create_index.index_type)
                        .ok());
      }
    }
    workload::RefSizes sizes = workload::SimulatorScaleSizes().Scaled(0.1);
    ASSERT_TRUE(workload::LoadUseCaseData(&catalog_, uc, sizes, 100, 1).ok());
  }

  /// One round of random churn: upserts of fresh records plus deletes of
  /// random existing keys against `dataset` (pk values from the shared
  /// country-code / monument-id domains via GenUpdateFor).
  void Churn(const std::string& dataset, size_t n_existing, size_t upserts,
             size_t deletes, Rng* rng) {
    auto ds = catalog_.FindDataset(dataset);
    ASSERT_NE(ds, nullptr);
    for (size_t i = 0; i < upserts; ++i) {
      Value rec = workload::GenUpdateFor(dataset, n_existing, 500, rng->Next() % 100000);
      ASSERT_TRUE(ds->Upsert(std::move(rec)).ok());
    }
    for (size_t i = 0; i < deletes; ++i) {
      Value victim = workload::GenUpdateFor(dataset, n_existing, 500, rng->Next() % 100000);
      const Value* pk = victim.GetField(ds->primary_key());
      ASSERT_NE(pk, nullptr);
      (void)ds->Delete(*pk);  // NotFound for already-deleted keys is fine
    }
  }

  /// Initializes both plans in a fresh epoch and asserts they enrich the same
  /// tweet batch identically.
  void CheckBatch(EnrichmentPlan* delta_plan, EnrichmentPlan* full_plan,
                  workload::TweetGenerator* gen, size_t batch) {
    accessor_.BeginEpoch();
    ASSERT_TRUE(delta_plan->Initialize().ok());
    ASSERT_TRUE(full_plan->Initialize().ok());
    for (size_t i = 0; i < batch; ++i) {
      Value tweet = gen->NextValue();
      auto a = delta_plan->EnrichOne(tweet);
      auto b = full_plan->EnrichOne(tweet);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_EQ(*a, *b) << "delta: " << a->ToString() << "\nfull:  " << b->ToString();
    }
  }

  storage::Catalog catalog_;
  storage::CatalogAccessor accessor_;
  EmptyResolver resolver_;
};

TEST_F(DeltaRefreshTest, HashPathMatchesFullRebuildUnderRandomChurn) {
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kSafetyRating);
  Setup(uc, /*changelog_capacity=*/8192);
  auto def = ParseFn(uc.function_ddl);
  PlanConfig delta_cfg;  // delta refresh on (default)
  PlanConfig full_cfg;
  full_cfg.enable_delta_refresh = false;
  auto delta_plan = EnrichmentPlan::Compile(def, &accessor_, &resolver_, delta_cfg);
  auto full_plan = EnrichmentPlan::Compile(def, &accessor_, &resolver_, full_cfg);
  ASSERT_TRUE(delta_plan.ok());
  ASSERT_TRUE(full_plan.ok());
  ASSERT_EQ((*delta_plan)->choices()[0].kind, AccessPathKind::kHashBuildProbe);

  size_t n = workload::SimulatorScaleSizes().Scaled(0.1).safety_ratings;
  Rng rng(0xD31AD31A);
  workload::TweetGenerator gen({.seed = 99, .country_domain = 500});
  CheckBatch(delta_plan->get(), full_plan->get(), &gen, 24);  // first = full build
  for (int round = 0; round < 8; ++round) {
    Churn("SafetyRatings", n, /*upserts=*/20, /*deletes=*/6, &rng);
    CheckBatch(delta_plan->get(), full_plan->get(), &gen, 24);
  }
  const PlanStats& ds = (*delta_plan)->stats();
  EXPECT_GE(ds.delta_refreshes, 1u) << "churn rounds never took the delta path";
  EXPECT_GT(ds.delta_records_applied, 0u);
  // The control plan must rebuild every single time.
  EXPECT_EQ((*full_plan)->stats().full_rebuilds, (*full_plan)->stats().initializations);
  EXPECT_EQ((*full_plan)->stats().delta_refreshes, 0u);

  // Steady state: nothing changed since the last refresh -> no-op.
  uint64_t noops_before = ds.noop_refreshes;
  CheckBatch(delta_plan->get(), full_plan->get(), &gen, 8);
  EXPECT_EQ(ds.last_refresh, RefreshKind::kNoop);
  EXPECT_EQ(ds.noop_refreshes, noops_before + 1);
}

TEST_F(DeltaRefreshTest, MultiMatchHashPathMatchesFullRebuildUnderRandomChurn) {
  // ReligiousPopulations joins on country_name, not on its primary key rid:
  // one key holds several records, and an upsert can move a record to another
  // country. With no ORDER BY, the result lists a country's rids in the order
  // the plan holds them, so a delta-applied build must keep the full build's
  // order within every key.
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kLargestReligions);
  Setup(uc, /*changelog_capacity=*/8192);
  auto def = ParseFn(R"(
CREATE FUNCTION countryRids(t) {
  LET rids = (SELECT VALUE r.rid FROM ReligiousPopulations r
              WHERE r.country_name = t.country)
  SELECT t.*, rids
};
)");
  PlanConfig full_cfg;
  full_cfg.enable_delta_refresh = false;
  auto delta_plan = EnrichmentPlan::Compile(def, &accessor_, &resolver_);
  auto full_plan = EnrichmentPlan::Compile(def, &accessor_, &resolver_, full_cfg);
  ASSERT_TRUE(delta_plan.ok());
  ASSERT_TRUE(full_plan.ok());
  ASSERT_EQ((*delta_plan)->choices()[0].kind, AccessPathKind::kHashBuildProbe);

  size_t n = workload::SimulatorScaleSizes().Scaled(0.1).religious_populations;
  Rng rng(0x4E11C10);
  // The reference data spans 100 countries; so do the tweets, so every probe
  // returns a group.
  workload::TweetGenerator gen({.seed = 17, .country_domain = 100});
  CheckBatch(delta_plan->get(), full_plan->get(), &gen, 24);  // first = full build
  for (int round = 0; round < 8; ++round) {
    Churn("ReligiousPopulations", n, /*upserts=*/20, /*deletes=*/6, &rng);
    CheckBatch(delta_plan->get(), full_plan->get(), &gen, 24);
  }
  const PlanStats& ds = (*delta_plan)->stats();
  EXPECT_EQ(ds.delta_refreshes, 8u) << "a churn round left the delta path";
  EXPECT_GT(ds.delta_records_applied, 0u);
}

TEST_F(DeltaRefreshTest, ScanPathMatchesFullRebuildUnderRandomChurn) {
  // The naive (skip-index) Nearby Monuments plan scans its cached snapshot;
  // candidate order must match a rebuilt scan exactly.
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kNearbyMonuments);
  Setup(uc, /*changelog_capacity=*/8192);
  auto def = ParseFn(workload::NaiveNearbyMonumentsFunctionDdl());
  PlanConfig full_cfg;
  full_cfg.enable_delta_refresh = false;
  auto delta_plan = EnrichmentPlan::Compile(def, &accessor_, &resolver_);
  auto full_plan = EnrichmentPlan::Compile(def, &accessor_, &resolver_, full_cfg);
  ASSERT_TRUE(delta_plan.ok());
  ASSERT_TRUE(full_plan.ok());
  ASSERT_EQ((*delta_plan)->choices()[0].kind, AccessPathKind::kScan);

  size_t n = workload::SimulatorScaleSizes().Scaled(0.1).monuments;
  Rng rng(0x5CA40000);
  workload::TweetGenerator gen({.seed = 11, .country_domain = 500});
  CheckBatch(delta_plan->get(), full_plan->get(), &gen, 16);
  for (int round = 0; round < 6; ++round) {
    Churn("monumentList", n, /*upserts=*/16, /*deletes=*/5, &rng);
    CheckBatch(delta_plan->get(), full_plan->get(), &gen, 16);
  }
  EXPECT_GE((*delta_plan)->stats().delta_refreshes, 1u);
}

TEST_F(DeltaRefreshTest, ChangelogWrapFallsBackToFullRebuild) {
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kSafetyRating);
  Setup(uc, /*changelog_capacity=*/16);  // tiny ring: churn wraps it
  auto def = ParseFn(uc.function_ddl);
  auto delta_plan = EnrichmentPlan::Compile(def, &accessor_, &resolver_);
  PlanConfig full_cfg;
  full_cfg.enable_delta_refresh = false;
  auto full_plan = EnrichmentPlan::Compile(def, &accessor_, &resolver_, full_cfg);
  ASSERT_TRUE(delta_plan.ok());
  ASSERT_TRUE(full_plan.ok());

  size_t n = workload::SimulatorScaleSizes().Scaled(0.1).safety_ratings;
  Rng rng(0x44AA);
  workload::TweetGenerator gen({.seed = 5, .country_domain = 500});
  CheckBatch(delta_plan->get(), full_plan->get(), &gen, 16);

  // Far more changes than the ring holds: ScanDelta must report the wrap and
  // the plan must transparently rebuild, still matching the control plan.
  uint64_t fulls_before = (*delta_plan)->stats().full_rebuilds;
  Churn("SafetyRatings", n, /*upserts=*/64, /*deletes=*/0, &rng);
  CheckBatch(delta_plan->get(), full_plan->get(), &gen, 16);
  EXPECT_EQ((*delta_plan)->stats().full_rebuilds, fulls_before + 1);
  EXPECT_EQ((*delta_plan)->stats().last_refresh, RefreshKind::kFull);
  EXPECT_GE(catalog_.FindDataset("SafetyRatings")->stats().delta_wraps, 1u);

  // Small follow-up churn fits the ring again: back on the delta path.
  Churn("SafetyRatings", n, /*upserts=*/4, /*deletes=*/1, &rng);
  CheckBatch(delta_plan->get(), full_plan->get(), &gen, 16);
  EXPECT_EQ((*delta_plan)->stats().last_refresh, RefreshKind::kDelta);
}

TEST_F(DeltaRefreshTest, OversizedDeltaPrefersRebuild) {
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kSafetyRating);
  Setup(uc, /*changelog_capacity=*/1u << 20);  // ring never wraps here
  auto def = ParseFn(uc.function_ddl);
  PlanConfig cfg;
  cfg.max_delta_fraction = 0.0;  // floor of 64 changes still applies
  auto plan = EnrichmentPlan::Compile(def, &accessor_, &resolver_, cfg);
  ASSERT_TRUE(plan.ok());
  accessor_.BeginEpoch();
  ASSERT_TRUE((*plan)->Initialize().ok());

  size_t n = workload::SimulatorScaleSizes().Scaled(0.1).safety_ratings;
  Rng rng(0xBEEF);
  Churn("SafetyRatings", n, /*upserts=*/200, /*deletes=*/0, &rng);
  accessor_.BeginEpoch();
  ASSERT_TRUE((*plan)->Initialize().ok());
  EXPECT_EQ((*plan)->stats().last_refresh, RefreshKind::kFull);
  EXPECT_EQ((*plan)->stats().delta_refreshes, 0u);
}

}  // namespace
}  // namespace idea::sqlpp
