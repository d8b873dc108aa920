#include <gtest/gtest.h>

#include "adm/json.h"
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

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() : accessor_(&catalog_, /*cache=*/false) {}

  void SetupUseCase(const workload::UseCaseSpec& uc) {
    auto stmts = ParseScript(uc.ddl);
    ASSERT_TRUE(stmts.ok());
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
                                       stmt.create_dataset.primary_key)
                        .ok());
      } else if (stmt.kind == StatementKind::kCreateIndex) {
        auto ds = catalog_.FindDataset(stmt.create_index.dataset);
        ASSERT_NE(ds, nullptr);
        ASSERT_TRUE(ds->CreateIndex(stmt.create_index.name, stmt.create_index.field,
                                    stmt.create_index.index_type)
                        .ok());
      }
    }
    workload::RefSizes sizes = workload::SimulatorScaleSizes().Scaled(0.2);
    ASSERT_TRUE(workload::LoadUseCaseData(&catalog_, uc, sizes, 200, 1).ok());
  }

  storage::Catalog catalog_;
  storage::CatalogAccessor accessor_;
  EmptyResolver resolver_;
};

TEST_F(PlanTest, AnalyzerClassifiesStatefulness) {
  auto stateless = ParseFn(
      "CREATE FUNCTION f(t) { LET x = CASE t.a = 1 WHEN true THEN 1 ELSE 0 END "
      "SELECT t.*, x };");
  FunctionAnalysis a = AnalyzeFunctionBody(*stateless->body, stateless->params);
  EXPECT_FALSE(a.stateful);
  EXPECT_TRUE(a.referenced_datasets.empty());

  auto stateful = ParseFn(workload::GetUseCase(workload::UseCaseId::kSafetyRating)
                              .function_ddl);
  a = AnalyzeFunctionBody(*stateful->body, stateful->params);
  EXPECT_TRUE(a.stateful);
  EXPECT_EQ(a.referenced_datasets.count("SafetyRatings"), 1u);
}

TEST_F(PlanTest, AnalyzerSeesNestedFunctionCalls) {
  auto def = ParseFn(workload::GetUseCase(workload::UseCaseId::kFuzzySuspects)
                         .function_ddl);
  FunctionAnalysis a = AnalyzeFunctionBody(*def->body, def->params);
  EXPECT_EQ(a.called_functions.count("testlib#removeSpecial"), 1u);
  EXPECT_EQ(a.called_functions.count("edit_distance"), 1u);
}

TEST_F(PlanTest, SafetyRatingGetsHashBuildProbe) {
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kSafetyRating);
  SetupUseCase(uc);
  auto plan = EnrichmentPlan::Compile(ParseFn(uc.function_ddl), &accessor_, &resolver_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ((*plan)->choices().size(), 1u);
  EXPECT_EQ((*plan)->choices()[0].kind, AccessPathKind::kHashBuildProbe);
  EXPECT_EQ((*plan)->choices()[0].dataset, "SafetyRatings");
  EXPECT_EQ((*plan)->choices()[0].ref_field, "country_code");
}

TEST_F(PlanTest, NearbyMonumentsGetsRtreeIndexNestedLoop) {
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kNearbyMonuments);
  SetupUseCase(uc);
  auto plan = EnrichmentPlan::Compile(ParseFn(uc.function_ddl), &accessor_, &resolver_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ((*plan)->choices().size(), 1u);
  EXPECT_EQ((*plan)->choices()[0].kind, AccessPathKind::kIndexNestedLoopSpatial);
}

TEST_F(PlanTest, SkipIndexHintForcesScan) {
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kNearbyMonuments);
  SetupUseCase(uc);
  auto plan = EnrichmentPlan::Compile(
      ParseFn(workload::NaiveNearbyMonumentsFunctionDdl()), &accessor_, &resolver_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ((*plan)->choices().size(), 1u);
  EXPECT_EQ((*plan)->choices()[0].kind, AccessPathKind::kScan);
}

TEST_F(PlanTest, FuzzySuspectsFallsBackToScan) {
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kFuzzySuspects);
  SetupUseCase(uc);
  auto plan = EnrichmentPlan::Compile(ParseFn(uc.function_ddl), &accessor_, &resolver_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ((*plan)->choices().size(), 1u);
  EXPECT_EQ((*plan)->choices()[0].kind, AccessPathKind::kScan);
}

TEST_F(PlanTest, TweetContextReordersAndPlansAllPaths) {
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kTweetContext);
  SetupUseCase(uc);
  auto plan = EnrichmentPlan::Compile(ParseFn(uc.function_ddl), &accessor_, &resolver_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Six FROM items across three subqueries; the district tables get spatial
  // index probes, AverageIncomes an equality path, Facilities/Persons
  // spatial probes (after join reordering put districts first).
  ASSERT_EQ((*plan)->choices().size(), 6u);
  size_t spatial = 0, eq = 0, scan = 0;
  for (const auto& c : (*plan)->choices()) {
    switch (c.kind) {
      case AccessPathKind::kIndexNestedLoopSpatial:
        ++spatial;
        break;
      case AccessPathKind::kHashBuildProbe:
      case AccessPathKind::kIndexNestedLoopEq:
        ++eq;
        break;
      default:
        ++scan;
    }
  }
  EXPECT_EQ(spatial, 5u) << (*plan)->Explain();
  EXPECT_EQ(eq, 1u) << (*plan)->Explain();
  EXPECT_EQ(scan, 0u) << (*plan)->Explain();
}

TEST_F(PlanTest, EnrichmentMatchesNaivePlanAcrossUseCases) {
  // Property: for every use case, the optimized plan and a forced-scan plan
  // produce identical enrichment results.
  for (auto id : {workload::UseCaseId::kSafetyRating, workload::UseCaseId::kNearbyMonuments,
                  workload::UseCaseId::kWorrisomeTweets}) {
    const auto& uc = workload::GetUseCase(id);
    storage::Catalog catalog;
    storage::CatalogAccessor accessor(&catalog, false);
    {
      // Local setup against this catalog.
      auto stmts = ParseScript(uc.ddl);
      ASSERT_TRUE(stmts.ok());
      for (const auto& stmt : *stmts) {
        if (stmt.kind == StatementKind::kCreateType) {
          std::vector<adm::FieldSpec> fields;
          for (const auto& f : stmt.create_type.fields) {
            fields.push_back({f.name, *adm::FieldTypeFromName(f.type_name), f.optional});
          }
          (void)catalog.CreateDatatype(adm::Datatype(stmt.create_type.name, fields));
        } else if (stmt.kind == StatementKind::kCreateDataset) {
          ASSERT_TRUE(catalog
                          .CreateDataset(stmt.create_dataset.name,
                                         stmt.create_dataset.type_name,
                                         stmt.create_dataset.primary_key)
                          .ok());
        } else if (stmt.kind == StatementKind::kCreateIndex) {
          auto ds = catalog.FindDataset(stmt.create_index.dataset);
          ASSERT_TRUE(ds->CreateIndex(stmt.create_index.name, stmt.create_index.field,
                                      stmt.create_index.index_type)
                          .ok());
        }
      }
      workload::RefSizes sizes = workload::SimulatorScaleSizes().Scaled(0.1);
      ASSERT_TRUE(workload::LoadUseCaseData(&catalog, uc, sizes, 100, 3).ok());
    }
    EmptyResolver resolver;
    auto def = ParseFn(uc.function_ddl);
    auto fast = EnrichmentPlan::Compile(def, &accessor, &resolver);
    ASSERT_TRUE(fast.ok());
    PlanConfig naive_config;
    naive_config.prefer_index = false;  // hash still allowed; compare vs full scan
    // Build a fully naive def by hinting every FROM item via config:
    // simplest: a second plan with prefer_index=false exercises hash/scan.
    auto slow = EnrichmentPlan::Compile(def, &accessor, &resolver, naive_config);
    ASSERT_TRUE(slow.ok());
    ASSERT_TRUE((*fast)->Initialize().ok());
    ASSERT_TRUE((*slow)->Initialize().ok());

    workload::TweetGenerator gen({.seed = 77, .country_domain = 100});
    for (int i = 0; i < 40; ++i) {
      Value tweet = gen.NextValue();
      // Coerce created_at for the Worrisome Tweets datetime comparison.
      adm::Datatype tweet_type(
          "T", {{"created_at", adm::FieldType::kDateTime, false}});
      ASSERT_TRUE(tweet_type.ValidateAndCoerce(&tweet).ok());
      auto a = (*fast)->EnrichOne(tweet);
      auto b = (*slow)->EnrichOne(tweet);
      ASSERT_TRUE(a.ok()) << uc.name << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << uc.name << ": " << b.status().ToString();
      EXPECT_EQ(*a, *b) << uc.name << "\nfast: " << a->ToString()
                        << "\nslow: " << b->ToString();
    }
  }
}

TEST_F(PlanTest, RefreshSeesUpdatesOnlyAfterInitialize) {
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kSafetyRating);
  SetupUseCase(uc);
  auto plan = EnrichmentPlan::Compile(ParseFn(uc.function_ddl), &accessor_, &resolver_);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE((*plan)->Initialize().ok());

  Value tweet = adm::ParseJson(R"({"id": 1, "text": "x", "country": "C00000"})").value();
  auto before = (*plan)->EnrichOne(tweet);
  ASSERT_TRUE(before.ok());
  std::string old_rating =
      before->GetField("safety_rating")->AsArray()[0].AsString();

  // Update the referenced record (the paper's UPSERT refresh scenario).
  auto ds = catalog_.FindDataset("SafetyRatings");
  ASSERT_TRUE(ds->Upsert(adm::ParseJson(
                             R"({"country_code": "C00000", "safety_rating": "CHANGED"})")
                             .value())
                  .ok());

  // Same invocation (no re-init): still the stale intermediate state.
  auto stale = (*plan)->EnrichOne(tweet);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->GetField("safety_rating")->AsArray()[0].AsString(), old_rating);

  // Next computing job re-initializes: update becomes visible.
  ASSERT_TRUE((*plan)->Initialize().ok());
  auto fresh = (*plan)->EnrichOne(tweet);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->GetField("safety_rating")->AsArray()[0].AsString(), "CHANGED");
  EXPECT_EQ((*plan)->stats().initializations, 2u);
}

TEST_F(PlanTest, IndexProbeSeesLiveUpdatesMidJob) {
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kNearbyMonuments);
  SetupUseCase(uc);
  auto plan = EnrichmentPlan::Compile(ParseFn(uc.function_ddl), &accessor_, &resolver_);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE((*plan)->Initialize().ok());

  Value tweet = adm::ParseJson(
                    R"({"id": 1, "text": "x", "latitude": 45.0, "longitude": 45.0})")
                    .value();
  auto before = (*plan)->EnrichOne(tweet);
  ASSERT_TRUE(before.ok());
  size_t n_before = before->GetField("nearby_monuments")->AsArray().size();

  // Drop a monument exactly at the tweet location *without* re-initializing:
  // the live R-tree probe must see it (paper §7.3's index-join behaviour).
  auto ds = catalog_.FindDataset("monumentList");
  Value monument = adm::ParseJson(R"({"monument_id": "LIVE1"})").value();
  monument.SetField("monument_location", Value::MakePoint({45.0, 45.0}));
  ASSERT_TRUE(ds->Upsert(monument).ok());

  auto after = (*plan)->EnrichOne(tweet);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->GetField("nearby_monuments")->AsArray().size(), n_before + 1);
}

TEST_F(PlanTest, BtreeIndexPathSkipsItsEqualityConjunctBitIdentically) {
  // The B-tree probe selects candidates by Value::Compare equality, the `=`
  // conjunct's own semantics, so the index path treats that conjunct as
  // satisfied. Mixed numeric types, a string key, unknown keys on both sides
  // and a second conjunct over a sometimes-missing field must come out
  // exactly as a full scan that evaluates the conjunct per candidate.
  ASSERT_TRUE(catalog_.CreateDatatype(adm::Datatype(
                  "KRefType", {{"rid", adm::FieldType::kInt64, false}})).ok());
  ASSERT_TRUE(catalog_.CreateDataset("KRef", "KRefType", "rid").ok());
  auto ds = catalog_.FindDataset("KRef");
  ASSERT_TRUE(ds->CreateIndex("kRefK", "k", "btree").ok());
  const char* const kRows[] = {
      R"({"rid": 0, "k": 1, "v": 3})",      R"({"rid": 1, "k": 1.0, "v": 0})",
      R"({"rid": 2, "k": 1, "v": -2})",     R"({"rid": 3, "k": 1})",
      R"({"rid": 4, "k": "1", "v": 5})",    R"({"rid": 5, "k": null, "v": 1})",
      R"({"rid": 6, "v": 1})",              R"({"rid": 7, "k": 2.5, "v": 9})",
      R"({"rid": 8, "k": 2, "v": 4})",      R"({"rid": 9, "k": 1, "v": 7})"};
  for (const char* row : kRows) {
    ASSERT_TRUE(ds->Upsert(adm::ParseJson(row).value()).ok()) << row;
  }

  const std::string body = R"(
  LET hits = (SELECT VALUE r.rid FROM KRef %s r
              WHERE r.k = t.k AND r.v >= 0 ORDER BY r.rid)
  SELECT t.*, hits
};
)";
  auto make_def = [&](const std::string& name, const std::string& hint) {
    std::string ddl = "CREATE FUNCTION " + name + "(t) {" + body;
    ddl.replace(ddl.find("%s"), 2, hint);
    return ParseFn(ddl);
  };
  auto indexed = EnrichmentPlan::Compile(make_def("kProbe", ""), &accessor_, &resolver_);
  auto scanned = EnrichmentPlan::Compile(make_def("kProbeScan", "/*+ skip-index */"),
                                         &accessor_, &resolver_);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_EQ((*indexed)->choices()[0].kind, AccessPathKind::kIndexNestedLoopEq);
  ASSERT_EQ((*scanned)->choices()[0].kind, AccessPathKind::kScan);
  ASSERT_TRUE((*indexed)->Initialize().ok());
  ASSERT_TRUE((*scanned)->Initialize().ok());

  const char* const kProbes[] = {R"({"id": 0, "k": 1})",   R"({"id": 1, "k": 1.0})",
                                 R"({"id": 2, "k": "1"})", R"({"id": 3, "k": 2.5})",
                                 R"({"id": 4, "k": 2.0})", R"({"id": 5, "k": null})",
                                 R"({"id": 6})",           R"({"id": 7, "k": 3})"};
  // Twice over: the second pass is served from the probe memo.
  for (int pass = 0; pass < 2; ++pass) {
    for (const char* probe : kProbes) {
      Value t = adm::ParseJson(probe).value();
      auto a = (*indexed)->EnrichOne(t);
      auto b = (*scanned)->EnrichOne(t);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(a->ToString(), b->ToString()) << probe;
    }
  }
  auto one = (*indexed)->EnrichOne(adm::ParseJson(R"({"id": 0, "k": 1})").value());
  ASSERT_TRUE(one.ok());
  const adm::Array& hits = one->GetField("hits")->AsArray();
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].AsInt(), 0);
  EXPECT_EQ(hits[1].AsInt(), 1);
  EXPECT_EQ(hits[2].AsInt(), 9);
  EXPECT_GT((*indexed)->stats().probe_cache_hits, 0u);
}

TEST_F(PlanTest, EnrichBeforeInitializeFails) {
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kSafetyRating);
  SetupUseCase(uc);
  auto plan = EnrichmentPlan::Compile(ParseFn(uc.function_ddl), &accessor_, &resolver_);
  ASSERT_TRUE(plan.ok());
  Value tweet = adm::ParseJson(R"({"id": 1})").value();
  EXPECT_FALSE((*plan)->EnrichOne(tweet).ok());
}

}  // namespace
}  // namespace idea::sqlpp
