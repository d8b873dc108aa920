// Evaluation through one long-lived plan vs a fresh plan per record:
// EnrichBatch over a batch (the evaluator's pooled scratch and streaming-
// aggregate fast path reused across records) must be bit-identical to a
// fresh plan driven record-at-a-time — across the full §7.2 and §7.4.2 UDF
// suites.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "adm/datatype.h"
#include "adm/serde.h"
#include "feed/udf.h"
#include "sqlpp/enrichment_plan.h"
#include "sqlpp/parser.h"
#include "storage/catalog.h"
#include "workload/native_udfs.h"
#include "workload/reference_data.h"
#include "workload/tweets.h"
#include "workload/usecases.h"

namespace idea::sqlpp {
namespace {

using adm::Value;

class BatchEquivalenceTest : public ::testing::Test {
 protected:
  BatchEquivalenceTest() : accessor_(&catalog_, /*cache=*/false) {
    std::string dir = "/tmp/idea_batch_eq_resources";
    (void)::system(("mkdir -p " + dir).c_str());
    sizes_ = workload::SimulatorScaleSizes().Scaled(0.1);
    ASSERT_OK(workload::WriteNativeResources(dir, sizes_, kCountryDomain, 7));
    ASSERT_OK(workload::RegisterNativeUdfs(&udfs_, dir));
  }

  static void ASSERT_OK(const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); }

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
        (void)catalog_.CreateDataset(stmt.create_dataset.name,
                                     stmt.create_dataset.type_name,
                                     stmt.create_dataset.primary_key);
      } else if (stmt.kind == StatementKind::kCreateIndex) {
        auto ds = catalog_.FindDataset(stmt.create_index.dataset);
        ASSERT_NE(ds, nullptr);
        // Idempotent across use cases that share a dataset.
        (void)ds->CreateIndex(stmt.create_index.name, stmt.create_index.field,
                              stmt.create_index.index_type);
      }
    }
    ASSERT_OK(workload::LoadUseCaseData(&catalog_, uc, sizes_, kCountryDomain, 7));
  }

  std::shared_ptr<const SqlppFunctionDef> ParseFn(const std::string& ddl) {
    auto s = ParseStatement(ddl);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    auto def = std::make_shared<SqlppFunctionDef>();
    def->name = s->create_function.name;
    def->params = s->create_function.params;
    def->body =
        std::shared_ptr<const SelectStatement>(std::move(s->create_function.body));
    return def;
  }

  static constexpr size_t kCountryDomain = 100;
  workload::RefSizes sizes_;
  storage::Catalog catalog_;
  storage::CatalogAccessor accessor_;
  feed::UdfRegistry udfs_;
};

TEST_F(BatchEquivalenceTest, BatchMatchesScalarAcrossUdfSuite) {
  // §7.2 cases 1-5 plus §7.4.2 cases 6-8 (Nearby Monuments is in both).
  for (auto id :
       {workload::UseCaseId::kSafetyRating, workload::UseCaseId::kReligiousPopulation,
        workload::UseCaseId::kLargestReligions, workload::UseCaseId::kFuzzySuspects,
        workload::UseCaseId::kNearbyMonuments, workload::UseCaseId::kSuspiciousNames,
        workload::UseCaseId::kTweetContext, workload::UseCaseId::kWorrisomeTweets}) {
    const auto& uc = workload::GetUseCase(id);
    SetupUseCase(uc);
    auto def = ParseFn(uc.function_ddl);
    auto batched = EnrichmentPlan::Compile(def, &accessor_, &udfs_);
    ASSERT_TRUE(batched.ok()) << uc.name << ": " << batched.status().ToString();
    auto scalar = EnrichmentPlan::Compile(def, &accessor_, &udfs_);
    ASSERT_TRUE(scalar.ok());
    ASSERT_OK((*batched)->Initialize());
    ASSERT_OK((*scalar)->Initialize());

    workload::TweetGenerator gen({.seed = 31, .country_domain = kCountryDomain});
    std::vector<Value> batch;
    adm::Datatype tweet_type("T", {{"created_at", adm::FieldType::kDateTime, false}});
    for (int i = 0; i < 60; ++i) {
      Value tweet = gen.NextValue();
      ASSERT_OK(tweet_type.ValidateAndCoerce(&tweet));
      batch.push_back(std::move(tweet));
    }

    adm::Array batch_out;
    ASSERT_OK((*batched)->EnrichBatch(batch, &batch_out));
    ASSERT_EQ(batch_out.size(), batch.size());

    for (size_t i = 0; i < batch.size(); ++i) {
      auto one = (*scalar)->EnrichOne(batch[i]);
      ASSERT_TRUE(one.ok()) << uc.name << ": " << one.status().ToString();
      // Bit-identical: compare the canonical serializations, which encode
      // type tags, field order, and every payload byte.
      EXPECT_EQ(adm::SerializeToBytes(batch_out[i]), adm::SerializeToBytes(*one))
          << uc.name << " record " << i << "\nbatch:  " << batch_out[i].ToString()
          << "\nscalar: " << one->ToString();
    }
  }
}

TEST_F(BatchEquivalenceTest, RepeatedBatchesThroughOnePlanDoNotDrift) {
  // Re-running batches through one plan (its pooled scratch reused between
  // batches) keeps producing the same bytes as the first pass.
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kReligiousPopulation);
  SetupUseCase(uc);
  auto plan = EnrichmentPlan::Compile(ParseFn(uc.function_ddl), &accessor_, &udfs_);
  ASSERT_TRUE(plan.ok());
  ASSERT_OK((*plan)->Initialize());

  workload::TweetGenerator gen({.seed = 5, .country_domain = kCountryDomain});
  std::vector<Value> batch;
  for (int i = 0; i < 32; ++i) batch.push_back(gen.NextValue());

  adm::Array first;
  ASSERT_OK((*plan)->EnrichBatch(batch, &first));
  for (int round = 0; round < 3; ++round) {
    adm::Array again;
    ASSERT_OK((*plan)->EnrichBatch(batch, &again));
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(adm::SerializeToBytes(again[i]), adm::SerializeToBytes(first[i]));
    }
  }
}

}  // namespace
}  // namespace idea::sqlpp
