// The paper's enrichment use cases (§7.2 cases 1-5, §7.4.2 cases 6-8), each
// carrying its appendix DDL, its CREATE FUNCTION statement (Figures 32-40),
// the matching native-UDF name, and its reference-data loader.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"
#include "workload/reference_data.h"

namespace idea::workload {

enum class UseCaseId : uint8_t {
  kSafetyRating = 0,
  kReligiousPopulation,
  kLargestReligions,
  kFuzzySuspects,
  kNearbyMonuments,
  kSuspiciousNames,
  kTweetContext,
  kWorrisomeTweets,
};

struct UseCaseSpec {
  UseCaseId id;
  std::string name;          // "Safety Rating", ...
  std::string ddl;           // CREATE TYPE / DATASET / INDEX statements
  std::string function_ddl;  // CREATE FUNCTION ... (appendix text)
  std::string function_name;
  std::string native_udf;    // "testlib#..." Java analog; "" when none
  std::vector<std::string> datasets;  // reference datasets it consults
};

const std::vector<UseCaseSpec>& AllUseCases();
const UseCaseSpec& GetUseCase(UseCaseId id);

/// DDL for the tweet source/sink datasets (Figure 1, extended with the
/// fields the UDFs touch).
std::string TweetDdl();

/// Figure 8's SensitiveWords UDF (tweetSafetyCheck) and Figure 18's
/// nested-subquery UDF (highRiskTweetCheck) — used by examples and tests.
std::string SensitiveWordsDdl();
std::string TweetSafetyCheckFunctionDdl();
std::string HighRiskTweetCheckFunctionDdl();

/// The hinted "Naive Nearby Monuments" variant (§7.4.2): same join, R-tree
/// use suppressed via /*+ skip-index */.
std::string NaiveNearbyMonumentsFunctionDdl();

/// Loads the reference data a use case consults into already-created
/// datasets (bulk upserts). `country_domain` must match the tweet workload.
Status LoadUseCaseData(storage::Catalog* catalog, const UseCaseSpec& use_case,
                       const RefSizes& sizes, size_t country_domain, uint64_t seed);

/// Loads one named reference dataset (helper for custom setups).
Status LoadReferenceDataset(storage::Catalog* catalog, const std::string& dataset,
                            const RefSizes& sizes, size_t country_domain, uint64_t seed);

}  // namespace idea::workload
