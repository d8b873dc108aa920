// Workload definitions, seeded inputs and the shared deployment (see
// workloads.h).
#include "workloads.h"

#include <chrono>

#include "workload/reference_data.h"
#include "workload/tweets.h"

namespace perfbench {

namespace adm = idea::adm;
using idea::Result;

const WorkloadSpec* FindWorkload(const std::string& name) {
  using idea::workload::UseCaseId;
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "plain_bulk",
       .tweets = 100000,
       .udf = "",
       .enriched_field = "",
       .target = "Tweets",
       .reference = ""},
      {.name = "enrich_heavy",
       .tweets = 40000,
       .udf = "enrichTweetQ3",
       .use_case = UseCaseId::kLargestReligions,
       .enriched_field = "largest_religions",
       .reference_records = 50000,
       .target = "EnrichedTweets",
       .reference = ""},
      {.name = "enrich_fresh",
       .tweets = 30000,
       .udf = "enrichTweetQ1",
       .use_case = UseCaseId::kSafetyRating,
       .enriched_field = "safety_rating",
       .reference_records = 50000,
       .tweet_rate = 10000,
       .update_rate = 500,
       .target = "EnrichedTweets",
       .reference = "SafetyRatings"},
  };
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& w, uint64_t seed) {
  Inputs in;
  in.seed = seed;
  idea::workload::TweetGenerator gen({.seed = seed, .country_domain = kCountryDomain});
  in.tweets.reserve(w.tweets);
  for (size_t i = 0; i < w.tweets; ++i) in.tweets.push_back(gen.NextJson());
  return in;
}

adm::Value UpdateRecord(const WorkloadSpec& w, const Inputs& in, uint64_t k) {
  return idea::workload::GenUpdateFor(w.reference, w.reference_records, kCountryDomain,
                                      in.seed * 7919 + k);
}

uint64_t UpdateCount(const WorkloadSpec& w) {
  if (w.update_rate <= 0) return 0;
  return static_cast<uint64_t>(static_cast<double>(w.tweets) / w.tweet_rate * w.update_rate);
}

Result<Deployment> Deploy(const WorkloadSpec& w, const Inputs& in) {
  idea::InstanceOptions options;
  options.cluster.nodes = kNodes;
  options.cluster.mode = idea::cluster::ExecutionMode::kThreads;
  Deployment d;
  d.db = std::make_unique<idea::Instance>(options);
  IDEA_RETURN_NOT_OK(d.db->ExecuteScript(idea::workload::TweetDdl()));
  std::string connect = "CONNECT FEED TweetFeed TO DATASET " + w.target;
  if (!w.udf.empty()) {
    const idea::workload::UseCaseSpec& uc = idea::workload::GetUseCase(w.use_case);
    IDEA_RETURN_NOT_OK(d.db->ExecuteScript(uc.ddl));
    idea::workload::RefSizes sizes;
    sizes.safety_ratings = w.reference_records;
    sizes.religious_populations = w.reference_records;
    IDEA_RETURN_NOT_OK(idea::workload::LoadUseCaseData(&d.db->catalog(), uc, sizes,
                                                       kCountryDomain, in.seed));
    IDEA_RETURN_NOT_OK(d.db->ExecuteSqlpp(uc.function_ddl).status());
    connect += " APPLY FUNCTION " + w.udf;
    d.reference = d.db->catalog().FindDataset(uc.datasets.front());
  }
  IDEA_RETURN_NOT_OK(d.db->ExecuteScript(
      "CREATE FEED TweetFeed WITH {\"type-name\": \"TweetType\", \"format\": \"JSON\", "
      "\"batch-size\": \"" + std::to_string(kBatchSize) + "\"}; " + connect + ";"));
  d.target = d.db->catalog().FindDataset(w.target);
  return d;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
