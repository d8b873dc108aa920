// End-to-end failure handling: per-feed policies (abort / skip / dead-letter),
// transient-fault retries, holder abort/deadline propagation, and WAL
// crash-recovery — all driven by the deterministic fault-injection framework.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adm/json.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "feed/active_feed_manager.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sqlpp/parser.h"
#include "workload/usecases.h"

namespace idea::feed {
namespace {

using adm::Value;
using common::FaultInjector;
using common::FaultSpec;

/// One self-contained pipeline environment (cluster + catalog + AFM +
/// tweet-safety schema). Built per run so determinism tests can replay the
/// exact same feed from scratch.
struct PipelineEnv {
  storage::Catalog catalog;
  UdfRegistry udfs;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<ActiveFeedManager> afm;

  PipelineEnv() {
    cluster::ClusterConfig cc;
    cc.nodes = 3;
    cc.mode = cluster::ExecutionMode::kThreads;
    cluster = std::make_unique<cluster::Cluster>(cc);
    afm = std::make_unique<ActiveFeedManager>(cluster.get(), &catalog, &udfs);

    EXPECT_TRUE(catalog
                    .CreateDatatype(adm::Datatype(
                        "TweetType", {{"id", adm::FieldType::kInt64, false},
                                      {"text", adm::FieldType::kString, false}}))
                    .ok());
    EXPECT_TRUE(catalog.CreateDataset("Tweets", "TweetType", "id").ok());
    EXPECT_TRUE(catalog.CreateDataset("EnrichedTweets", "TweetType", "id").ok());
    EXPECT_TRUE(catalog
                    .CreateDatatype(adm::Datatype("SensitiveWordType",
                                                  {{"wid", adm::FieldType::kString,
                                                    false}}))
                    .ok());
    EXPECT_TRUE(
        catalog.CreateDataset("SensitiveWords", "SensitiveWordType", "wid").ok());
    EXPECT_TRUE(catalog.FindDataset("SensitiveWords")
                    ->Upsert(adm::ParseJson(
                                 R"({"wid":"W1","country":"US","word":"bomb"})")
                                 .value())
                    .ok());
    auto fn = sqlpp::ParseStatement(workload::TweetSafetyCheckFunctionDdl());
    EXPECT_TRUE(fn.ok());
    sqlpp::SqlppFunctionDef def;
    def.name = fn->create_function.name;
    def.params = fn->create_function.params;
    def.body = std::shared_ptr<const sqlpp::SelectStatement>(
        std::move(fn->create_function.body));
    EXPECT_TRUE(udfs.RegisterSqlpp(std::move(def), false).ok());
  }
};

std::shared_ptr<std::vector<std::string>> MakeTweets(size_t n) {
  auto records = std::make_shared<std::vector<std::string>>();
  for (size_t i = 0; i < n; ++i) {
    std::string country = i % 2 == 0 ? "US" : "CA";
    std::string text = i % 4 == 0 ? "there is a bomb here" : "sunny day";
    records->push_back("{\"id\": " + std::to_string(i) + ", \"text\": \"" + text +
                       "\", \"country\": \"" + country + "\"}");
  }
  return records;
}

class FeedFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Default().DisarmAll();
    FaultInjector::Default().Reseed(0);
  }
};

TEST_F(FeedFaultTest, RetriesRecoverTransientUdfFaults) {
  PipelineEnv env;
  FaultInjector::Default().Reseed(42);
  FaultInjector::Default().Arm("compute.udf", FaultSpec::EveryNth(50));

  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.config.batch_size = 60;
  args.config.on_error = OnError::kDeadLetter;
  args.config.max_retries = 2;
  args.config.retry_backoff_us = 10;
  args.connection.dataset = "EnrichedTweets";
  args.connection.apply_function = "tweetSafetyCheck";
  args.adapter_factory = MakeVectorAdapterFactory(MakeTweets(400));
  ASSERT_TRUE(env.afm->StartFeed(std::move(args)).ok());
  auto stats = env.afm->WaitForFeedStats("F");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Every 50th evaluation fails once, but the failure is transient by
  // construction (a retry advances the hit counter), so retries recover every
  // record and nothing reaches the dead-letter queue.
  EXPECT_EQ(stats->records_ingested, 400u);
  EXPECT_GT(stats->retries, 0u);
  EXPECT_EQ(stats->dead_letters, 0u);
  EXPECT_EQ(env.afm->dead_letter_queue("F")->depth(), 0u);
  EXPECT_EQ(env.catalog.FindDataset("EnrichedTweets")->LiveRecordCount(), 400u);
}

TEST_F(FeedFaultTest, SkipPolicyDropsPoisonedRecordsAndKeepsTheFeedAlive) {
  PipelineEnv env;
  FaultInjector::Default().Reseed(42);
  FaultInjector::Default().Arm("compute.parse",
                               FaultSpec::Probability(0.05, StatusCode::kParseError));

  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.config.batch_size = 60;
  args.config.on_error = OnError::kSkip;
  args.connection.dataset = "Tweets";
  args.adapter_factory = MakeVectorAdapterFactory(MakeTweets(400));
  ASSERT_TRUE(env.afm->StartFeed(std::move(args)).ok());
  auto stats = env.afm->WaitForFeedStats("F");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->records_skipped, 0u);
  EXPECT_EQ(stats->records_ingested + stats->records_skipped, 400u);
  EXPECT_EQ(stats->parse_errors, stats->records_skipped);
  EXPECT_EQ(env.catalog.FindDataset("Tweets")->LiveRecordCount(),
            stats->records_ingested);
}

TEST_F(FeedFaultTest, AbortPolicyFailsTheFeedWithoutDeadlocking) {
  PipelineEnv env;
  FaultInjector::Default().Arm("compute.udf", FaultSpec::Always());

  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.config.batch_size = 60;
  // on_error defaults to kAbort: the first (unretried) failure kills the feed.
  args.connection.dataset = "EnrichedTweets";
  args.connection.apply_function = "tweetSafetyCheck";
  args.adapter_factory = MakeVectorAdapterFactory(MakeTweets(300));
  ASSERT_TRUE(env.afm->StartFeed(std::move(args)).ok());
  // The wait must observe the injected failure — and return rather than
  // deadlock against producers blocked on poisoned holders.
  auto stats = env.afm->WaitForFeedStats("F");
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().ToString().find("injected fault"), std::string::npos)
      << stats.status().ToString();
}

TEST_F(FeedFaultTest, AbortedFeedWritesAParseablePostMortem) {
  PipelineEnv env;
  FaultInjector::Default().Arm("compute.udf", FaultSpec::Always());

  const std::string dir = ::testing::TempDir() + "/idea_postmortem";
  ActiveFeedManager::StartArgs args;
  args.config.name = "Doomed";
  args.config.type_name = "TweetType";
  args.config.batch_size = 60;
  args.config.post_mortem_dir = dir;  // on_error defaults to kAbort
  args.connection.dataset = "EnrichedTweets";
  args.connection.apply_function = "tweetSafetyCheck";
  args.adapter_factory = MakeVectorAdapterFactory(MakeTweets(300));
  ASSERT_TRUE(env.afm->StartFeed(std::move(args)).ok());
  ASSERT_FALSE(env.afm->WaitForFeedStats("Doomed").ok());

  // The abort left a single-line JSON post-mortem with the final metrics and
  // the flight-recorder story, ending in the feed's abort event.
  std::ifstream in(dir + "/Doomed.postmortem.json");
  ASSERT_TRUE(in.good()) << "missing " << dir << "/Doomed.postmortem.json";
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto parsed = adm::ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetField("type")->AsString(), "postmortem");
  EXPECT_EQ(parsed->GetField("feed")->AsString(), "Doomed");
  EXPECT_NE(parsed->GetField("status")->AsString().find("injected fault"),
            std::string::npos);
  const Value* metrics = parsed->GetField("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->GetField("type")->AsString(), "metrics");
  ASSERT_NE(metrics->GetField("counters"), nullptr);
  const Value* flight = parsed->GetField("flight_recorder");
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->GetField("type")->AsString(), "flight_recorder");
  bool saw_abort = false;
  for (const Value& ev : flight->GetField("events")->AsArray()) {
    if (ev.GetField("kind")->AsString() == "feed_abort" &&
        ev.GetField("scope")->AsString() == "Doomed") {
      saw_abort = true;
      EXPECT_NE(ev.GetField("detail")->AsString().find("injected fault"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(saw_abort) << line;
  std::remove((dir + "/Doomed.postmortem.json").c_str());
}

/// The `intake.read` fault point marks a record unreadable as the adapter
/// hands it over, before any computing job sees it. The record follows the
/// feed's failure policy, and the feed's summary counts it like a parse or
/// storage reject.
TEST_F(FeedFaultTest, IntakeReadFailuresFollowTheFeedPolicy) {
  const size_t kRecords = 2000;
  const std::pair<OnError, const char*> kPolicies[] = {
      {OnError::kSkip, "skip"}, {OnError::kDeadLetter, "dead-letter"}, {OnError::kAbort, "abort"}};
  for (const auto& [policy, name] : kPolicies) {
    SCOPED_TRACE(name);
    PipelineEnv env;
    FaultInjector::Default().Reseed(42);
    FaultInjector::Default().Arm("intake.read", FaultSpec::Probability(0.05));

    ActiveFeedManager::StartArgs args;
    args.config.name = "F";
    args.config.type_name = "TweetType";
    args.config.batch_size = 60;
    args.config.on_error = policy;
    args.connection.dataset = "Tweets";
    args.adapter_factory = MakeVectorAdapterFactory(MakeTweets(kRecords));
    ASSERT_TRUE(env.afm->StartFeed(std::move(args)).ok());
    auto stats = env.afm->WaitForFeedStats("F");
    FaultInjector::Default().DisarmAll();
    if (policy == OnError::kAbort) {
      // The first unreadable record fails the feed.
      ASSERT_FALSE(stats.ok());
      EXPECT_NE(stats.status().ToString().find("intake.read"), std::string::npos)
          << stats.status().ToString();
      continue;
    }
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(env.catalog.FindDataset("Tweets")->LiveRecordCount(),
              stats->records_ingested);
    if (policy == OnError::kSkip) {
      EXPECT_GT(stats->records_skipped, 0u);
      EXPECT_EQ(stats->records_ingested + stats->records_skipped, kRecords);
      continue;
    }
    std::shared_ptr<DeadLetterQueue> dlq = env.afm->dead_letter_queue("F");
    ASSERT_NE(dlq, nullptr);
    EXPECT_GT(stats->dead_letters, 0u);
    EXPECT_EQ(stats->dead_letters, dlq->enqueued());
    EXPECT_EQ(stats->records_ingested + stats->dead_letters, kRecords);
    for (const DeadLetter& letter : dlq->Drain()) EXPECT_EQ(letter.stage, "intake");
  }
}

TEST_F(FeedFaultTest, StorageFaultsFollowTheSkipPolicy) {
  PipelineEnv env;
  FaultInjector::Default().Arm("storage.apply", FaultSpec::Nth(5));
  obs::Counter* ingested_series =
      obs::MetricsRegistry::Default().GetCounter("idea.feed.F.records_ingested");
  const uint64_t ingested_before = ingested_series->value();

  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.config.batch_size = 60;
  args.config.on_error = OnError::kSkip;
  args.connection.dataset = "Tweets";
  args.adapter_factory = MakeVectorAdapterFactory(MakeTweets(200));
  ASSERT_TRUE(env.afm->StartFeed(std::move(args)).ok());
  auto stats = env.afm->WaitForFeedStats("F");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Exactly one store attempt fails (no retries configured) and is skipped.
  EXPECT_EQ(stats->records_ingested, 199u);
  EXPECT_EQ(stats->records_skipped, 1u);
  EXPECT_EQ(env.catalog.FindDataset("Tweets")->LiveRecordCount(), 199u);
  // The registry series counts committed records too, not shipped ones.
  EXPECT_EQ(ingested_series->value() - ingested_before, 199u);
}

TEST_F(FeedFaultTest, StorageRetriesRecoverTransientApplyFaults) {
  PipelineEnv env;
  FaultInjector::Default().Arm("storage.apply", FaultSpec::EveryNth(25));

  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.config.batch_size = 60;
  args.config.on_error = OnError::kSkip;
  args.config.max_retries = 2;
  args.config.retry_backoff_us = 10;
  args.connection.dataset = "Tweets";
  args.adapter_factory = MakeVectorAdapterFactory(MakeTweets(300));
  ASSERT_TRUE(env.afm->StartFeed(std::move(args)).ok());
  auto stats = env.afm->WaitForFeedStats("F");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_ingested, 300u);
  EXPECT_EQ(stats->records_skipped, 0u);
  EXPECT_GT(stats->retries, 0u);
  EXPECT_EQ(env.catalog.FindDataset("Tweets")->LiveRecordCount(), 300u);
}

/// A write the dataset rejects as invalid fails the same way on every
/// attempt, so the storage drain does not retry it: under skip every record
/// is dropped at once and no retry is spent, as the computing job treats a
/// validation reject.
TEST_F(FeedFaultTest, StorageDoesNotRetryADeterministicReject) {
  PipelineEnv env;
  // The tweets parse as TweetType but lack the field this dataset requires.
  ASSERT_TRUE(env.catalog
                  .CreateDatatype(adm::Datatype(
                      "LangTweetType", {{"id", adm::FieldType::kInt64, false},
                                        {"lang", adm::FieldType::kString, false}}))
                  .ok());
  ASSERT_TRUE(env.catalog.CreateDataset("LangTweets", "LangTweetType", "id").ok());

  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.config.batch_size = 60;
  args.config.on_error = OnError::kSkip;
  args.config.max_retries = 2;
  args.config.retry_backoff_us = 10;
  args.connection.dataset = "LangTweets";
  args.adapter_factory = MakeVectorAdapterFactory(MakeTweets(120));
  ASSERT_TRUE(env.afm->StartFeed(std::move(args)).ok());
  auto stats = env.afm->WaitForFeedStats("F");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_ingested, 0u);
  EXPECT_EQ(stats->records_skipped, 120u);
  EXPECT_EQ(stats->retries, 0u);
  EXPECT_EQ(env.catalog.FindDataset("LangTweets")->LiveRecordCount(), 0u);
}

/// A write that fails inside a frame's lock hold (the storage drain applies a
/// frame with one UpsertBatch call) leaves the policy path to that record
/// alone. Nth(7) lands mid-frame: a frame carries one compute partition's
/// ~20-record share of a 60-record batch. So a live count one short of the
/// input means the records after the failing one in its frame were stored.
/// storage.apply, armed to count without firing, must still be hit exactly
/// once per record attempt.
TEST_F(FeedFaultTest, WriteFaultInsideAFrameAffectsOnlyThatRecord) {
  struct Case {
    const char* point;
    OnError on_error;
    uint32_t max_retries;
  };
  const Case cases[] = {
      {"wal.append", OnError::kSkip, 0},     {"wal.append", OnError::kDeadLetter, 2},
      {"wal.append", OnError::kDeadLetter, 0}, {"lsm.apply", OnError::kSkip, 0},
      {"lsm.apply", OnError::kDeadLetter, 2}, {"lsm.apply", OnError::kDeadLetter, 0},
  };
  constexpr size_t kTweets = 300;
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.point) + (c.on_error == OnError::kSkip ? " skip" : " dlq") +
                 " retries=" + std::to_string(c.max_retries));
    PipelineEnv env;
    FaultInjector::Default().Arm(c.point, FaultSpec::Nth(7));
    FaultInjector::Default().Arm("storage.apply", FaultSpec::Probability(0.0));

    ActiveFeedManager::StartArgs args;
    args.config.name = "F";
    args.config.type_name = "TweetType";
    args.config.batch_size = 60;
    args.config.on_error = c.on_error;
    args.config.max_retries = c.max_retries;
    args.config.retry_backoff_us = 10;
    args.connection.dataset = "Tweets";
    auto tweets = MakeTweets(kTweets);
    args.adapter_factory = MakeVectorAdapterFactory(tweets);
    ASSERT_TRUE(env.afm->StartFeed(std::move(args)).ok());
    auto stats = env.afm->WaitForFeedStats("F");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    FaultInjector::Default().DisarmAll();
    EXPECT_EQ(FaultInjector::Default().GetStats("storage.apply").hits,
              kTweets + stats->retries);
    auto dataset = env.catalog.FindDataset("Tweets");
    auto dlq = env.afm->dead_letter_queue("F");

    if (c.max_retries > 0) {
      // The fault fires once, so the first retry stores the record.
      EXPECT_EQ(stats->records_ingested, kTweets);
      EXPECT_EQ(stats->records_skipped, 0u);
      EXPECT_EQ(stats->retries, 1u);
      ASSERT_NE(dlq, nullptr);
      EXPECT_EQ(dlq->depth(), 0u);
      EXPECT_EQ(dataset->LiveRecordCount(), kTweets);
      continue;
    }
    EXPECT_EQ(stats->records_ingested, kTweets - 1);
    EXPECT_EQ(stats->retries, 0u);
    EXPECT_EQ(dataset->LiveRecordCount(), kTweets - 1);
    // Exactly one tweet is missing; under dead-letter it is the one letter.
    std::vector<int64_t> missing;
    for (size_t i = 0; i < kTweets; ++i) {
      if (!dataset->Get(Value::MakeInt(static_cast<int64_t>(i))).ok()) {
        missing.push_back(static_cast<int64_t>(i));
      }
    }
    ASSERT_EQ(missing.size(), 1u);
    if (c.on_error == OnError::kSkip) {
      EXPECT_EQ(stats->records_skipped, 1u);
      continue;
    }
    EXPECT_EQ(stats->records_skipped, 0u);
    EXPECT_EQ(stats->dead_letters, 1u);
    ASSERT_NE(dlq, nullptr);
    std::vector<DeadLetter> letters = dlq->Drain();
    ASSERT_EQ(letters.size(), 1u);
    EXPECT_EQ(letters[0].stage, "storage");
    EXPECT_EQ(letters[0].attempts, 1u);
    auto parsed = adm::ParseJson((*tweets)[static_cast<size_t>(missing[0])]);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(letters[0].raw, parsed->ToString());
  }
}

/// The PR's headline acceptance scenario: 1% of parses fail deterministically
/// and every 50th UDF evaluation fails transiently; under
/// `on_error: dead-letter, max_retries: 2` the feed survives, accounts for
/// every input record exactly once, and the dead-letter queue is a pure
/// function of the seed.
TEST_F(FeedFaultTest, DeadLetterPolicySurvivesMixedFaultsAndIsSeedReproducible) {
  auto run_once = [](std::vector<std::string>* dlq_raws) -> FeedRuntimeStats {
    PipelineEnv env;
    FaultInjector::Default().Reseed(42);
    FaultInjector::Default().Arm(
        "compute.parse", FaultSpec::Probability(0.01, StatusCode::kParseError));
    FaultInjector::Default().Arm("compute.udf", FaultSpec::EveryNth(50));

    ActiveFeedManager::StartArgs args;
    args.config.name = "F";
    args.config.type_name = "TweetType";
    args.config.batch_size = 60;
    args.config.on_error = OnError::kDeadLetter;
    args.config.max_retries = 2;
    args.config.retry_backoff_us = 10;
    args.connection.dataset = "EnrichedTweets";
    args.connection.apply_function = "tweetSafetyCheck";
    args.adapter_factory = MakeVectorAdapterFactory(MakeTweets(2000));
    EXPECT_TRUE(env.afm->StartFeed(std::move(args)).ok());
    auto stats = env.afm->WaitForFeedStats("F");
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();

    auto dlq = env.afm->dead_letter_queue("F");
    EXPECT_NE(dlq, nullptr);
    const uint64_t dlq_depth = dlq->depth();

    // Exact accounting: every input record is either stored or parked.
    EXPECT_EQ(stats->records_ingested + dlq_depth, 2000u);
    EXPECT_GT(dlq_depth, 0u);       // ~20 poisoned parses
    EXPECT_GT(stats->retries, 0u);  // the transient UDF faults were retried
    // No record stored twice: ids are unique, so the live count must equal
    // the ingested count exactly.
    EXPECT_EQ(env.catalog.FindDataset("EnrichedTweets")->LiveRecordCount(),
              stats->records_ingested);

    for (const DeadLetter& letter : dlq->Drain()) {
      EXPECT_EQ(letter.stage, "parse");  // UDF faults all recovered via retry
      dlq_raws->push_back(letter.raw);
    }
    std::sort(dlq_raws->begin(), dlq_raws->end());
    return *stats;
  };

  std::vector<std::string> first_dlq, second_dlq;
  FeedRuntimeStats first = run_once(&first_dlq);
  FeedRuntimeStats second = run_once(&second_dlq);
  // Same seed => identical poisoned-record set, independent of thread
  // interleaving (keyed fault decisions hash seed ^ record content).
  EXPECT_EQ(first_dlq, second_dlq);
  EXPECT_EQ(first.records_ingested, second.records_ingested);
}

TEST_F(FeedFaultTest, DeadLetterQueueIsDrainableAndBounded) {
  DeadLetterQueue dlq("F", /*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    dlq.Add(DeadLetter{"r" + std::to_string(i), "parse",
                       Status::Internal("injected"), 0});
  }
  EXPECT_EQ(dlq.depth(), 3u);
  EXPECT_EQ(dlq.enqueued(), 5u);
  EXPECT_EQ(dlq.dropped(), 2u);  // oldest two evicted
  std::vector<DeadLetter> letters = dlq.Drain();
  ASSERT_EQ(letters.size(), 3u);
  EXPECT_EQ(letters[0].raw, "r2");
  EXPECT_EQ(letters[2].raw, "r4");
  EXPECT_EQ(dlq.depth(), 0u);
}

TEST_F(FeedFaultTest, HolderAbortUnblocksAStalledProducer) {
  runtime::StoragePartitionHolder holder(
      runtime::PartitionHolderId{"F", "storage", 0}, /*capacity=*/1);
  std::vector<Value> recs = {adm::ParseJson(R"({"id":1})").value()};
  ASSERT_TRUE(holder.Push(runtime::FrameRecords(recs, 1024)[0]).ok());

  Status blocked_result;
  std::thread producer([&] {
    // The holder is full and nothing pops: this push blocks until Abort.
    blocked_result = holder.Push(runtime::FrameRecords(recs, 1024)[0]);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  holder.Abort(Status::Internal("storage job died"));
  producer.join();
  ASSERT_FALSE(blocked_result.ok());
  EXPECT_NE(blocked_result.ToString().find("storage job died"), std::string::npos);
  // Aborted holders drop their queue and stop handing out frames.
  runtime::Frame out;
  EXPECT_FALSE(holder.Pop(&out));
  EXPECT_FALSE(holder.Push(runtime::FrameRecords(recs, 1024)[0]).ok());
}

TEST_F(FeedFaultTest, PushDeadlineTurnsADeadConsumerIntoTimedOut) {
  runtime::IntakePartitionHolder holder(
      runtime::PartitionHolderId{"F", "intake", 0}, /*capacity=*/2);
  holder.set_push_deadline_us(20 * 1000);
  ASSERT_TRUE(holder.Push("a").ok());
  ASSERT_TRUE(holder.Push("b").ok());
  Status st = holder.Push("c");  // full, nobody pulls
  EXPECT_EQ(st.code(), StatusCode::kTimedOut);
}

/// Crash-recovery soak: kill the storage engine between WAL append and
/// memtable apply at randomized points of a mixed upsert/delete workload,
/// then recover a fresh dataset from the survivor's WAL and require its
/// contents to be bit-identical to a crash-free run of the same prefix.
TEST_F(FeedFaultTest, WalCrashRecoveryIsIdempotentAtRandomKillPoints) {
  const adm::Datatype kType("T", {{"id", adm::FieldType::kInt64, false},
                                  {"v", adm::FieldType::kString, false}});

  // A deterministic workload of operations that all succeed when fault-free.
  struct Op {
    bool is_delete;
    int64_t id;
    std::string v;
  };
  std::vector<Op> ops;
  Rng rng(7);
  std::vector<int64_t> live;
  for (int i = 0; i < 160; ++i) {
    if (!live.empty() && rng.NextBool(0.2)) {
      size_t pick = rng.NextBelow(live.size());
      ops.push_back(Op{true, live[pick], ""});
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      // Mix fresh inserts and updates of live keys.
      int64_t id = (!live.empty() && rng.NextBool(0.3))
                       ? live[rng.NextBelow(live.size())]
                       : static_cast<int64_t>(1000 + i);
      if (std::find(live.begin(), live.end(), id) == live.end()) live.push_back(id);
      ops.push_back(Op{false, id, rng.NextAlpha(8)});
    }
  }
  auto apply = [](storage::LsmDataset* ds, const Op& op) -> Status {
    if (op.is_delete) return ds->Delete(Value::MakeInt(op.id));
    return ds->Upsert(Value::MakeObject(
        {{"id", Value::MakeInt(op.id)}, {"v", Value::MakeString(op.v)}}));
  };
  auto contents = [](storage::LsmDataset* ds) {
    std::vector<std::string> out;
    auto snapshot = ds->Scan();  // keep the snapshot alive across the loop
    for (const Value& rec : *snapshot) out.push_back(rec.ToString());
    return out;
  };

  Rng kill_rng(99);
  for (int round = 0; round < 8; ++round) {
    const size_t kill_at = 1 + kill_rng.NextBelow(ops.size());

    // Crash-free reference over the same prefix: ops[0..kill_at-1] complete;
    // the op that will crash mid-write in the faulty run commits here.
    storage::LsmDataset reference("ref", kType, "id");
    for (size_t i = 0; i < kill_at; ++i) ASSERT_TRUE(apply(&reference, ops[i]).ok());

    // Faulty run: the kill_at-th write crashes after its WAL append.
    FaultInjector::Default().Arm("lsm.apply",
                                 FaultSpec::Nth(kill_at, StatusCode::kInternal));
    storage::LsmDataset crashed("crash", kType, "id");
    size_t applied = 0;
    Status crash_status;
    while (applied < ops.size()) {
      crash_status = apply(&crashed, ops[applied]);
      ++applied;
      if (!crash_status.ok()) break;
    }
    FaultInjector::Default().DisarmAll();
    ASSERT_FALSE(crash_status.ok()) << "round " << round;
    ASSERT_EQ(applied, kill_at) << "round " << round;

    // Recovery: replay the crashed instance's WAL — which includes the
    // half-applied final write — into a fresh dataset.
    auto wal = crashed.ReadWal();
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_EQ(wal->size(), kill_at);  // every attempted write reached the log
    storage::LsmDataset recovered("rec", kType, "id");
    ASSERT_TRUE(recovered.ReplayWalRecords(*wal).ok());

    EXPECT_EQ(contents(&recovered), contents(&reference)) << "round " << round;

    // PK-idempotence: replaying the same log again must not change anything.
    ASSERT_TRUE(recovered.ReplayWalRecords(*wal).ok());
    EXPECT_EQ(contents(&recovered), contents(&reference)) << "round " << round;
  }

  // The soak's story survives in the flight recorder: every kill point fired
  // a fault event and every replay logged a recovery. The dump must be
  // parseable offline (the crash post-mortem contract).
  const std::string dump_path = ::testing::TempDir() + "/wal_soak_flight.json";
  ASSERT_TRUE(obs::FlightRecorder::Default().DumpToFile(dump_path).ok());
  std::ifstream in(dump_path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto parsed = adm::ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  size_t fault_fires = 0, recoveries = 0;
  for (const Value& ev : parsed->GetField("events")->AsArray()) {
    const std::string kind = ev.GetField("kind")->AsString();
    if (kind == "fault_fire" && ev.GetField("scope")->AsString() == "lsm.apply") {
      ++fault_fires;
    }
    if (kind == "wal_recovery" && ev.GetField("scope")->AsString() == "rec") {
      ++recoveries;
    }
  }
  EXPECT_GE(fault_fires, 8u) << line.substr(0, 500);
  EXPECT_GE(recoveries, 16u) << line.substr(0, 500);  // two replays per round
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace idea::feed
