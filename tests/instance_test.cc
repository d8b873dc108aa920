#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/fault_injection.h"
#include "idea.h"
#include "workload/native_udfs.h"
#include "workload/reference_data.h"
#include "workload/tweets.h"
#include "workload/update_client.h"
#include "workload/usecases.h"

namespace idea {
namespace {

using adm::Value;

InstanceOptions SmallCluster() {
  InstanceOptions opts;
  opts.cluster.nodes = 2;
  opts.cluster.mode = cluster::ExecutionMode::kThreads;
  return opts;
}

TEST(InstanceTest, Figure1And3CreateInsertQuery) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE TYPE TweetType AS OPEN { id : int64, text: string };
    CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
    INSERT INTO Tweets ([{"id":0, "text": "Let there be light"}]);
  )").ok());
  auto rows = db.ExecuteSqlpp("SELECT VALUE t.text FROM Tweets t;");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].AsString(), "Let there be light");
}

TEST(InstanceTest, DuplicateDdlFails) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  EXPECT_FALSE(db.ExecuteScript(workload::TweetDdl()).ok());
  EXPECT_FALSE(db.ExecuteSqlpp("CREATE DATASET X(NoType) PRIMARY KEY id;").ok());
}

TEST(InstanceTest, InsertRejectsDuplicateKeysButUpsertReplaces) {
  Instance db(SmallCluster());
  // A minimal schema (TweetDdl's type also requires country/location/time).
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE TYPE MiniTweet AS OPEN { id: int64, text: string };
    CREATE DATASET Tweets(MiniTweet) PRIMARY KEY id;
  )").ok());
  ASSERT_TRUE(db.ExecuteSqlpp(R"(INSERT INTO Tweets ([{"id": 1, "text": "a"}]);)").ok());
  EXPECT_FALSE(db.ExecuteSqlpp(R"(INSERT INTO Tweets ([{"id": 1, "text": "b"}]);)").ok());
  ASSERT_TRUE(db.ExecuteSqlpp(R"(UPSERT INTO Tweets ([{"id": 1, "text": "c"}]);)").ok());
  auto rows = db.ExecuteSqlpp("SELECT VALUE t.text FROM Tweets t WHERE t.id = 1;");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0].AsString(), "c");
}

TEST(InstanceTest, Figure6UdfAppliedInQuery) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  ASSERT_TRUE(db.ExecuteSqlpp(R"(
    CREATE FUNCTION USTweetSafetyCheck(tweet) {
      LET safety_check_flag =
        CASE tweet.country = "US" AND contains(tweet.text, "bomb")
          WHEN true THEN "Red" ELSE "Green" END
      SELECT tweet.*, safety_check_flag
    };)").ok());
  ASSERT_TRUE(db.ExecuteSqlpp(R"(INSERT INTO Tweets ([
    {"id": 1, "text": "bomb threat", "country": "US", "latitude": 1.0, "longitude": 1.0,
     "created_at": "2019-01-01T00:00:00Z"},
    {"id": 2, "text": "nice day", "country": "US", "latitude": 1.0, "longitude": 1.0,
     "created_at": "2019-01-01T00:00:00Z"}
  ]);)").ok());
  auto rows = db.ExecuteSqlpp(
      "SELECT VALUE USTweetSafetyCheck(t)[0].safety_check_flag FROM Tweets t "
      "ORDER BY t.id;");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].AsString(), "Red");
  EXPECT_EQ((*rows)[1].AsString(), "Green");
}

TEST(InstanceTest, Figure9AnalyticalQueryEndToEnd) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  ASSERT_TRUE(db.ExecuteScript(workload::SensitiveWordsDdl()).ok());
  ASSERT_TRUE(db.ExecuteSqlpp(workload::TweetSafetyCheckFunctionDdl()).ok());
  ASSERT_TRUE(db.ExecuteSqlpp(R"(UPSERT INTO SensitiveWords ([
    {"wid": "W1", "country": "US", "word": "bomb"},
    {"wid": "W2", "country": "FR", "word": "siege"}
  ]);)").ok());
  ASSERT_TRUE(db.ExecuteSqlpp(R"(INSERT INTO Tweets ([
    {"id": 1, "text": "a bomb", "country": "US", "latitude": 0.0, "longitude": 0.0,
     "created_at": "2019-01-01T00:00:00Z"},
    {"id": 2, "text": "a bomb", "country": "FR", "latitude": 0.0, "longitude": 0.0,
     "created_at": "2019-01-01T00:00:00Z"},
    {"id": 3, "text": "la siege", "country": "FR", "latitude": 0.0, "longitude": 0.0,
     "created_at": "2019-01-01T00:00:00Z"},
    {"id": 4, "text": "calm", "country": "US", "latitude": 0.0, "longitude": 0.0,
     "created_at": "2019-01-01T00:00:00Z"}
  ]);)").ok());
  auto rows = db.ExecuteSqlpp(R"(
    SELECT tweet.country Country, count(tweet) Num
    FROM Tweets tweet
    LET enrichedTweet = tweetSafetyCheck(tweet)[0]
    WHERE enrichedTweet.safety_check_flag = "Red"
    GROUP BY tweet.country
    ORDER BY tweet.country;)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].GetField("Country")->AsString(), "FR");
  EXPECT_EQ((*rows)[0].GetField("Num")->AsInt(), 1);
  EXPECT_EQ((*rows)[1].GetField("Country")->AsString(), "US");
  EXPECT_EQ((*rows)[1].GetField("Num")->AsInt(), 1);
}

TEST(InstanceTest, Figure10InsertEnrichedBatch) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  ASSERT_TRUE(db.ExecuteScript(workload::SensitiveWordsDdl()).ok());
  ASSERT_TRUE(db.ExecuteSqlpp(workload::TweetSafetyCheckFunctionDdl()).ok());
  ASSERT_TRUE(db.ExecuteSqlpp(R"(
    INSERT INTO EnrichedTweets(
      LET TweetsBatch = ([
        {"id": 0, "text": "x", "country": "US", "latitude": 0.0, "longitude": 0.0,
         "created_at": "2019-01-01T00:00:00Z"},
        {"id": 1, "text": "y", "country": "CA", "latitude": 0.0, "longitude": 0.0,
         "created_at": "2019-01-01T00:00:00Z"}
      ])
      SELECT VALUE tweetSafetyCheck(tweet)
      FROM TweetsBatch tweet
    );)").ok());
  auto rows = db.ExecuteSqlpp("SELECT VALUE count(t) FROM EnrichedTweets t;");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0].AsInt(), 2);
}

TEST(InstanceTest, Figure11IncrementalEnrichInsert) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  ASSERT_TRUE(db.ExecuteScript(workload::SensitiveWordsDdl()).ok());
  ASSERT_TRUE(db.ExecuteSqlpp(workload::TweetSafetyCheckFunctionDdl()).ok());
  ASSERT_TRUE(db.ExecuteSqlpp(R"(INSERT INTO Tweets ([
    {"id": 1, "text": "a", "country": "US", "latitude": 0.0, "longitude": 0.0,
     "created_at": "2019-01-01T00:00:00Z"},
    {"id": 2, "text": "b", "country": "US", "latitude": 0.0, "longitude": 0.0,
     "created_at": "2019-01-01T00:00:00Z"}
  ]);)").ok());
  const char* fig11 = R"(
    INSERT INTO EnrichedTweets(
      SELECT VALUE tweetSafetyCheck(tweet)
      FROM Tweets tweet WHERE tweet.id NOT IN
        (SELECT VALUE enrichedTweet.id FROM EnrichedTweets enrichedTweet)
    );)";
  ASSERT_TRUE(db.ExecuteSqlpp(fig11).ok());
  EXPECT_EQ((*db.ExecuteSqlpp("SELECT VALUE count(t) FROM EnrichedTweets t;"))[0].AsInt(),
            2);
  // Re-running it is a no-op (all ids already enriched).
  ASSERT_TRUE(db.ExecuteSqlpp(fig11).ok());
  EXPECT_EQ((*db.ExecuteSqlpp("SELECT VALUE count(t) FROM EnrichedTweets t;"))[0].AsInt(),
            2);
}

TEST(InstanceTest, Figure18HighRiskTweetCheck) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  ASSERT_TRUE(db.ExecuteScript(workload::SensitiveWordsDdl()).ok());
  ASSERT_TRUE(db.ExecuteSqlpp(workload::HighRiskTweetCheckFunctionDdl()).ok());
  // "US" gets 2 keywords, "CA" 1: top-10 list contains both here, so give a
  // country with zero keywords a Green flag.
  ASSERT_TRUE(db.ExecuteSqlpp(R"(UPSERT INTO SensitiveWords ([
    {"wid": "W1", "country": "US", "word": "bomb"},
    {"wid": "W2", "country": "US", "word": "raid"},
    {"wid": "W3", "country": "CA", "word": "siege"}
  ]);)").ok());
  auto rows = db.ExecuteSqlpp(R"(
    LET t = {"id": 1, "country": "US"}
    SELECT VALUE highRiskTweetCheck(t)[0].high_risk_flag;)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0].AsString(), "Red");
  rows = db.ExecuteSqlpp(R"(
    LET t = {"id": 1, "country": "ZZ"}
    SELECT VALUE highRiskTweetCheck(t)[0].high_risk_flag;)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0].AsString(), "Green");
}

TEST(InstanceTest, Figure4FeedLifecycleViaSqlpp) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE FEED TweetFeed WITH {
      "type-name" : "TweetType",
      "adapter-name": "socket_adapter",
      "format" : "JSON",
      "batch-size": "25"
    };
    CONNECT FEED TweetFeed TO DATASET Tweets;
  )").ok());
  // Swap the socket adapter for a generator (no network in unit tests).
  auto records = std::make_shared<std::vector<std::string>>();
  workload::TweetGenerator gen({.seed = 5, .country_domain = 50});
  for (int i = 0; i < 120; ++i) records->push_back(gen.NextJson());
  ASSERT_TRUE(db.SetFeedAdapterFactory("TweetFeed",
                                       feed::MakeVectorAdapterFactory(records))
                  .ok());
  ASSERT_TRUE(db.ExecuteSqlpp("START FEED TweetFeed;").ok());
  auto stats = db.WaitForFeed("TweetFeed");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_ingested, 120u);
  EXPECT_EQ((*db.ExecuteSqlpp("SELECT VALUE count(t) FROM Tweets t;"))[0].AsInt(), 120);
}

/// A finished feed's /feeds row reports the skips and retries WaitForFeed
/// returned, the storage job's included.
TEST(InstanceTest, FinishedFeedRowMatchesWaitForFeed) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE FEED SkipFeed WITH {"type-name": "TweetType", "batch-size": "60",
                               "on-error": "skip"};
    CONNECT FEED SkipFeed TO DATASET Tweets;
    CREATE DATASET RetryTweets(TweetType) PRIMARY KEY id;
    CREATE FEED RetryFeed WITH {"type-name": "TweetType", "batch-size": "60",
                                "on-error": "skip", "max-retries": "2",
                                "retry-backoff-us": "10"};
    CONNECT FEED RetryFeed TO DATASET RetryTweets;
  )").ok());
  auto run = [&](const std::string& feed, size_t n, common::FaultSpec spec) {
    auto records = std::make_shared<std::vector<std::string>>();
    workload::TweetGenerator gen({.seed = 31, .country_domain = 10});
    for (size_t i = 0; i < n; ++i) records->push_back(gen.NextJson());
    EXPECT_TRUE(db.SetFeedAdapterFactory(feed, feed::MakeVectorAdapterFactory(records)).ok());
    common::FaultInjector::Default().Arm("storage.apply", spec);
    EXPECT_TRUE(db.ExecuteSqlpp("START FEED " + feed + ";").ok());
    auto stats = db.WaitForFeed(feed);
    common::FaultInjector::Default().DisarmAll();
    return stats;
  };
  auto row = [&](const std::string& feed) {
    auto parsed = adm::ParseJson(db.FeedsJson());
    EXPECT_TRUE(parsed.ok());
    return parsed.ok() ? *parsed->GetField("feeds")->GetField(feed) : Value::MakeNull();
  };

  // The storage job skips the one write that fails.
  auto skipped = run("SkipFeed", 200, common::FaultSpec::Nth(5));
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  EXPECT_EQ(skipped->records_skipped, 1u);
  Value skip_row = row("SkipFeed");
  ASSERT_TRUE(skip_row.IsObject());
  EXPECT_FALSE(skip_row.GetField("active")->AsBool());
  EXPECT_EQ(skip_row.GetField("records_skipped")->AsInt(), 1);
  EXPECT_EQ(skip_row.GetField("records_ingested")->AsInt(), 199);

  // The storage job retries every 25th write and stores it on the retry.
  auto retried = run("RetryFeed", 300, common::FaultSpec::EveryNth(25));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_GT(retried->retries, 0u);
  Value retry_row = row("RetryFeed");
  ASSERT_TRUE(retry_row.IsObject());
  EXPECT_EQ(retry_row.GetField("retries")->AsInt(),
            static_cast<int64_t>(retried->retries));
  EXPECT_EQ(retry_row.GetField("records_skipped")->AsInt(), 0);
  EXPECT_EQ(retry_row.GetField("records_ingested")->AsInt(), 300);
}

/// The feed-wide skip and retry series count every stage's skips and retries:
/// an adapter read the intake job skips, a write the storage job skips, and
/// the storage job's write retries. Each feed's series deltas match what
/// WaitForFeed returns.
TEST(InstanceTest, FeedSkipAndRetrySeriesCountEveryStage) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE FEED SkipFeed WITH {"type-name": "TweetType", "batch-size": "60",
                               "on-error": "skip"};
    CONNECT FEED SkipFeed TO DATASET Tweets;
    CREATE DATASET RetryTweets(TweetType) PRIMARY KEY id;
    CREATE FEED RetryFeed WITH {"type-name": "TweetType", "batch-size": "60",
                                "on-error": "skip", "max-retries": "2",
                                "retry-backoff-us": "10"};
    CONNECT FEED RetryFeed TO DATASET RetryTweets;
  )").ok());
  auto run = [&](const std::string& feed, size_t n, common::FaultSpec write_fault) {
    auto records = std::make_shared<std::vector<std::string>>();
    workload::TweetGenerator gen({.seed = 37, .country_domain = 10});
    for (size_t i = 0; i < n; ++i) records->push_back(gen.NextJson());
    EXPECT_TRUE(db.SetFeedAdapterFactory(feed, feed::MakeVectorAdapterFactory(records)).ok());
    obs::Scope series(&obs::MetricsRegistry::Default(), "idea.feed." + feed);
    const uint64_t skipped_before = series.Counter("records_skipped")->value();
    const uint64_t retries_before = series.Counter("retries")->value();
    common::FaultInjector::Default().Arm("intake.read", common::FaultSpec::Nth(7));
    common::FaultInjector::Default().Arm("storage.apply", write_fault);
    EXPECT_TRUE(db.ExecuteSqlpp("START FEED " + feed + ";").ok());
    auto stats = db.WaitForFeed(feed);
    common::FaultInjector::Default().DisarmAll();
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (!stats.ok()) return feed::FeedRuntimeStats();
    EXPECT_EQ(series.Counter("records_skipped")->value() - skipped_before,
              stats->records_skipped);
    EXPECT_EQ(series.Counter("retries")->value() - retries_before, stats->retries);
    return *stats;
  };

  // One unreadable record and one failed write, each skipped.
  feed::FeedRuntimeStats skipped = run("SkipFeed", 200, common::FaultSpec::Nth(5));
  EXPECT_EQ(skipped.records_skipped, 2u);
  EXPECT_EQ(skipped.retries, 0u);
  EXPECT_EQ(skipped.records_ingested, 198u);

  // One unreadable record skipped; every 25th write stored on its retry.
  feed::FeedRuntimeStats retried = run("RetryFeed", 300, common::FaultSpec::EveryNth(25));
  EXPECT_EQ(retried.records_skipped, 1u);
  EXPECT_GT(retried.retries, 0u);
  EXPECT_EQ(retried.records_ingested, 299u);
}

TEST(InstanceTest, CreateFeedRejectsMalformedNumbers) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"max-retries", "-1"},         {"batch-size", "-1"},
      {"batch-size", "abc"},         {"batch-size", "0"},
      {"batch-size", "12x"},         {"retry-backoff-us", "+5"},
      {"dlq-capacity", "0"},         {"routing-slack", " 5"},
      {"max-failovers", "4294967296"},
  };
  for (const auto& [key, value] : bad) {
    auto created = db.ExecuteSqlpp(R"(CREATE FEED BadFeed WITH {
      "type-name": "TweetType", ")" + key + R"(": ")" + value + R"("};)");
    ASSERT_FALSE(created.ok()) << key << "=" << value;
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument) << key << "=" << value;
    EXPECT_NE(created.status().ToString().find(key), std::string::npos)
        << created.status().ToString();
  }
  // Nothing was declared by the rejected statements; in-range values pass.
  EXPECT_TRUE(db.ExecuteSqlpp(R"(CREATE FEED BadFeed WITH {
      "type-name": "TweetType", "batch-size": "1", "max-retries": "4294967295",
      "retry-backoff-us": "0", "dlq-capacity": "1", "routing-slack": "0",
      "max-failovers": "0"};)")
                  .ok());
}

TEST(InstanceTest, CreateFeedStringKeysTakeEffect) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  auto tweets = [](uint64_t seed, int n) {
    auto records = std::make_shared<std::vector<std::string>>();
    workload::TweetGenerator gen({.seed = seed, .country_domain = 10});
    for (int i = 0; i < n; ++i) records->push_back(gen.NextJson());
    return records;
  };
  auto run = [&](const std::string& feed, feed::AdapterFactory factory) {
    EXPECT_TRUE(db.SetFeedAdapterFactory(feed, std::move(factory)).ok());
    EXPECT_TRUE(db.ExecuteSqlpp("START FEED " + feed + ";").ok());
    return db.WaitForFeed(feed);
  };

  // on-error: an unknown policy is rejected at CREATE ...
  auto bad = db.ExecuteSqlpp(
      R"(CREATE FEED BadPolicy WITH {"type-name": "TweetType", "on-error": "ignore"};)");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // ... and "dead-letter" parks a malformed record instead of failing.
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE FEED DlqFeed WITH {"type-name": "TweetType", "on-error": "dead-letter"};
    CONNECT FEED DlqFeed TO DATASET Tweets;
  )").ok());
  auto with_junk = tweets(21, 20);
  with_junk->push_back("{\"id\": ");
  auto dlq_stats = run("DlqFeed", feed::MakeVectorAdapterFactory(with_junk));
  ASSERT_TRUE(dlq_stats.ok()) << dlq_stats.status().ToString();
  EXPECT_EQ(dlq_stats->records_ingested, 20u);
  auto letters = db.DrainDeadLetters("DlqFeed");
  ASSERT_TRUE(letters.ok()) << letters.status().ToString();
  ASSERT_EQ(letters->size(), 1u);
  EXPECT_EQ((*letters)[0].stage, "parse");

  // post-mortem-dir: a feed that aborts writes its post-mortem there.
  const std::string dir = ::testing::TempDir() + "/idea_instance_postmortem";
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE FEED DoomedFeed WITH {"type-name": "TweetType", "post-mortem-dir": ")" + dir +
                               R"("};
    CONNECT FEED DoomedFeed TO DATASET EnrichedTweets;
  )").ok());
  common::FaultInjector::Default().Arm("storage.apply", common::FaultSpec::Always());
  auto doomed = run("DoomedFeed", feed::MakeVectorAdapterFactory(tweets(22, 20)));
  common::FaultInjector::Default().DisarmAll();
  ASSERT_FALSE(doomed.ok());
  const std::string path = dir + "/DoomedFeed.postmortem.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto postmortem = adm::ParseJson(line);
  ASSERT_TRUE(postmortem.ok()) << postmortem.status().ToString();
  EXPECT_EQ(postmortem->GetField("type")->AsString(), "postmortem");
  EXPECT_EQ(postmortem->GetField("feed")->AsString(), "DoomedFeed");
  std::remove(path.c_str());

  // balanced-intake: every node runs an intake adapter.
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE DATASET BalancedTweets(TweetType) PRIMARY KEY id;
    CREATE FEED BalancedFeed WITH {"type-name": "TweetType", "balanced-intake": "true"};
    CONNECT FEED BalancedFeed TO DATASET BalancedTweets;
  )").ok());
  std::vector<size_t> intake_counts;
  feed::AdapterFactory vector_factory = feed::MakeVectorAdapterFactory(tweets(23, 40));
  auto balanced = run("BalancedFeed", [&](size_t index, size_t count) {
    intake_counts.push_back(count);
    return vector_factory(index, count);
  });
  ASSERT_TRUE(balanced.ok()) << balanced.status().ToString();
  EXPECT_EQ(intake_counts, std::vector<size_t>(2, 2));
  EXPECT_EQ(balanced->records_ingested, 40u);

  // ha-failover: the feed plans around a node failed before it starts.
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE DATASET HaTweets(TweetType) PRIMARY KEY id;
    CREATE FEED HaFeed WITH {"type-name": "TweetType", "ha-failover": "true"};
    CONNECT FEED HaFeed TO DATASET HaTweets;
  )").ok());
  ASSERT_TRUE(db.cluster().FailNode(1).ok());
  auto ha = run("HaFeed", feed::MakeVectorAdapterFactory(tweets(24, 40)));
  ASSERT_TRUE(ha.ok()) << ha.status().ToString();
  EXPECT_EQ(ha->records_ingested, 40u);
  EXPECT_EQ((*db.ExecuteSqlpp("SELECT VALUE count(t) FROM HaTweets t;"))[0].AsInt(), 40);
}

TEST(InstanceTest, FeedWithAttachedUdfViaSqlpp) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  ASSERT_TRUE(db.ExecuteScript(workload::SensitiveWordsDdl()).ok());
  ASSERT_TRUE(db.ExecuteSqlpp(workload::TweetSafetyCheckFunctionDdl()).ok());
  ASSERT_TRUE(db.ExecuteSqlpp(R"(UPSERT INTO SensitiveWords ([
    {"wid": "W1", "country": "C00001", "word": "bomb"}
  ]);)").ok());
  ASSERT_TRUE(db.ExecuteScript(R"(
    CREATE FEED EnrichFeed WITH { "type-name": "TweetType", "batch-size": "20" };
    CONNECT FEED EnrichFeed TO DATASET EnrichedTweets APPLY FUNCTION tweetSafetyCheck;
  )").ok());
  auto records = std::make_shared<std::vector<std::string>>();
  workload::TweetGenerator gen({.seed = 11, .country_domain = 10});
  for (int i = 0; i < 60; ++i) records->push_back(gen.NextJson());
  ASSERT_TRUE(db.SetFeedAdapterFactory("EnrichFeed",
                                       feed::MakeVectorAdapterFactory(records))
                  .ok());
  ASSERT_TRUE(db.ExecuteSqlpp("START FEED EnrichFeed;").ok());
  ASSERT_TRUE(db.WaitForFeed("EnrichFeed").ok());
  auto rows = db.ExecuteSqlpp(
      "SELECT VALUE count(t) FROM EnrichedTweets t WHERE "
      "t.safety_check_flag = \"Red\" OR t.safety_check_flag = \"Green\";");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0].AsInt(), 60);
}

TEST(InstanceTest, EveryUseCaseRunsEndToEnd) {
  std::string resource_dir = ::testing::TempDir();
  workload::RefSizes sizes = workload::SimulatorScaleSizes().Scaled(0.05);
  ASSERT_TRUE(workload::WriteNativeResources(resource_dir, sizes, 100, 1).ok());

  for (const auto& uc : workload::AllUseCases()) {
    Instance db(SmallCluster());
    ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
    ASSERT_TRUE(workload::RegisterNativeUdfs(&db.udfs(), resource_dir).ok());
    ASSERT_TRUE(db.ExecuteScript(uc.ddl).ok()) << uc.name;
    ASSERT_TRUE(db.ExecuteSqlpp(uc.function_ddl).ok()) << uc.name;
    ASSERT_TRUE(workload::LoadUseCaseData(&db.catalog(), uc, sizes, 100, 1).ok())
        << uc.name;

    // Feed 30 tweets through the dynamic framework with the UDF attached.
    auto records = std::make_shared<std::vector<std::string>>();
    workload::TweetGenerator gen({.seed = 21, .country_domain = 100});
    for (int i = 0; i < 30; ++i) records->push_back(gen.NextJson());
    ASSERT_TRUE(db.ExecuteScript(
                      "CREATE FEED UF WITH { \"type-name\": \"TweetType\", "
                      "\"batch-size\": \"10\" };"
                      "CONNECT FEED UF TO DATASET EnrichedTweets APPLY FUNCTION " +
                      uc.function_name + ";")
                    .ok())
        << uc.name;
    ASSERT_TRUE(
        db.SetFeedAdapterFactory("UF", feed::MakeVectorAdapterFactory(records)).ok());
    ASSERT_TRUE(db.ExecuteSqlpp("START FEED UF;").ok()) << uc.name;
    auto stats = db.WaitForFeed("UF");
    ASSERT_TRUE(stats.ok()) << uc.name << ": " << stats.status().ToString();
    EXPECT_EQ(stats->records_ingested, 30u) << uc.name;
    EXPECT_EQ(db.catalog().FindDataset("EnrichedTweets")->LiveRecordCount(), 30u)
        << uc.name;
  }
}

TEST(InstanceTest, UpdateClientUpsertsReferenceDataWhileAFeedEnriches) {
  // Figure 27's setup: a client upserts SafetyRatings while a feed enriches
  // tweets against them.
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  const auto& uc = workload::GetUseCase(workload::UseCaseId::kSafetyRating);
  ASSERT_TRUE(db.ExecuteScript(uc.ddl).ok());
  ASSERT_TRUE(db.ExecuteSqlpp(uc.function_ddl).ok());
  workload::RefSizes sizes = workload::SimulatorScaleSizes().Scaled(0.1);
  ASSERT_TRUE(workload::LoadUseCaseData(&db.catalog(), uc, sizes, 200, 1).ok());
  auto ratings = db.catalog().FindDataset("SafetyRatings");
  const uint64_t upserts_before = ratings->stats().upserts;

  workload::UpdateClient client(&db.catalog(), "SafetyRatings", sizes.safety_ratings,
                                /*country_domain=*/200, /*rate=*/2000);
  ASSERT_TRUE(client.Start().ok());
  auto records = std::make_shared<std::vector<std::string>>();
  workload::TweetGenerator gen({.seed = 3, .country_domain = 200});
  for (int i = 0; i < 600; ++i) records->push_back(gen.NextJson());
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE FEED UpdFeed WITH { \"type-name\": \"TweetType\", "
                    "\"batch-size\": \"50\" };"
                    "CONNECT FEED UpdFeed TO DATASET EnrichedTweets APPLY FUNCTION " +
                    uc.function_name + ";")
                  .ok());
  ASSERT_TRUE(
      db.SetFeedAdapterFactory("UpdFeed", feed::MakeVectorAdapterFactory(records)).ok());
  ASSERT_TRUE(db.ExecuteSqlpp("START FEED UpdFeed;").ok());
  auto stats = db.WaitForFeed("UpdFeed");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // A short feed can finish before the client's first upsert.
  for (int i = 0; i < 500 && client.updates_applied() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  client.Stop();
  ASSERT_TRUE(client.first_error().ok()) << client.first_error().ToString();
  EXPECT_GT(client.updates_applied(), 0u);
  EXPECT_EQ(ratings->stats().upserts, upserts_before + client.updates_applied());

  auto snap = db.catalog().FindDataset("EnrichedTweets")->Scan();
  ASSERT_EQ(snap->size(), 600u);
  for (const auto& rec : *snap) {
    EXPECT_NE(rec.GetField("safety_rating"), nullptr) << rec.ToString();
  }
}

TEST(InstanceTest, DropStatements) {
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteScript(workload::TweetDdl()).ok());
  ASSERT_TRUE(db.ExecuteSqlpp("DROP DATASET Tweets;").ok());
  EXPECT_FALSE(db.ExecuteSqlpp("SELECT VALUE t FROM Tweets t;").ok());
  EXPECT_FALSE(db.ExecuteSqlpp("DROP DATASET Tweets;").ok());
  EXPECT_TRUE(db.ExecuteSqlpp("DROP DATASET Tweets IF EXISTS;").ok());
  ASSERT_TRUE(db.ExecuteSqlpp("CREATE FUNCTION f(x) { SELECT VALUE x };").ok());
  EXPECT_TRUE(db.ExecuteSqlpp("DROP FUNCTION f;").ok());
}

TEST(InstanceTest, CreateOrReplaceFunctionUpdatesInstantly) {
  // The paper: "a SQL++ UDF can be updated ... instantly" (§3.2).
  Instance db(SmallCluster());
  ASSERT_TRUE(db.ExecuteSqlpp(
                    "CREATE FUNCTION f(x) { LET y = 1 SELECT VALUE y };")
                  .ok());
  auto v1 = db.ExecuteSqlpp("SELECT VALUE f(0)[0];");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*v1)[0].AsInt(), 1);
  EXPECT_FALSE(db.ExecuteSqlpp(
                     "CREATE FUNCTION f(x) { LET y = 2 SELECT VALUE y };")
                   .ok());  // no OR REPLACE
  ASSERT_TRUE(db.ExecuteSqlpp(
                    "CREATE OR REPLACE FUNCTION f(x) { LET y = 2 SELECT VALUE y };")
                  .ok());
  auto v2 = db.ExecuteSqlpp("SELECT VALUE f(0)[0];");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ((*v2)[0].AsInt(), 2);
}

}  // namespace
}  // namespace idea
