#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include <algorithm>

#include "adm/json.h"
#include "feed/active_feed_manager.h"
#include "feed/adapter.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "workload/tweets.h"
#include "sqlpp/parser.h"
#include "workload/usecases.h"

namespace idea::feed {
namespace {

using adm::Value;

/// Shared fixture: a small cluster + Tweets/EnrichedTweets + SensitiveWords
/// with the Figure 8 UDF.
class FeedPipelineTest : public ::testing::Test {
 protected:
  FeedPipelineTest() {
    cluster::ClusterConfig cc;
    cc.nodes = 3;
    cc.mode = cluster::ExecutionMode::kThreads;
    cluster_ = std::make_unique<cluster::Cluster>(cc);
    afm_ = std::make_unique<ActiveFeedManager>(cluster_.get(), &catalog_, &udfs_);

    SetupTypes();
  }

  void SetupTypes() {
    ASSERT_TRUE(catalog_
                    .CreateDatatype(adm::Datatype(
                        "TweetType", {{"id", adm::FieldType::kInt64, false},
                                      {"text", adm::FieldType::kString, false}}))
                    .ok());
    ASSERT_TRUE(catalog_.CreateDataset("Tweets", "TweetType", "id").ok());
    ASSERT_TRUE(catalog_.CreateDataset("EnrichedTweets", "TweetType", "id").ok());
    ASSERT_TRUE(catalog_
                    .CreateDatatype(adm::Datatype(
                        "SensitiveWordType", {{"wid", adm::FieldType::kString, false}}))
                    .ok());
    ASSERT_TRUE(catalog_.CreateDataset("SensitiveWords", "SensitiveWordType", "wid").ok());
    auto words = catalog_.FindDataset("SensitiveWords");
    ASSERT_TRUE(words
                    ->Upsert(adm::ParseJson(
                                 R"({"wid":"W1","country":"US","word":"bomb"})")
                                 .value())
                    .ok());

    // Figure 8 UDF.
    auto fn = sqlpp::ParseStatement(workload::TweetSafetyCheckFunctionDdl());
    ASSERT_TRUE(fn.ok());
    sqlpp::SqlppFunctionDef def;
    def.name = fn->create_function.name;
    def.params = fn->create_function.params;
    def.body = std::shared_ptr<const sqlpp::SelectStatement>(
        std::move(fn->create_function.body));
    ASSERT_TRUE(udfs_.RegisterSqlpp(std::move(def), false).ok());
  }

  static std::shared_ptr<std::vector<std::string>> MakeTweets(size_t n) {
    auto records = std::make_shared<std::vector<std::string>>();
    for (size_t i = 0; i < n; ++i) {
      std::string country = i % 2 == 0 ? "US" : "CA";
      std::string text = i % 4 == 0 ? "there is a bomb here" : "sunny day";
      records->push_back("{\"id\": " + std::to_string(i) + ", \"text\": \"" + text +
                         "\", \"country\": \"" + country + "\"}");
    }
    return records;
  }

  storage::Catalog catalog_;
  UdfRegistry udfs_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<ActiveFeedManager> afm_;
};

TEST_F(FeedPipelineTest, BasicIngestionWithoutUdf) {
  auto records = MakeTweets(500);
  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.config.batch_size = 60;
  args.connection.dataset = "Tweets";
  args.adapter_factory = MakeVectorAdapterFactory(records);
  ASSERT_TRUE(afm_->StartFeed(std::move(args)).ok());
  auto stats = afm_->WaitForFeedStats("F");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_ingested, 500u);
  EXPECT_GE(stats->computing_jobs, 500u / 60u);
  EXPECT_EQ(catalog_.FindDataset("Tweets")->LiveRecordCount(), 500u);
}

TEST_F(FeedPipelineTest, StatefulSqlppUdfEnrichesDuringIngestion) {
  auto records = MakeTweets(200);
  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.config.batch_size = 40;
  args.connection.dataset = "EnrichedTweets";
  args.connection.apply_function = "tweetSafetyCheck";
  args.adapter_factory = MakeVectorAdapterFactory(records);
  ASSERT_TRUE(afm_->StartFeed(std::move(args)).ok());
  ASSERT_TRUE(afm_->WaitForFeed("F").ok());

  auto snap = catalog_.FindDataset("EnrichedTweets")->Scan();
  ASSERT_EQ(snap->size(), 200u);
  size_t red = 0;
  for (const auto& rec : *snap) {
    const Value* flag = rec.GetField("safety_check_flag");
    ASSERT_NE(flag, nullptr) << rec.ToString();
    if (flag->AsString() == "Red") ++red;
  }
  // Red requires US (every other tweet) AND "bomb" (every fourth): ids ≡ 0 mod 4.
  EXPECT_EQ(red, 50u);
}

TEST_F(FeedPipelineTest, BalancedIntakeUsesAllNodes) {
  auto records = MakeTweets(300);
  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.config.batch_size = 50;
  args.config.balanced_intake = true;
  args.connection.dataset = "Tweets";
  args.adapter_factory = MakeVectorAdapterFactory(records);
  ASSERT_TRUE(afm_->StartFeed(std::move(args)).ok());
  ASSERT_TRUE(afm_->WaitForFeed("F").ok());
  EXPECT_EQ(catalog_.FindDataset("Tweets")->LiveRecordCount(), 300u);
}

TEST_F(FeedPipelineTest, DynamicEnrichmentSeesReferenceUpdatesBetweenBatches) {
  // Manual batch control: deploy + run computing jobs one at a time.
  FeedConfig config;
  config.name = "Manual";
  config.type_name = "TweetType";
  config.batch_size = 3;  // one per node
  ASSERT_TRUE(ComputingJob::Deploy("Manual", config, "tweetSafetyCheck", cluster_.get(),
                                   &catalog_, &udfs_)
                  .ok());
  // Wire holders manually (normally the intake/storage jobs do this).
  auto dataset = catalog_.FindDataset("EnrichedTweets");
  StorageJob storage("Manual", cluster_.get(), dataset);
  ASSERT_TRUE(storage.Start().ok());
  std::vector<std::shared_ptr<runtime::IntakePartitionHolder>> intake;
  for (size_t p = 0; p < cluster_->node_count(); ++p) {
    auto holder = std::make_shared<runtime::IntakePartitionHolder>(
        runtime::PartitionHolderId{"Manual", "intake", p});
    ASSERT_TRUE(cluster_->node(p).holders().RegisterIntake(holder).ok());
    intake.push_back(holder);
  }

  auto push_round = [&](int64_t base_id) {
    for (size_t p = 0; p < 3; ++p) {
      ASSERT_TRUE(intake[p]
                      ->Push("{\"id\": " + std::to_string(base_id + static_cast<int64_t>(p)) +
                             ", \"text\": \"totally sunny\", \"country\": \"US\"}")
                      .ok());
    }
  };

  push_round(0);
  auto inv1 = ComputingJob::RunOnce("Manual", config, cluster_.get());
  ASSERT_TRUE(inv1.ok()) << inv1.status().ToString();
  EXPECT_EQ(inv1->records_out, 3u);

  // Add "sunny" as a sensitive word for US: the NEXT batch must see it.
  ASSERT_TRUE(catalog_.FindDataset("SensitiveWords")
                  ->Upsert(adm::ParseJson(
                               R"({"wid":"W2","country":"US","word":"sunny"})")
                               .value())
                  .ok());

  push_round(10);
  auto inv2 = ComputingJob::RunOnce("Manual", config, cluster_.get());
  ASSERT_TRUE(inv2.ok());

  for (auto& h : intake) h->PushEof();
  auto inv3 = ComputingJob::RunOnce("Manual", config, cluster_.get());
  ASSERT_TRUE(inv3.ok());
  EXPECT_TRUE(inv3->intake_exhausted);
  storage.Close();
  storage.Join();

  auto snap = dataset->Scan();
  ASSERT_EQ(snap->size(), 6u);
  for (const auto& rec : *snap) {
    int64_t id = rec.GetField("id")->AsInt();
    const std::string& flag = rec.GetField("safety_check_flag")->AsString();
    // First batch (ids 0-2): "sunny" not yet sensitive -> Green.
    // Second batch (ids 10-12): refreshed state -> Red.
    EXPECT_EQ(flag, id < 10 ? "Green" : "Red") << rec.ToString();
  }
  ASSERT_TRUE(ComputingJob::Undeploy("Manual", cluster_.get()).ok());
}

TEST_F(FeedPipelineTest, TracedBatchCrossesAllThreePipelineStages) {
  obs::Tracer::Default().Clear();
  auto records = MakeTweets(120);
  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.config.batch_size = 30;
  args.connection.dataset = "EnrichedTweets";
  args.connection.apply_function = "tweetSafetyCheck";
  args.adapter_factory = MakeVectorAdapterFactory(records);
  ASSERT_TRUE(afm_->StartFeed(std::move(args)).ok());
  ASSERT_TRUE(afm_->WaitForFeed("F").ok());

  // Every non-empty batch left a trace whose spans cover the decoupled
  // pipeline end to end: intake pull -> computing job -> storage job.
  std::vector<obs::BatchTrace> traces = obs::Tracer::Default().Recent();
  ASSERT_FALSE(traces.empty());
  bool found_full = false;
  for (const auto& trace : traces) {
    EXPECT_EQ(trace.feed, "F");
    auto min_start = [&](const std::string& name) {
      double best = -1;
      for (const auto& s : trace.spans) {
        if (s.name == name && (best < 0 || s.start_us < best)) best = s.start_us;
      }
      return best;
    };
    for (const auto& s : trace.spans) {
      EXPECT_GE(s.dur_us, 0) << s.name;
      EXPECT_GE(s.start_us, 0) << s.name;
      EXPECT_GE(s.node, 0) << s.name;
    }
    double pull = min_start("intake.pull");
    double parse = min_start("compute.parse");
    double init = min_start("compute.init");
    double enrich = min_start("compute.enrich");
    double ship = min_start("compute.ship");
    double store = min_start("storage.store");
    double flush = min_start("storage.flush");
    if (pull < 0 || store < 0) continue;  // trailing partial batch
    ASSERT_GE(parse, 0);
    ASSERT_GE(init, 0);
    ASSERT_GE(enrich, 0);
    ASSERT_GE(ship, 0);
    ASSERT_GE(flush, 0);
    // Stage starts are ordered: a node parses only after its pull returned,
    // enriches after state init, ships after enrichment, and the storage job
    // stores/flushes a frame only after some node shipped it.
    EXPECT_LE(pull, parse);
    EXPECT_LE(parse, init);
    EXPECT_LE(init, enrich);
    EXPECT_LE(enrich, ship);
    EXPECT_LE(ship, store);
    EXPECT_LE(store, flush);
    found_full = true;
  }
  EXPECT_TRUE(found_full);
}

TEST_F(FeedPipelineTest, StatelessUdfEnrichesThroughAFeed) {
  // Figure 6's stateless UDF attached to a feed.
  auto fn = sqlpp::ParseStatement(R"(
    CREATE FUNCTION USTweetSafetyCheck(tweet) {
      LET safety_check_flag =
        CASE tweet.country = "US" AND contains(tweet.text, "bomb")
          WHEN true THEN "Red" ELSE "Green" END
      SELECT tweet.*, safety_check_flag
    };)");
  ASSERT_TRUE(fn.ok());
  sqlpp::SqlppFunctionDef def;
  def.name = "USTweetSafetyCheck";
  def.params = fn->create_function.params;
  def.body = std::shared_ptr<const sqlpp::SelectStatement>(
      std::move(fn->create_function.body));
  ASSERT_TRUE(udfs_.RegisterSqlpp(std::move(def), false).ok());

  ActiveFeedManager::StartArgs args;
  args.config.name = "Stateless";
  args.config.type_name = "TweetType";
  args.connection.dataset = "EnrichedTweets";
  args.connection.apply_function = "USTweetSafetyCheck";
  args.adapter_factory = MakeVectorAdapterFactory(MakeTweets(100));
  ASSERT_TRUE(afm_->StartFeed(std::move(args)).ok());
  auto stats = afm_->WaitForFeedStats("Stateless");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_ingested, 100u);
  auto snap = catalog_.FindDataset("EnrichedTweets")->Scan();
  ASSERT_EQ(snap->size(), 100u);
  size_t red = 0;
  for (const auto& rec : *snap) {
    if (rec.GetField("safety_check_flag")->AsString() == "Red") ++red;
  }
  EXPECT_EQ(red, 25u);  // US and "bomb": ids ≡ 0 mod 4
}

TEST_F(FeedPipelineTest, InvocationPullsTheWholeBatchOverUnevenPartitions) {
  // 10 records over 3 partitions: one partition pulls the remainder record.
  FeedConfig config;
  config.name = "Uneven";
  config.type_name = "TweetType";
  config.batch_size = 10;
  ASSERT_TRUE(ComputingJob::Deploy("Uneven", config, "", cluster_.get(), &catalog_, &udfs_)
                  .ok());
  StorageJob storage("Uneven", cluster_.get(), catalog_.FindDataset("Tweets"));
  ASSERT_TRUE(storage.Start().ok());
  auto records = MakeTweets(15);
  for (size_t p = 0; p < cluster_->node_count(); ++p) {
    auto holder = std::make_shared<runtime::IntakePartitionHolder>(
        runtime::PartitionHolderId{"Uneven", "intake", p});
    ASSERT_TRUE(cluster_->node(p).holders().RegisterIntake(holder).ok());
    for (size_t i = p; i < records->size(); i += 3) {
      ASSERT_TRUE(holder->Push(std::string((*records)[i])).ok());
    }
  }
  auto inv = ComputingJob::RunOnce("Uneven", config, cluster_.get());
  ASSERT_TRUE(inv.ok()) << inv.status().ToString();
  EXPECT_EQ(inv->records_in, 10u);
  EXPECT_EQ(inv->records_out, 10u);
  storage.Close();
  storage.Join();
  EXPECT_EQ(catalog_.FindDataset("Tweets")->LiveRecordCount(), 10u);
  for (size_t p = 0; p < cluster_->node_count(); ++p) {
    (void)cluster_->node(p).holders().Unregister(
        runtime::PartitionHolderId{"Uneven", "intake", p});
  }
  ASSERT_TRUE(ComputingJob::Undeploy("Uneven", cluster_.get()).ok());
}

TEST_F(FeedPipelineTest, FeedRunsBatchSizeRecordsPerInvocation) {
  // 100 records at batch-size 10 on 3 nodes: ten full invocations (plus at
  // most one trailing partial one), not 3+3+3-record ones.
  ActiveFeedManager::StartArgs args;
  args.config.name = "Batch10";
  args.config.type_name = "TweetType";
  args.config.batch_size = 10;
  args.connection.dataset = "Tweets";
  args.adapter_factory = MakeVectorAdapterFactory(MakeTweets(100));
  ASSERT_TRUE(afm_->StartFeed(std::move(args)).ok());
  auto stats = afm_->WaitForFeedStats("Batch10");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_ingested, 100u);
  EXPECT_LE(obs::MetricsRegistry::Default()
                .GetCounter("idea.compute.Batch10.invocations")
                ->value(),
            11u);
}

TEST_F(FeedPipelineTest, TaskCpuHistogramsHoldOneSamplePerTask) {
  auto records = MakeTweets(150);
  ActiveFeedManager::StartArgs args;
  args.config.name = "Cpu";
  args.config.type_name = "TweetType";
  args.config.batch_size = 30;
  args.connection.dataset = "EnrichedTweets";
  args.connection.apply_function = "tweetSafetyCheck";
  args.adapter_factory = MakeVectorAdapterFactory(records);
  ASSERT_TRUE(afm_->StartFeed(std::move(args)).ok());
  ASSERT_TRUE(afm_->WaitForFeed("Cpu").ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const uint64_t invocations = reg.GetCounter("idea.compute.Cpu.invocations")->value();
  ASSERT_GE(invocations, 5u);
  const uint64_t tasks = invocations * cluster_->node_count();
  for (const char* stage : {"parse", "init", "enrich", "ship"}) {
    EXPECT_EQ(reg.GetHistogram(std::string("idea.compute.Cpu.") + stage + "_cpu_us")->count(),
              tasks)
        << stage;
  }
  obs::Histogram* critical = reg.GetHistogram("idea.compute.Cpu.critical_cpu_us");
  EXPECT_EQ(critical->count(), invocations);
  EXPECT_GT(critical->sum(), 0);
  EXPECT_GT(reg.GetCounter("idea.compute.Cpu.ship_bytes")->value(), 0u);
  EXPECT_EQ(reg.GetHistogram("idea.intake.Cpu.adapter_cpu_us")->count(), 1u);
  const uint64_t frames = reg.GetCounter("idea.storage.Cpu.frames")->value();
  EXPECT_GE(frames, invocations);
  EXPECT_EQ(reg.GetHistogram("idea.storage.Cpu.decode_cpu_us")->count(), frames);
  EXPECT_EQ(reg.GetHistogram("idea.storage.Cpu.apply_cpu_us")->count(), frames);
}

TEST_F(FeedPipelineTest, StopFeedDrainsInFlightRecords) {
  // Infinite generator; STOP FEED must cut it off and drain cleanly.
  std::atomic<int64_t> next_id{0};
  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.config.batch_size = 30;
  args.connection.dataset = "Tweets";
  args.adapter_factory = [&](size_t, size_t) -> Result<std::unique_ptr<FeedAdapter>> {
    return std::unique_ptr<FeedAdapter>(
        std::make_unique<GeneratorAdapter>([&](std::string* out) {
          int64_t id = next_id.fetch_add(1);
          *out = "{\"id\": " + std::to_string(id) + ", \"text\": \"x\"}";
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          return true;
        }));
  };
  ASSERT_TRUE(afm_->StartFeed(std::move(args)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(afm_->StopFeed("F").ok());
  auto stats = afm_->WaitForFeedStats("F");
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->records_ingested, 0u);
  // Every generated-and-accepted record must be stored (drain, not drop).
  EXPECT_EQ(catalog_.FindDataset("Tweets")->LiveRecordCount(),
            stats->records_ingested);
}

TEST_F(FeedPipelineTest, ParseErrorsAreCountedNotFatal) {
  auto records = std::make_shared<std::vector<std::string>>();
  records->push_back("{\"id\": 1, \"text\": \"ok\"}");
  records->push_back("{{{not json");
  records->push_back("{\"id\": 2, \"text\": \"ok\"}");
  records->push_back("{\"text\": \"missing id\"}");  // fails datatype check
  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.config.batch_size = 2;
  args.connection.dataset = "Tweets";
  args.adapter_factory = MakeVectorAdapterFactory(records);
  ASSERT_TRUE(afm_->StartFeed(std::move(args)).ok());
  auto stats = afm_->WaitForFeedStats("F");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_ingested, 2u);
  // Lexer failures and datatype rejects are counted apart.
  EXPECT_EQ(stats->parse_errors, 1u);
  EXPECT_EQ(stats->validation_errors, 1u);
}

TEST_F(FeedPipelineTest, FeedCannotStartTwice) {
  auto records = MakeTweets(50);
  ActiveFeedManager::StartArgs args;
  args.config.name = "F";
  args.config.type_name = "TweetType";
  args.connection.dataset = "Tweets";
  args.adapter_factory = MakeVectorAdapterFactory(records);
  ASSERT_TRUE(afm_->StartFeed(std::move(args)).ok());
  ActiveFeedManager::StartArgs again;
  again.config.name = "F";
  again.connection.dataset = "Tweets";
  again.adapter_factory = MakeVectorAdapterFactory(records);
  EXPECT_EQ(afm_->StartFeed(std::move(again)).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(afm_->WaitForFeed("F").ok());
}

TEST_F(FeedPipelineTest, TwoConcurrentFeedsShareNodePoolsWithoutCrosstalk) {
  // Two feeds run at once on the same per-node worker pools; each must drain
  // fully and report only its own traffic.
  auto r1 = MakeTweets(300);
  auto r2 = MakeTweets(500);
  ActiveFeedManager::StartArgs a1;
  a1.config.name = "F1";
  a1.config.type_name = "TweetType";
  a1.config.batch_size = 40;
  a1.connection.dataset = "Tweets";
  a1.adapter_factory = MakeVectorAdapterFactory(r1);
  ActiveFeedManager::StartArgs a2;
  a2.config.name = "F2";
  a2.config.type_name = "TweetType";
  a2.config.batch_size = 60;
  a2.connection.dataset = "EnrichedTweets";
  a2.connection.apply_function = "tweetSafetyCheck";
  a2.adapter_factory = MakeVectorAdapterFactory(r2);
  ASSERT_TRUE(afm_->StartFeed(std::move(a1)).ok());
  ASSERT_TRUE(afm_->StartFeed(std::move(a2)).ok());
  ASSERT_EQ(afm_->ActiveFeeds().size(), 2u);
  auto s1 = afm_->WaitForFeedStats("F1");
  auto s2 = afm_->WaitForFeedStats("F2");
  ASSERT_TRUE(s1.ok()) << s1.status().ToString();
  ASSERT_TRUE(s2.ok()) << s2.status().ToString();
  EXPECT_EQ(s1->records_ingested, 300u);
  EXPECT_EQ(s2->records_ingested, 500u);
  EXPECT_EQ(catalog_.FindDataset("Tweets")->LiveRecordCount(), 300u);
  EXPECT_EQ(catalog_.FindDataset("EnrichedTweets")->LiveRecordCount(), 500u);
}

class FailingUdf : public NativeUdf {
 public:
  Result<Value> Evaluate(sqlpp::ArgView) override {
    return Status::Internal("injected UDF failure");
  }
};

TEST_F(FeedPipelineTest, UdfErrorInOneFeedDoesNotStallAnother) {
  ASSERT_TRUE(udfs_
                  .RegisterNative(
                      "testlib#alwaysFail",
                      [] { return std::make_unique<FailingUdf>(); },
                      /*stateful=*/false)
                  .ok());
  auto bad = MakeTweets(200);
  auto good = MakeTweets(400);
  ActiveFeedManager::StartArgs ab;
  ab.config.name = "Bad";
  ab.config.type_name = "TweetType";
  ab.config.batch_size = 30;
  ab.connection.dataset = "EnrichedTweets";
  ab.connection.apply_function = "testlib#alwaysFail";
  ab.adapter_factory = MakeVectorAdapterFactory(bad);
  ActiveFeedManager::StartArgs ag;
  ag.config.name = "Good";
  ag.config.type_name = "TweetType";
  ag.config.batch_size = 50;
  ag.connection.dataset = "Tweets";
  ag.adapter_factory = MakeVectorAdapterFactory(good);
  ASSERT_TRUE(afm_->StartFeed(std::move(ab)).ok());
  ASSERT_TRUE(afm_->StartFeed(std::move(ag)).ok());
  // The failing feed must terminate with the injected error...
  auto sb = afm_->WaitForFeedStats("Bad");
  ASSERT_FALSE(sb.ok());
  EXPECT_NE(sb.status().ToString().find("injected UDF failure"), std::string::npos);
  // ...while the healthy feed, sharing every pool, drains completely.
  auto sg = afm_->WaitForFeedStats("Good");
  ASSERT_TRUE(sg.ok()) << sg.status().ToString();
  EXPECT_EQ(sg->records_ingested, 400u);
  EXPECT_EQ(catalog_.FindDataset("Tweets")->LiveRecordCount(), 400u);
}

TEST(SocketAdapterTest, ReceivesNewlineDelimitedRecords) {
  auto adapter = SocketAdapter::Listen(0);
  ASSERT_TRUE(adapter.ok()) << adapter.status().ToString();
  int port = (*adapter)->bound_port();
  ASSERT_GT(port, 0);

  std::thread client([port] {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    for (int retry = 0; retry < 50; ++retry) {
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const char* payload = "{\"id\":1}\n{\"id\":2}\n{\"id\":3}";
    ASSERT_GT(::write(fd, payload, strlen(payload)), 0);
    ::close(fd);
  });

  std::vector<std::string> received;
  std::string rec;
  while ((*adapter)->Next(&rec)) received.push_back(rec);
  client.join();
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[0], "{\"id\":1}");
  EXPECT_EQ(received[2], "{\"id\":3}");  // final unterminated record flushed
}

}  // namespace
}  // namespace idea::feed
