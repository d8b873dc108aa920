// TaskScheduler / TaskGroup / Turnstile unit tests, plus end-to-end tests of
// pipelined computing invocations (FeedConfig::pipeline_depth) on the
// per-node worker pools.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "adm/json.h"
#include "feed/active_feed_manager.h"
#include "obs/metrics.h"
#include "runtime/task_scheduler.h"
#include "storage/catalog.h"

namespace idea::runtime {
namespace {

// ---------------------------------------------------------------------------
// TaskScheduler / TaskGroup
// ---------------------------------------------------------------------------

/// The pool's idea.sched.<pool>.<name> counter (process-cumulative).
uint64_t SchedCounter(const std::string& pool, const std::string& name) {
  return obs::MetricsRegistry::Default()
      .GetCounter("idea.sched." + pool + "." + name)
      ->value();
}

TEST(TaskSchedulerTest, SequentialTasksReuseOneWorker) {
  const uint64_t run_before = SchedCounter("t-reuse", "tasks_run");
  TaskScheduler pool("t-reuse");
  for (int i = 0; i < 10; ++i) {
    TaskGroup group;
    ASSERT_TRUE(group.Launch(&pool, []() -> Status { return Status::OK(); }).ok());
    ASSERT_TRUE(group.Wait().ok());
    // Give the worker time to park; a completing worker only counts as idle
    // once it re-checks the queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Tasks reuse the parked worker instead of spawning one each (<= 2 leaves
  // room for one completion/park race, not one thread per task).
  EXPECT_LE(pool.worker_count(), 2u);
  EXPECT_EQ(SchedCounter("t-reuse", "tasks_run") - run_before, 10u);
}

TEST(TaskSchedulerTest, PoolGrowsWhenAllWorkersBlock) {
  TaskScheduler pool("t-grow");
  constexpr size_t kTasks = 4;
  std::mutex mu;
  std::condition_variable cv;
  size_t arrived = 0;
  // Each task blocks until all have started: this can only complete if the
  // pool grew to kTasks workers (the growth invariant).
  TaskGroup group;
  for (size_t i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(group
                    .Launch(&pool,
                            [&]() -> Status {
                              std::unique_lock<std::mutex> lock(mu);
                              if (++arrived == kTasks) cv.notify_all();
                              cv.wait(lock, [&] { return arrived == kTasks; });
                              return Status::OK();
                            })
                    .ok());
  }
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_GE(pool.worker_count(), kTasks);
}

TEST(TaskSchedulerTest, InterdependentBlockingTasksDoNotDeadlock) {
  // A producer/consumer pair wired by a tiny queue, submitted to the same
  // pool: the consumer may be queued behind the blocked producer, so the
  // pool must grow a worker for it.
  TaskScheduler pool("t-pipe");
  std::mutex mu;
  std::condition_variable cv;
  int handoffs = 0;  // producer increments, consumer acknowledges
  bool token = false;
  TaskGroup group;
  ASSERT_TRUE(group
                  .Launch(&pool,
                          [&]() -> Status {
                            for (int i = 0; i < 100; ++i) {
                              std::unique_lock<std::mutex> lock(mu);
                              cv.wait(lock, [&] { return !token; });
                              token = true;
                              ++handoffs;
                              cv.notify_all();
                            }
                            return Status::OK();
                          })
                  .ok());
  ASSERT_TRUE(group
                  .Launch(&pool,
                          [&]() -> Status {
                            for (int i = 0; i < 100; ++i) {
                              std::unique_lock<std::mutex> lock(mu);
                              cv.wait(lock, [&] { return token; });
                              token = false;
                              cv.notify_all();
                            }
                            return Status::OK();
                          })
                  .ok());
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_EQ(handoffs, 100);
}

TEST(TaskGroupTest, WaitReturnsFirstErrorAndCountsFailures) {
  const uint64_t run_before = SchedCounter("t-err", "tasks_run");
  const uint64_t failed_before = SchedCounter("t-err", "tasks_failed");
  TaskScheduler pool("t-err");
  TaskGroup group;
  ASSERT_TRUE(group.Launch(&pool, []() -> Status { return Status::OK(); }).ok());
  ASSERT_TRUE(group
                  .Launch(&pool,
                          []() -> Status { return Status::Internal("boom"); })
                  .ok());
  Status st = group.Wait();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("boom"), std::string::npos);
  EXPECT_EQ(SchedCounter("t-err", "tasks_failed") - failed_before, 1u);
  // Failed tasks still ran.
  EXPECT_EQ(SchedCounter("t-err", "tasks_run") - run_before, 2u);
}

TEST(TaskSchedulerTest, StopRejectsNewSubmissions) {
  TaskScheduler pool("t-stop");
  pool.Stop();
  EXPECT_FALSE(pool.Submit([] {}).ok());
  TaskGroup group;
  EXPECT_FALSE(group.Launch(&pool, []() -> Status { return Status::OK(); }).ok());
  EXPECT_TRUE(group.Wait().ok());  // nothing pending
}

TEST(TaskSchedulerTest, StopDrainsQueuedTasks) {
  // Every task submitted before Stop() runs.
  TaskScheduler pool("t-drain");
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit([&] {
                      std::this_thread::sleep_for(std::chrono::milliseconds(1));
                      done.fetch_add(1);
                    })
                    .ok());
  }
  pool.Stop();
  EXPECT_EQ(done.load(), 10);
}

// ---------------------------------------------------------------------------
// Turnstile
// ---------------------------------------------------------------------------

TEST(TurnstileTest, TicketsPassInOrder) {
  Turnstile line;
  std::vector<int> order;
  std::mutex mu;
  TaskScheduler pool("t-line");
  TaskGroup group;
  // Launch in reverse ticket order; the line must serialize them 0,1,2,3.
  for (int t = 3; t >= 0; --t) {
    ASSERT_TRUE(group
                    .Launch(&pool,
                            [&, t]() -> Status {
                              TurnstileTurn turn(&line, static_cast<uint64_t>(t));
                              turn.Acquire();
                              std::lock_guard<std::mutex> lock(mu);
                              order.push_back(t);
                              return Status::OK();  // Release via destructor
                            })
                    .ok());
  }
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TurnstileTest, ErrorPathStillAdvancesLine) {
  Turnstile line;
  {
    TurnstileTurn turn(&line, 0);
    // Simulated error return: Acquire never called, scope exits.
  }
  EXPECT_EQ(line.current(), 1u);
  // Ticket 1 must now pass immediately.
  TurnstileTurn turn(&line, 1);
  turn.Acquire();
  turn.Release();
  EXPECT_EQ(line.current(), 2u);
}

}  // namespace
}  // namespace idea::runtime

// ---------------------------------------------------------------------------
// Pipelined computing invocations (pipeline_depth) end-to-end
// ---------------------------------------------------------------------------

namespace idea::feed {
namespace {

using adm::Value;

/// Native pass-through UDF that sleeps ~1ms per batch record quota, making
/// invocation overlap observable at pipeline_depth > 1.
class SlowIdentityUdf : public NativeUdf {
 public:
  Result<Value> Evaluate(sqlpp::ArgView args) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return args[0];
  }
};

class PipelinedFeedTest : public ::testing::Test {
 protected:
  PipelinedFeedTest() {
    cluster::ClusterConfig cc;
    cc.nodes = 2;
    cc.mode = cluster::ExecutionMode::kThreads;
    cluster_ = std::make_unique<cluster::Cluster>(cc);
    afm_ = std::make_unique<ActiveFeedManager>(cluster_.get(), &catalog_, &udfs_);
    EXPECT_TRUE(catalog_
                    .CreateDatatype(adm::Datatype(
                        "KVType", {{"id", adm::FieldType::kInt64, false},
                                   {"v", adm::FieldType::kInt64, false}}))
                    .ok());
    EXPECT_TRUE(udfs_
                    .RegisterNative(
                        "testlib#slowId",
                        [] { return std::make_unique<SlowIdentityUdf>(); },
                        /*stateful=*/false)
                    .ok());
  }

  /// Records keyed id = i % 4 with increasing version v = i: position parity
  /// pins each key to one node, so per-node ship ordering decides the final
  /// version.
  static std::shared_ptr<std::vector<std::string>> VersionedRecords(size_t n) {
    auto records = std::make_shared<std::vector<std::string>>();
    for (size_t i = 0; i < n; ++i) {
      records->push_back("{\"id\": " + std::to_string(i % 4) +
                         ", \"v\": " + std::to_string(i) + "}");
    }
    return records;
  }

  Result<FeedRuntimeStats> RunFeed(const std::string& name, const std::string& dataset,
                                   size_t pipeline_depth, size_t records,
                                   const std::string& udf = "") {
    if (catalog_.FindDataset(dataset) == nullptr) {
      IDEA_RETURN_NOT_OK(catalog_.CreateDataset(dataset, "KVType", "id"));
    }
    ActiveFeedManager::StartArgs args;
    args.config.name = name;
    args.config.type_name = "KVType";
    args.config.batch_size = 8;  // many invocations
    args.config.pipeline_depth = pipeline_depth;
    args.connection.dataset = dataset;
    args.connection.apply_function = udf;
    args.adapter_factory = MakeVectorAdapterFactory(VersionedRecords(records));
    IDEA_RETURN_NOT_OK(afm_->StartFeed(std::move(args)));
    return afm_->WaitForFeedStats(name);
  }

  storage::Catalog catalog_;
  UdfRegistry udfs_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<ActiveFeedManager> afm_;
};

TEST_F(PipelinedFeedTest, DepthTwoOverlapsInvocations) {
  auto stats = RunFeed("K2", "K2Data", /*pipeline_depth=*/2, /*records=*/400,
                       "testlib#slowId");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_ingested, 400u);
  EXPECT_EQ(catalog_.FindDataset("K2Data")->LiveRecordCount(), 4u);
  // Both lanes were mid-invocation at once: the in-flight gauge reached the
  // configured depth.
  obs::Gauge* inflight =
      obs::MetricsRegistry::Default().GetGauge("idea.feed.K2.inflight_invocations");
  EXPECT_EQ(inflight->value(), 0);  // all invocations finished
  EXPECT_EQ(inflight->high_watermark(), 2);
}

TEST_F(PipelinedFeedTest, DepthOneStaysSequential) {
  auto stats = RunFeed("K1", "K1Data", /*pipeline_depth=*/1, /*records=*/200,
                       "testlib#slowId");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_ingested, 200u);
  obs::Gauge* inflight =
      obs::MetricsRegistry::Default().GetGauge("idea.feed.K1.inflight_invocations");
  EXPECT_EQ(inflight->high_watermark(), 1);
}

TEST_F(PipelinedFeedTest, PipelinedShipsStayInInvocationOrder) {
  // Overlapped invocations upsert versioned records; the per-node ship lines
  // must deliver them in invocation order, so every key ends at its maximum
  // version exactly as at depth 1.
  constexpr size_t kRecords = 400;
  auto stats = RunFeed("Ord", "OrdData", /*pipeline_depth=*/3, kRecords);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_ingested, kRecords);
  auto snap = catalog_.FindDataset("OrdData")->Scan();
  ASSERT_EQ(snap->size(), 4u);
  for (const auto& rec : *snap) {
    int64_t id = rec.GetField("id")->AsInt();
    int64_t v = rec.GetField("v")->AsInt();
    // Key k's last version is the largest i < kRecords with i % 4 == k.
    EXPECT_EQ(v, static_cast<int64_t>(kRecords - 4 + static_cast<size_t>(id)))
        << "key " << id;
  }
}

TEST_F(PipelinedFeedTest, DepthOneAndDepthTwoProduceIdenticalContents) {
  ASSERT_TRUE(RunFeed("P1", "P1Data", 1, 240).ok());
  ASSERT_TRUE(RunFeed("P2", "P2Data", 2, 240).ok());
  auto a = catalog_.FindDataset("P1Data")->Scan();
  auto b = catalog_.FindDataset("P2Data")->Scan();
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].ToString(), (*b)[i].ToString());
  }
}

}  // namespace
}  // namespace idea::feed
