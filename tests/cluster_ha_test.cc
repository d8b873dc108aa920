// Cluster liveness and feed failover: the fixed roster whose nodes stay
// alive until they are failed, the intake lease ledger's at-least-once
// redelivery, the intake router's divert past the slack, a failed-over feed
// over a paced source that must keep storing, and the end-to-end chaos
// soak — kill a node mid-feed at a randomized point and prove the stored
// contents are bit-identical to a clean run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_controller.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "feed/active_feed_manager.h"
#include "feed/intake_job.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "runtime/partition_holder.h"

namespace idea {
namespace {

using common::FaultInjector;
using common::FaultSpec;

class ClusterHaTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Default().DisarmAll();
    FaultInjector::Default().Reseed(0);
  }
};

// ---------------------------------------------------------------------------
// Node liveness

TEST_F(ClusterHaTest, RosterIsFixedAndFailedNodesKeepTheirSlot) {
  cluster::ClusterConfig cc;
  cc.nodes = 3;
  cc.mode = cluster::ExecutionMode::kThreads;
  cluster::Cluster cluster(cc);
  EXPECT_EQ(cluster.node_count(), 3u);
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    EXPECT_EQ(cluster.node(n).index(), n);
    EXPECT_TRUE(cluster.CheckAlive(n).ok());
  }
  EXPECT_EQ(cluster.LiveNodes(), (std::vector<size_t>{0, 1, 2}));
  // Nothing exists past the roster built from the config.
  EXPECT_TRUE(cluster.CheckAlive(cluster.node_count()).IsUnavailable());
  EXPECT_TRUE(cluster.FailNode(cluster.node_count()).IsNotFound());

  // Dead is terminal, so failing a dead node again is a no-op: it succeeds
  // and records no second event.
  obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
  const uint64_t events_before = recorder.events_recorded();
  ASSERT_TRUE(cluster.FailNode(1).ok());
  ASSERT_TRUE(cluster.FailNode(1).ok());
  const uint64_t new_events = recorder.events_recorded() - events_before;
  ASSERT_GT(new_events, 0u);
  size_t node1_deaths = 0;
  for (const obs::FlightEvent& event : recorder.Recent(new_events)) {
    if (event.kind == obs::FlightEventKind::kNodeDead && event.node == 1) {
      ++node1_deaths;
    }
  }
  EXPECT_EQ(node1_deaths, 1u);
  EXPECT_TRUE(cluster.CheckAlive(1).IsUnavailable());
  EXPECT_EQ(cluster.LiveNodes(), (std::vector<size_t>{0, 2}));
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  EXPECT_EQ(registry.GetGauge("idea.cluster.nodes_alive")->value(), 2);
  EXPECT_EQ(registry.GetGauge("idea.cluster.nodes_dead")->value(), 1);
  // A dead node keeps its index; the roster does not shrink.
  EXPECT_EQ(cluster.node_count(), 3u);
  EXPECT_EQ(cluster.node(1).index(), 1u);
}

// ---------------------------------------------------------------------------
// Intake lease ledger (at-least-once redelivery)

TEST_F(ClusterHaTest, LeaseLedgerRetiresFullyAckedBatches) {
  runtime::IntakePartitionHolder holder(
      runtime::PartitionHolderId{"lease-feed", "intake", 0});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(holder.Push("r" + std::to_string(i)).ok());
  }
  std::vector<std::string> out;
  uint64_t lease = 0;
  holder.PushEof();
  ASSERT_TRUE(holder.PullBatch(2, &out, &lease));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(lease, 1u);
  EXPECT_EQ(holder.Unacked(), 2u);

  holder.CloseLease(lease, 2);  // the batch ships as two frames
  EXPECT_EQ(holder.Unacked(), 2u);
  // The batch's stored records count once, when its last frame is acked.
  EXPECT_EQ(holder.AckFrame(lease, 1), 0u);
  EXPECT_EQ(holder.Unacked(), 2u);  // one frame still in flight
  EXPECT_EQ(holder.AckFrame(lease, 1), 2u);
  EXPECT_EQ(holder.Unacked(), 0u);  // durable: ledger entry retired
  // Late/unknown acks are ignored and count nothing.
  EXPECT_EQ(holder.AckFrame(lease, 1), 0u);
  EXPECT_EQ(holder.AckFrame(999, 1), 0u);

  // A batch that shipped zero frames has nothing to redeliver.
  ASSERT_TRUE(holder.PullBatch(2, &out, &lease));
  holder.CloseLease(lease, 0);
  EXPECT_EQ(holder.Unacked(), 0u);
}

TEST_F(ClusterHaTest, RedeliveryRequeuesUnackedRecordsInOriginalOrder) {
  runtime::IntakePartitionHolder holder(
      runtime::PartitionHolderId{"redeliver-feed", "intake", 0});
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(holder.Push("r" + std::to_string(i)).ok());
  }
  holder.PushEof();
  std::vector<std::string> first, second;
  uint64_t lease_a = 0, lease_b = 0;
  ASSERT_TRUE(holder.PullBatch(2, &first, &lease_a));   // r0 r1
  ASSERT_TRUE(holder.PullBatch(2, &second, &lease_b));  // r2 r3
  EXPECT_EQ(lease_a, 1u);
  EXPECT_EQ(lease_b, 2u);
  EXPECT_EQ(holder.Unacked(), 4u);

  // Batch a ships as two frames and one of them is stored; batch b is not
  // stored at all. Then the node dies. Redelivery puts both back at the
  // front, oldest lease first, so the queue reads r0 r1 r2 r3 r4 r5 again.
  holder.CloseLease(lease_a, 2);
  EXPECT_EQ(holder.AckFrame(lease_a, 1), 0u);
  EXPECT_EQ(holder.RedeliverUnacked(), 4u);
  EXPECT_EQ(holder.Unacked(), 0u);
  // Batch a's records count when the re-queued copy is stored: the frame
  // stored before the death counted nothing, and a late ack counts nothing.
  EXPECT_EQ(holder.AckFrame(lease_a, 1), 0u);
  std::vector<std::string> all;
  std::vector<std::string> batch;
  while (holder.PullBatch(8, &batch)) {
    all.insert(all.end(), batch.begin(), batch.end());
    batch.clear();
  }
  all.insert(all.end(), batch.begin(), batch.end());
  EXPECT_EQ(all, (std::vector<std::string>{"r0", "r1", "r2", "r3", "r4", "r5"}));
}

// ---------------------------------------------------------------------------
// Intake routing: round-robin, diverting past the slack

/// Adapter that holds its records until the test opens the gate, so queue
/// skew can be staged before any routing happens.
feed::AdapterFactory MakeGatedFactory(std::shared_ptr<std::vector<std::string>> records,
                                      std::shared_ptr<std::atomic<bool>> gate) {
  return [records, gate](size_t, size_t) -> Result<std::unique_ptr<feed::FeedAdapter>> {
    auto idx = std::make_shared<size_t>(0);
    return std::unique_ptr<feed::FeedAdapter>(new feed::GeneratorAdapter(
        [records, gate, idx](std::string* out) -> bool {
          while (!gate->load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          if (*idx >= records->size()) return false;
          *out = (*records)[(*idx)++];
          return true;
        }));
  };
}

TEST_F(ClusterHaTest, CongestionRoutingDrainsAroundTheHotPartition) {
  cluster::ClusterConfig cc;
  cc.nodes = 3;
  cc.mode = cluster::ExecutionMode::kThreads;
  cluster::Cluster cluster(cc);
  feed::IntakeJob intake("skew", &cluster);
  auto records = std::make_shared<std::vector<std::string>>();
  for (int i = 0; i < 300; ++i) records->push_back("rec" + std::to_string(i));
  auto gate = std::make_shared<std::atomic<bool>>(false);
  feed::FeedConfig config;
  config.name = "skew";
  config.routing_slack = 8;
  // Each partition's records_in series, read as deltas from here.
  std::vector<obs::Counter*> records_in;
  std::vector<uint64_t> records_in_before;
  for (size_t p = 0; p < 3; ++p) {
    records_in.push_back(obs::MetricsRegistry::Default().GetCounter(
        runtime::PartitionHolderId{"skew", "intake", p}.MetricPrefix() + ".records_in"));
    records_in_before.push_back(records_in[p]->value());
  }
  feed::FailurePolicy policy(config);
  EXPECT_TRUE(intake.Start(MakeGatedFactory(records, gate), config, 3, &policy).ok());

  // Stage the skew: partition 0 already holds a deep backlog.
  const size_t kPrefill = 200;
  for (size_t i = 0; i < kPrefill; ++i) {
    EXPECT_TRUE(intake.holder(0)->Push("backlog" + std::to_string(i)).ok());
  }
  gate->store(true, std::memory_order_release);
  intake.Join();

  size_t total = 0;
  for (size_t p = 0; p < intake.partition_count(); ++p) {
    total += records_in[p]->value() - records_in_before[p];
  }
  // Nothing lost: prefill + all routed records are in the holders.
  EXPECT_EQ(total, 500u);
  // Plain rotation would send the deep partition a third of the stream
  // (100 records); the router diverts past the slack instead.
  EXPECT_LT(records_in[0]->value() - records_in_before[0] - kPrefill, 20u);
}

// ---------------------------------------------------------------------------
// Kill-a-node chaos soak: contents must be bit-identical to a clean run.

struct SoakEnv {
  storage::Catalog catalog;
  feed::UdfRegistry udfs;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<feed::ActiveFeedManager> afm;

  SoakEnv() {
    cluster::ClusterConfig cc;
    cc.nodes = 3;
    cc.mode = cluster::ExecutionMode::kThreads;
    cluster = std::make_unique<cluster::Cluster>(cc);
    afm = std::make_unique<feed::ActiveFeedManager>(cluster.get(), &catalog, &udfs);
    EXPECT_TRUE(catalog
                    .CreateDatatype(adm::Datatype(
                        "T", {{"id", adm::FieldType::kInt64, false},
                              {"text", adm::FieldType::kString, false}}))
                    .ok());
    EXPECT_TRUE(catalog.CreateDataset("D", "T", "id").ok());
  }

  /// The finished feed's summary, set by RunFeed.
  feed::FeedRuntimeStats stats;

  /// Starts HA feed "Soak" over `records` into dataset D.
  Status StartFeed(std::shared_ptr<std::vector<std::string>> records,
                   size_t frame_bytes = feed::FeedConfig().frame_bytes) {
    feed::ActiveFeedManager::StartArgs args;
    args.config.name = "Soak";
    args.config.type_name = "T";
    args.config.batch_size = 48;
    args.config.frame_bytes = frame_bytes;
    args.config.ha_failover = true;
    args.config.holder_push_deadline_us = 5'000'000;
    args.connection.dataset = "D";
    args.adapter_factory = feed::MakeVectorAdapterFactory(records);
    return afm->StartFeed(std::move(args));
  }

  /// Runs the HA feed over `records` and returns the dataset's serialized
  /// contents (scan order is PK order, so equal vectors = identical stores).
  Result<std::vector<std::string>> RunFeed(
      std::shared_ptr<std::vector<std::string>> records,
      size_t frame_bytes = feed::FeedConfig().frame_bytes) {
    IDEA_RETURN_NOT_OK(StartFeed(std::move(records), frame_bytes));
    IDEA_ASSIGN_OR_RETURN(stats, afm->WaitForFeedStats("Soak"));
    std::vector<std::string> out;
    auto snapshot = catalog.FindDataset("D")->Scan();
    for (const adm::Value& v : *snapshot) out.push_back(v.ToString());
    return out;
  }
};

std::shared_ptr<std::vector<std::string>> SoakRecords(size_t n) {
  auto records = std::make_shared<std::vector<std::string>>();
  for (size_t i = 0; i < n; ++i) {
    records->push_back("{\"id\": " + std::to_string(i) + ", \"text\": \"payload-" +
                       std::to_string(i * 31 % 97) + "\"}");
  }
  return records;
}

TEST_F(ClusterHaTest, KillANodeSoakLeavesContentsBitIdentical) {
  auto records = SoakRecords(400);
  // Clean reference run: no faults.
  std::vector<std::string> reference;
  {
    SoakEnv env;
    auto got = env.RunFeed(records);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    reference = std::move(got).value();
  }
  ASSERT_EQ(reference.size(), 400u);
  // The liveness-probe hits of a clean round over 256-byte frames. A
  // probability trigger counts every hit exactly, and one that never fires
  // leaves the round clean.
  uint64_t clean_hits = 0;
  {
    FaultInjector::Default().Arm("node.kill", FaultSpec::Probability(0.0));
    SoakEnv env;
    auto got = env.RunFeed(records, 256);
    clean_hits = FaultInjector::Default().GetStats("node.kill").hits;
    FaultInjector::Default().DisarmAll();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(*got, reference);
  }

  // Chaos rounds: each arms node.kill at one liveness-probe hit, so the
  // victim node and the pipeline stage it dies in vary per round. The kill
  // must happen, and the feed must fail over and converge to the exact same
  // contents.
  obs::Counter* ingested_series =
      obs::MetricsRegistry::Default().GetCounter("idea.feed.Soak.records_ingested");
  uint64_t redelivered = 0;
  auto round = [&](uint64_t kill_at, size_t frame_bytes, uint64_t seed) {
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at) +
                 " frame_bytes=" + std::to_string(frame_bytes));
    FaultInjector::Default().Reseed(seed);
    FaultInjector::Default().Arm("node.kill", FaultSpec::Nth(kill_at));
    const uint64_t ingested_before = ingested_series->value();
    SoakEnv env;
    auto got = env.RunFeed(records, frame_bytes);
    FaultInjector::Default().DisarmAll();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GE(env.stats.failovers, 1u) << "the kill never happened";
    EXPECT_EQ(*got, reference);
    EXPECT_EQ(env.catalog.FindDataset("D")->LiveRecordCount(), 400u);
    // A redelivered record is stored again but counts once, in the feed's
    // summary and in its registry series alike.
    EXPECT_EQ(env.stats.records_ingested, 400u);
    EXPECT_EQ(ingested_series->value() - ingested_before, 400u);
    redelivered += env.stats.records_redelivered;
  };
  // Kills among the first probe hits land in the intake and compute stages.
  Rng rng(0xC1A05u);
  for (int r = 0; r < 5; ++r) {
    round(1 + rng.NextBelow(24), feed::FeedConfig().frame_bytes, 1000 + r);
  }
  // 256-byte frames carry a few records each, so the storage drains probe
  // once per few records; the late kill points reach the drains' hits,
  // some of them after the last invocation. The points run up to a clean
  // round's last probe hit, so every round's kill happens.
  for (uint64_t k = 10; k < clean_hits; k += 2) round(k, 256, 2000 + k);
  // The rounds must redeliver something, or the counts above prove nothing.
  EXPECT_GT(redelivered, 0u);
}

/// A node that dies after the last invocation, while the storage drains still
/// work through their backlog, takes its drain's queued frames with it. The
/// feed must fail over and redeliver before it closes the storage job, not
/// end OK with those records missing.
TEST_F(ClusterHaTest, NodeLostWhileDrainsFinishTheBacklogFailsOver) {
  obs::Counter* pulled =
      obs::MetricsRegistry::Default().GetCounter("idea.compute.Soak.records_in");
  const uint64_t pulled_before = pulled->value();
  SoakEnv env;
  std::shared_ptr<storage::LsmDataset> dataset = env.catalog.FindDataset("D");
  // Slow writes: the drains are still storing long after the computing job
  // has shipped the last batch.
  FaultInjector::Default().Arm("storage.apply", FaultSpec::Delay(1000));
  ASSERT_TRUE(env.StartFeed(SoakRecords(400), /*frame_bytes=*/256).ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pulled->value() - pulled_before < 400 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(pulled->value() - pulled_before, 400u) << "the feed never shipped every record";
  EXPECT_LT(dataset->LiveRecordCount(), 400u) << "the drains finished before the kill";
  ASSERT_TRUE(env.cluster->FailNode(1).ok());
  auto stats = env.afm->WaitForFeedStats("Soak");
  FaultInjector::Default().DisarmAll();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->failovers, 1u);
  EXPECT_EQ(dataset->LiveRecordCount(), 400u);
  EXPECT_EQ(stats->records_ingested, 400u);
}

// ---------------------------------------------------------------------------
// Paced sources: a source slower than the pipeline (the always-on case) must
// keep being stored after a node dies. Every invocation waits for every
// partition's share of its batch, so one partition the router stops feeding
// would stall the whole feed.

/// Records that the test releases in steps. The adapter hands out released
/// records and then waits for more, so every step reaches an idle pipeline.
/// Closing the source ends the stream; the destructor closes it too, so a
/// failed assertion cannot leave the feed's shutdown waiting on the adapter.
class PacedSource {
 public:
  explicit PacedSource(std::shared_ptr<std::vector<std::string>> records)
      : state_(std::make_shared<State>()) {
    state_->records = std::move(records);
  }
  ~PacedSource() { Close(); }

  feed::AdapterFactory Factory() const {
    std::shared_ptr<State> state = state_;
    return [state](size_t, size_t) -> Result<std::unique_ptr<feed::FeedAdapter>> {
      auto next = std::make_shared<size_t>(0);
      return std::unique_ptr<feed::FeedAdapter>(
          new feed::GeneratorAdapter([state, next](std::string* out) -> bool {
            std::unique_lock<std::mutex> lock(state->mu);
            state->cv.wait(lock,
                           [&] { return *next < state->released || state->closed; });
            if (*next >= state->released) return false;
            *out = (*state->records)[(*next)++];
            return true;
          }));
    };
  }

  /// Releases `n` more records and returns how many are released in all.
  size_t Release(size_t n) {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->released = std::min(state_->released + n, state_->records->size());
    state_->cv.notify_all();
    return state_->released;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->closed = true;
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::shared_ptr<std::vector<std::string>> records;
    size_t released = 0;
    bool closed = false;
  };
  std::shared_ptr<State> state_;
};

/// Polls `dataset` until it holds `want` records; false if that takes longer
/// than the deadline.
bool WaitForStored(const storage::LsmDataset& dataset, size_t want) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (dataset.LiveRecordCount() < want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Batch size of the paced feeds, and the step the source is released in:
/// one full batch, 20 records per partition of a 3-node cluster.
constexpr size_t kPacedStep = 60;

feed::ActiveFeedManager::StartArgs PacedFeedArgs(const std::string& name,
                                                 const PacedSource& source) {
  feed::ActiveFeedManager::StartArgs args;
  args.config.name = name;
  args.config.type_name = "T";
  args.config.batch_size = kPacedStep;
  args.config.holder_push_deadline_us = 5'000'000;
  args.connection.dataset = "D";
  args.adapter_factory = source.Factory();
  return args;
}

TEST_F(ClusterHaTest, FailedOverFeedKeepsStoringAPacedSource) {
  SoakEnv env;
  PacedSource source(SoakRecords(10 * kPacedStep));
  feed::ActiveFeedManager::StartArgs args = PacedFeedArgs("PacedFailover", source);
  args.config.ha_failover = true;
  ASSERT_TRUE(env.afm->StartFeed(std::move(args)).ok());
  std::shared_ptr<storage::LsmDataset> dataset = env.catalog.FindDataset("D");
  for (int step = 0; step < 10; ++step) {
    // Node 2 dies mid-feed, after three steps are stored. The records
    // released after that must still reach storage, its partition's share
    // included.
    if (step == 3) {
      ASSERT_TRUE(env.cluster->FailNode(2).ok());
    }
    const size_t released = source.Release(kPacedStep);
    ASSERT_TRUE(WaitForStored(*dataset, released))
        << "step " << step << ": stored " << dataset->LiveRecordCount() << " of "
        << released;
  }
  source.Close();
  auto stats = env.afm->WaitForFeedStats("PacedFailover");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->failovers, 1u);
  EXPECT_EQ(dataset->LiveRecordCount(), 10 * kPacedStep);
}

TEST_F(ClusterHaTest, FailoverStatsRecordTheRecovery) {
  auto records = SoakRecords(400);
  FaultInjector::Default().Reseed(77);
  FaultInjector::Default().Arm("node.kill", FaultSpec::Nth(3));

  cluster::ClusterConfig cc;
  cc.nodes = 3;
  cc.mode = cluster::ExecutionMode::kThreads;
  cluster::Cluster cluster(cc);
  storage::Catalog catalog;
  feed::UdfRegistry udfs;
  feed::ActiveFeedManager afm(&cluster, &catalog, &udfs);
  ASSERT_TRUE(catalog
                  .CreateDatatype(adm::Datatype(
                      "T", {{"id", adm::FieldType::kInt64, false},
                            {"text", adm::FieldType::kString, false}}))
                  .ok());
  ASSERT_TRUE(catalog.CreateDataset("D", "T", "id").ok());

  feed::ActiveFeedManager::StartArgs args;
  args.config.name = "Stats";
  args.config.type_name = "T";
  args.config.batch_size = 48;
  args.config.ha_failover = true;
  args.config.holder_push_deadline_us = 5'000'000;
  args.connection.dataset = "D";
  args.adapter_factory = feed::MakeVectorAdapterFactory(records);
  ASSERT_TRUE(afm.StartFeed(std::move(args)).ok());
  auto stats = afm.WaitForFeedStats("Stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_EQ(catalog.FindDataset("D")->LiveRecordCount(), 400u);
  EXPECT_GE(stats->failovers, 1u);
  EXPECT_GT(stats->last_recovery_us, 0.0);
}

}  // namespace
}  // namespace idea
