// Cluster liveness and feed failover: the fixed, epoch-stamped roster,
// heartbeat-driven suspect/dead transitions, the intake lease ledger's
// at-least-once redelivery, the intake router's divert past the slack, feeds
// over a paced source that must keep storing with a suspect or dead node, and
// the end-to-end chaos soak — kill a node mid-feed at a randomized point and
// prove the stored contents are bit-identical to a clean run.
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
#include "cluster/membership.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "feed/active_feed_manager.h"
#include "feed/intake_job.h"
#include "runtime/partition_holder.h"

namespace idea {
namespace {

using cluster::HealthMonitorOptions;
using cluster::MembershipTable;
using cluster::NodeState;
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
// Membership table

TEST_F(ClusterHaTest, MembershipEpochAdvancesOnEveryRealTransition) {
  MembershipTable table;
  EXPECT_EQ(table.epoch(), 0u);
  EXPECT_EQ(table.AddNode(), 0u);
  EXPECT_EQ(table.AddNode(), 1u);
  const uint64_t after_add = table.epoch();
  EXPECT_EQ(after_add, 2u);

  ASSERT_TRUE(table.SetState(0, NodeState::kSuspect).ok());
  EXPECT_EQ(table.epoch(), after_add + 1);
  // No-op transition: same state must not advance the epoch (routers would
  // needlessly rebuild their bitmaps).
  ASSERT_TRUE(table.SetState(0, NodeState::kSuspect).ok());
  EXPECT_EQ(table.epoch(), after_add + 1);

  EXPECT_TRUE(table.IsAlive(0));     // suspect still executes
  EXPECT_FALSE(table.IsRoutable(0));  // but takes no new traffic
  EXPECT_TRUE(table.IsRoutable(1));

  ASSERT_TRUE(table.SetState(0, NodeState::kDead).ok());
  EXPECT_TRUE(table.IsDead(0));
  // Dead is terminal.
  EXPECT_FALSE(table.SetState(0, NodeState::kAlive).ok());
  EXPECT_EQ(table.AliveNodes(), std::vector<size_t>{1});
  // Out-of-range nodes read as dead, never routable.
  EXPECT_TRUE(table.IsDead(99));
}

TEST_F(ClusterHaTest, HealthMonitorEscalatesSilenceToSuspectThenDead) {
  MembershipTable table;
  table.AddNode();
  table.AddNode();
  HealthMonitorOptions opt;
  opt.heartbeat_interval_us = 1000;
  opt.suspect_misses = 2;
  opt.dead_misses = 4;
  cluster::HealthMonitor monitor(&table, opt);

  // Node 0 beats every tick; node 1 goes silent.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(monitor.Heartbeat(0, "node-0"));
    EXPECT_TRUE(monitor.Tick(opt.heartbeat_interval_us).empty());
  }
  EXPECT_EQ(table.state(0), NodeState::kAlive);
  EXPECT_EQ(table.state(1), NodeState::kSuspect);

  // A beat recovers a suspect to alive.
  EXPECT_TRUE(monitor.Heartbeat(1, "node-1"));
  EXPECT_EQ(table.state(1), NodeState::kAlive);

  // Sustained silence crosses the death threshold; exactly that node comes
  // back as newly dead, exactly once.
  std::vector<size_t> newly_dead;
  for (int i = 0; i < 5; ++i) {
    monitor.Heartbeat(0, "node-0");
    for (size_t n : monitor.Tick(opt.heartbeat_interval_us)) newly_dead.push_back(n);
  }
  EXPECT_EQ(newly_dead, std::vector<size_t>{1});
  EXPECT_TRUE(table.IsDead(1));
  EXPECT_EQ(table.state(0), NodeState::kAlive);
  // Beats from a dead node are ignored.
  EXPECT_FALSE(monitor.Heartbeat(1, "node-1"));
}

TEST_F(ClusterHaTest, DroppedHeartbeatsKillTheWholeRosterDeterministically) {
  // The cluster.heartbeat fault site drops every beat: all nodes fall silent
  // and the monitor declares them dead after dead_misses intervals.
  FaultInjector::Default().Reseed(7);
  FaultInjector::Default().Arm("cluster.heartbeat", FaultSpec::Always());
  cluster::ClusterConfig cc;
  cc.nodes = 3;
  cc.mode = cluster::ExecutionMode::kThreads;
  cc.health.heartbeat_interval_us = 1000;
  cc.health.suspect_misses = 2;
  cc.health.dead_misses = 4;
  cluster::Cluster cluster(cc);

  std::vector<size_t> dead;
  for (int i = 0; i < 6; ++i) {
    for (size_t n : cluster.PumpHealth(cc.health.heartbeat_interval_us)) {
      dead.push_back(n);
    }
  }
  std::sort(dead.begin(), dead.end());
  EXPECT_EQ(dead, (std::vector<size_t>{0, 1, 2}));
  EXPECT_FALSE(cluster.CheckAlive(0).ok());
  EXPECT_TRUE(cluster.CheckAlive(0).IsUnavailable());
}

TEST_F(ClusterHaTest, RosterIsFixedAndFailedNodesKeepTheirSlot) {
  cluster::ClusterConfig cc;
  cc.nodes = 3;
  cc.mode = cluster::ExecutionMode::kThreads;
  cluster::Cluster cluster(cc);
  EXPECT_EQ(cluster.node_count(), 3u);
  EXPECT_EQ(cluster.membership().size(), 3u);
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    EXPECT_EQ(cluster.node(n).index(), n);
    EXPECT_TRUE(cluster.CheckAlive(n).ok());
  }
  // Nothing exists past the roster built from the config.
  EXPECT_TRUE(cluster.CheckAlive(cluster.node_count()).IsUnavailable());

  ASSERT_TRUE(cluster.membership().SetState(0, NodeState::kSuspect).ok());
  EXPECT_FALSE(cluster.membership().IsRoutable(0));
  ASSERT_TRUE(cluster.FailNode(1).ok());
  EXPECT_TRUE(cluster.CheckAlive(1).IsUnavailable());
  EXPECT_EQ(cluster.membership().RoutableNodes(), std::vector<size_t>{2});
  // A dead node keeps its index; the roster does not shrink.
  EXPECT_EQ(cluster.node_count(), 3u);
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
  EXPECT_EQ(holder.UnackedForTest(), 2u);

  holder.CloseLease(lease, 2);  // the batch shipped as two frames
  EXPECT_EQ(holder.UnackedForTest(), 2u);
  holder.AckFrame(lease);
  EXPECT_EQ(holder.UnackedForTest(), 2u);  // one frame still in flight
  holder.AckFrame(lease);
  EXPECT_EQ(holder.UnackedForTest(), 0u);  // durable: ledger entry retired
  // Late/unknown acks are ignored.
  holder.AckFrame(lease);
  holder.AckFrame(999);

  // A batch that shipped zero frames has nothing to redeliver.
  ASSERT_TRUE(holder.PullBatch(2, &out, &lease));
  holder.CloseLease(lease, 0);
  EXPECT_EQ(holder.UnackedForTest(), 0u);
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
  EXPECT_EQ(holder.UnackedForTest(), 4u);

  // Neither batch acked: the node died. Redelivery puts both back at the
  // front, oldest lease first, so the queue reads r0 r1 r2 r3 r4 r5 again.
  EXPECT_EQ(holder.RedeliverUnacked(), 4u);
  EXPECT_EQ(holder.UnackedForTest(), 0u);
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
  EXPECT_TRUE(intake.Start(MakeGatedFactory(records, gate), config, 3).ok());

  // Stage the skew: partition 0 already holds a deep backlog.
  const size_t kPrefill = 200;
  for (size_t i = 0; i < kPrefill; ++i) {
    EXPECT_TRUE(intake.holder(0)->Push("backlog" + std::to_string(i)).ok());
  }
  gate->store(true, std::memory_order_release);
  intake.Join();

  size_t total = 0;
  for (size_t p = 0; p < intake.partition_count(); ++p) {
    total += intake.holder(p)->stats().records_in;
  }
  // Nothing lost: prefill + all routed records are in the holders.
  EXPECT_EQ(total, 500u);
  // Plain rotation would send the deep partition a third of the stream
  // (100 records); the router diverts past the slack instead.
  EXPECT_LT(intake.holder(0)->stats().records_in - kPrefill, 20u);
}

TEST_F(ClusterHaTest, FeedWithASuspectNodeStoresEveryRecord) {
  cluster::ClusterConfig cc;
  cc.nodes = 3;
  cc.mode = cluster::ExecutionMode::kThreads;
  cluster::Cluster cluster(cc);
  storage::Catalog catalog;
  feed::UdfRegistry udfs;
  feed::ActiveFeedManager afm(&cluster, &catalog, &udfs);
  ASSERT_TRUE(catalog
                  .CreateDatatype(adm::Datatype(
                      "T", {{"id", adm::FieldType::kInt64, false}}))
                  .ok());
  ASSERT_TRUE(catalog.CreateDataset("D", "T", "id").ok());
  ASSERT_TRUE(cluster.membership().SetState(1, NodeState::kSuspect).ok());

  auto records = std::make_shared<std::vector<std::string>>();
  for (int i = 0; i < 300; ++i) records->push_back("{\"id\": " + std::to_string(i) + "}");
  feed::ActiveFeedManager::StartArgs args;
  args.config.name = "WithSuspect";
  args.config.type_name = "T";
  args.config.batch_size = 60;
  args.connection.dataset = "D";
  args.adapter_factory = feed::MakeVectorAdapterFactory(records);
  ASSERT_TRUE(afm.StartFeed(std::move(args)).ok());
  auto stats = afm.WaitForFeedStats("WithSuspect");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(catalog.FindDataset("D")->LiveRecordCount(), 300u);
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

  /// Runs one HA feed over `records` and returns the dataset's serialized
  /// contents (scan order is PK order, so equal vectors = identical stores).
  Result<std::vector<std::string>> RunFeed(
      std::shared_ptr<std::vector<std::string>> records) {
    feed::ActiveFeedManager::StartArgs args;
    args.config.name = "Soak";
    args.config.type_name = "T";
    args.config.batch_size = 48;
    args.config.ha_failover = true;
    args.config.holder_push_deadline_us = 5'000'000;
    args.connection.dataset = "D";
    args.adapter_factory = feed::MakeVectorAdapterFactory(records);
    IDEA_RETURN_NOT_OK(afm->StartFeed(std::move(args)));
    IDEA_RETURN_NOT_OK(afm->WaitForFeed("Soak"));
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

  // Chaos rounds: each arms node.kill at a randomized liveness-probe hit, so
  // the victim node and the pipeline stage it dies in vary per round. The
  // feed must fail over and converge to the exact same contents.
  Rng rng(0xC1A05u);
  for (int round = 0; round < 5; ++round) {
    const uint64_t kill_at = 1 + rng.NextBelow(24);
    FaultInjector::Default().Reseed(1000 + round);
    FaultInjector::Default().Arm("node.kill", FaultSpec::Nth(kill_at));
    SoakEnv env;
    auto got = env.RunFeed(records);
    FaultInjector::Default().DisarmAll();
    ASSERT_TRUE(got.ok()) << "round " << round << " kill_at=" << kill_at << ": "
                          << got.status().ToString();
    EXPECT_EQ(*got, reference) << "round " << round << " kill_at=" << kill_at;
    EXPECT_EQ(env.catalog.FindDataset("D")->LiveRecordCount(), 400u);
  }
}

// ---------------------------------------------------------------------------
// Paced sources: a source slower than the pipeline (the always-on case) must
// keep being stored whatever state a node is in. Every invocation waits for
// every partition's share of its batch, so one partition the router stops
// feeding would stall the whole feed.

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

TEST_F(ClusterHaTest, SuspectNodeKeepsAPacedFeedStoring) {
  SoakEnv env;
  ASSERT_TRUE(env.cluster->membership().SetState(1, NodeState::kSuspect).ok());
  PacedSource source(SoakRecords(10 * kPacedStep));
  ASSERT_TRUE(env.afm->StartFeed(PacedFeedArgs("PacedSuspect", source)).ok());
  std::shared_ptr<storage::LsmDataset> dataset = env.catalog.FindDataset("D");
  for (int step = 0; step < 10; ++step) {
    const size_t released = source.Release(kPacedStep);
    ASSERT_TRUE(WaitForStored(*dataset, released))
        << "stored " << dataset->LiveRecordCount() << " of " << released;
  }
  source.Close();
  ASSERT_TRUE(env.afm->WaitForFeed("PacedSuspect").ok());
  EXPECT_EQ(dataset->LiveRecordCount(), 10 * kPacedStep);
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
