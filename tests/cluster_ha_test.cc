// Cluster liveness and feed failover: the fixed, epoch-stamped roster,
// heartbeat-driven suspect/dead transitions, the intake lease ledger's
// at-least-once redelivery, congestion-aware routing, and the end-to-end
// chaos soak — kill a node mid-feed at a randomized point and prove the
// stored contents are bit-identical to a clean run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_controller.h"
#include "cluster/membership.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "feed/active_feed_manager.h"
#include "feed/intake_job.h"
#include "obs/metrics.h"
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
  std::atomic<uint64_t> counter{0};
  runtime::IntakePartitionHolder holder(
      runtime::PartitionHolderId{"lease-feed", "intake", 0});
  holder.EnableLeasing(&counter);
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
  std::atomic<uint64_t> counter{0};
  runtime::IntakePartitionHolder holder(
      runtime::PartitionHolderId{"redeliver-feed", "intake", 0});
  holder.EnableLeasing(&counter);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(holder.Push("r" + std::to_string(i)).ok());
  }
  holder.PushEof();
  std::vector<std::string> first, second;
  uint64_t lease_a = 0, lease_b = 0;
  ASSERT_TRUE(holder.PullBatch(2, &first, &lease_a));   // r0 r1
  ASSERT_TRUE(holder.PullBatch(2, &second, &lease_b));  // r2 r3
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
// Congestion-aware routing

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

size_t RunSkewedIntake(feed::RoutingPolicy policy, size_t* total_out) {
  cluster::ClusterConfig cc;
  cc.nodes = 3;
  cc.mode = cluster::ExecutionMode::kThreads;
  cluster::Cluster cluster(cc);
  feed::IntakeJob intake(std::string("skew-") + feed::RoutingPolicyName(policy),
                         &cluster);
  auto records = std::make_shared<std::vector<std::string>>();
  for (int i = 0; i < 300; ++i) records->push_back("rec" + std::to_string(i));
  auto gate = std::make_shared<std::atomic<bool>>(false);
  feed::FeedConfig config;
  config.name = "skew";
  config.routing = policy;
  config.routing_slack = 8;
  EXPECT_TRUE(intake.Start(MakeGatedFactory(records, gate), config, {0, 1, 2}).ok());

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
  *total_out = total;
  return intake.holder(0)->stats().records_in - kPrefill;  // routed to the hot node
}

TEST_F(ClusterHaTest, CongestionRoutingDrainsAroundTheHotPartition) {
  size_t total_cong = 0, total_rr = 0;
  const size_t hot_cong = RunSkewedIntake(feed::RoutingPolicy::kCongestion, &total_cong);
  const size_t hot_rr = RunSkewedIntake(feed::RoutingPolicy::kRoundRobin, &total_rr);
  // Nothing lost either way: prefill + all routed records are in the holders.
  EXPECT_EQ(total_cong, 500u);
  EXPECT_EQ(total_rr, 500u);
  // Blind round-robin keeps hammering the deep partition (a third of the
  // stream); congestion-aware routing diverts past the slack.
  EXPECT_EQ(hot_rr, 100u);
  EXPECT_LT(hot_cong, 20u);
  EXPECT_LT(hot_cong, hot_rr);
}

TEST_F(ClusterHaTest, RoutingAvoidsSuspectNodesWithoutLosingRecords) {
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
  args.config.name = "AvoidSuspect";
  args.config.type_name = "T";
  args.config.batch_size = 60;
  args.connection.dataset = "D";
  args.adapter_factory = feed::MakeVectorAdapterFactory(records);
  ASSERT_TRUE(afm.StartFeed(std::move(args)).ok());
  auto stats = afm.WaitForFeedStats("AvoidSuspect");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(catalog.FindDataset("D")->LiveRecordCount(), 300u);
  // The suspect node's partition took no new traffic.
  EXPECT_EQ(obs::MetricsRegistry::Default()
                .GetCounter("idea.intake.AvoidSuspect.p1.records_in")
                ->value(),
            0u);
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
