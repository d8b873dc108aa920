// cluster::ChargeRun over hand-made task totals: how the figure benches turn
// a run's measured task CPU into its time on N nodes.
#include <gtest/gtest.h>

#include "cluster/cost_model.h"

namespace idea::cluster {
namespace {

/// A 600-record run whose work is split over `invocations` equal batches on
/// `nodes` partitions: each invocation's critical partition carries 1/N of
/// the batch's parse/enrich/ship CPU plus a 50 µs state refresh.
TaskTotals MakeRun(uint64_t invocations, size_t nodes) {
  TaskTotals t;
  t.records = 600;
  t.invocations = invocations;
  t.frames = invocations * nodes;
  t.ship_bytes = 600 * 400;
  t.adapter_cpu_us = 600;
  t.parse_cpu_us = 3000;
  t.enrich_cpu_us = 6000;
  t.ship_cpu_us = 600;
  const double per_invocation =
      (t.parse_cpu_us + t.enrich_cpu_us + t.ship_cpu_us) /
          static_cast<double>(invocations * nodes) +
      50;
  t.critical_cpu_us = per_invocation * static_cast<double>(invocations);
  t.critical_p50_us = per_invocation;
  t.critical_p95_us = per_invocation;
  t.critical_p99_us = per_invocation;
  t.critical_max_us = per_invocation;
  t.decode_cpu_us = 1200;
  t.apply_cpu_us = 1800;
  return t;
}

Accounting Nodes(size_t nodes) {
  Accounting how;
  how.nodes = nodes;
  return how;
}

/// The compute charge of `t`'s invocations alone: their job starts.
double JobStarts(const TaskTotals& t, const CostModelConfig& costs, size_t nodes) {
  TaskTotals idle;
  idle.records = t.records;
  idle.invocations = t.invocations;
  return ChargeRun(idle, costs, Nodes(nodes)).compute_us;
}

/// The compute charge without its job starts: the critical path.
double CriticalPath(const TaskTotals& t, const CostModelConfig& costs, const Accounting& how) {
  return ChargeRun(t, costs, how).compute_us - JobStarts(t, costs, how.nodes);
}

TEST(CostModelTest, LargerBatchesMeanFewerJobsLessJobStartAndLongerRefreshPeriod) {
  const CostModelConfig costs;
  const CostModel model(costs);
  const TaskTotals small_run = MakeRun(/*invocations=*/12, 6);
  const TaskTotals big_run = MakeRun(/*invocations=*/3, 6);
  RunCharge small = ChargeRun(small_run, costs, Nodes(6));
  RunCharge big = ChargeRun(big_run, costs, Nodes(6));
  // Compute = a job start per invocation + the critical partitions' scaled
  // CPU + the shipped bytes over N links.
  for (const TaskTotals& run : {small_run, big_run}) {
    EXPECT_DOUBLE_EQ(JobStarts(run, costs, 6),
                     static_cast<double>(run.invocations) * model.JobStartMicros(6));
    EXPECT_DOUBLE_EQ(ChargeRun(run, costs, Nodes(6)).compute_us,
                     JobStarts(run, costs, 6) + model.ScaleCpu(run.critical_cpu_us) +
                         model.TransferMicros(run.ship_bytes / 6));
  }
  EXPECT_GT(big.refresh_period_us, small.refresh_period_us);
  EXPECT_GT(big.batch_p50_us, small.batch_p50_us);
  EXPECT_LT(big.compute_us, small.compute_us);
}

TEST(CostModelTest, PredeployAblationAddsExactlyCompilePerInvocation) {
  const CostModelConfig costs;
  const TaskTotals run = MakeRun(10, 4);
  Accounting without = Nodes(4);
  without.predeployed = false;
  RunCharge a = ChargeRun(run, costs, Nodes(4));
  RunCharge b = ChargeRun(run, costs, without);
  EXPECT_DOUBLE_EQ(b.compute_us - a.compute_us, costs.compile_us * 10);
  EXPECT_DOUBLE_EQ(b.batch_p99_us - a.batch_p99_us, costs.compile_us);
}

TEST(CostModelTest, FusingFoldsStorageIntoCompute) {
  const CostModelConfig costs;
  const TaskTotals run = MakeRun(10, 4);
  Accounting fused = Nodes(4);
  fused.fused_insert_job = true;
  RunCharge a = ChargeRun(run, costs, Nodes(4));
  RunCharge b = ChargeRun(run, costs, fused);
  EXPECT_GT(a.storage_us, 0);
  EXPECT_DOUBLE_EQ(b.compute_us, a.compute_us + a.storage_us);
  EXPECT_DOUBLE_EQ(b.storage_us, 0);
  EXPECT_DOUBLE_EQ(b.batch_p50_us, a.batch_p50_us + a.storage_us / 10);
  EXPECT_GE(b.makespan_us, a.makespan_us);
}

TEST(CostModelTest, StaticChargesParseOnIntakeWithoutJobStartOrInit) {
  const CostModelConfig costs;
  const CostModel model(costs);
  TaskTotals run = MakeRun(10, 4);
  Accounting how = Nodes(4);
  how.dynamic = false;
  RunCharge c = ChargeRun(run, costs, how);
  EXPECT_DOUBLE_EQ(c.intake_us, costs.intake_per_record_us * 600 +
                                    model.ScaleCpu(run.adapter_cpu_us + run.parse_cpu_us));
  EXPECT_DOUBLE_EQ(c.compute_us,
                   model.ScaleCpu(run.enrich_cpu_us + run.ship_cpu_us) / 4 +
                       model.TransferMicros(run.ship_bytes / 4));
  EXPECT_DOUBLE_EQ(c.refresh_period_us, 0);
  EXPECT_DOUBLE_EQ(c.batch_p50_us, 0);
  // One group commit per kStaticCommitRecords records, not per frame.
  EXPECT_DOUBLE_EQ(c.storage_us, model.ScaleCpu(run.decode_cpu_us) / 4 +
                                     model.ScaleCpu(run.apply_cpu_us) +
                                     costs.log_flush_us * (600 / kStaticCommitRecords) / 4);
  // Neither the invocations nor their critical partitions (which carry the
  // refreshes) are charged.
  TaskTotals refreshed = run;
  refreshed.invocations *= 7;
  refreshed.critical_cpu_us *= 100;
  EXPECT_DOUBLE_EQ(ChargeRun(refreshed, costs, how).makespan_us, c.makespan_us);
}

TEST(CostModelTest, BalancedIntakeDividesIntakeTimeByN) {
  const CostModelConfig costs;
  const TaskTotals run = MakeRun(10, 6);
  Accounting balanced = Nodes(6);
  balanced.balanced_intake = true;
  RunCharge single = ChargeRun(run, costs, Nodes(6));
  RunCharge spread = ChargeRun(run, costs, balanced);
  EXPECT_DOUBLE_EQ(spread.intake_us, single.intake_us / 6);
  EXPECT_DOUBLE_EQ(single.intake_us,
                   costs.intake_per_record_us * 600 + CostModel(costs).ScaleCpu(600));
}

TEST(CostModelTest, MoreNodesGrowJobStartAndShrinkTheCriticalPath) {
  const CostModelConfig costs;
  const TaskTotals run2 = MakeRun(3, 2);
  const TaskTotals run16 = MakeRun(3, 16);
  EXPECT_GT(JobStarts(run16, costs, 16), JobStarts(run2, costs, 2));
  EXPECT_LT(CriticalPath(run16, costs, Nodes(16)), CriticalPath(run2, costs, Nodes(2)));
}

TEST(CostModelTest, BroadcastShipsEveryByteToEachNode) {
  const CostModelConfig costs;
  const CostModel model(costs);
  const TaskTotals run = MakeRun(10, 8);
  Accounting broadcast = Nodes(8);
  broadcast.broadcast = true;
  RunCharge repartition = ChargeRun(run, costs, Nodes(8));
  RunCharge all = ChargeRun(run, costs, broadcast);
  EXPECT_DOUBLE_EQ(all.compute_us - repartition.compute_us,
                   model.TransferMicros(run.ship_bytes) -
                       model.TransferMicros(run.ship_bytes / 8));
  // Repartitioned transfer shrinks with N; broadcast does not.
  EXPECT_LT(CriticalPath(run, costs, Nodes(16)), CriticalPath(run, costs, Nodes(8)));
  Accounting broadcast16 = broadcast;
  broadcast16.nodes = 16;
  EXPECT_DOUBLE_EQ(CriticalPath(run, costs, broadcast16), CriticalPath(run, costs, broadcast));
}

TEST(CostModelTest, ApplyIsSerializedWhileDecodeAndLogFlushSpread) {
  const CostModelConfig costs;
  const CostModel model(costs);
  TaskTotals run = MakeRun(10, 24);
  RunCharge c = ChargeRun(run, costs, Nodes(24));
  EXPECT_DOUBLE_EQ(c.storage_us, model.ScaleCpu(run.decode_cpu_us) / 24 +
                                     model.ScaleCpu(run.apply_cpu_us) +
                                     costs.log_flush_us * 240 / 24);
  // Adding nodes never takes the apply CPU off the storage layer.
  run.frames = 10;
  for (size_t n : {1, 6, 24, 96}) {
    EXPECT_GE(ChargeRun(run, costs, Nodes(n)).storage_us, model.ScaleCpu(run.apply_cpu_us));
  }
  // A storage-bound run: makespan is the storage layer's time.
  run.apply_cpu_us = 1e6;
  RunCharge bound = ChargeRun(run, costs, Nodes(24));
  EXPECT_DOUBLE_EQ(bound.makespan_us, bound.storage_us);
  EXPECT_DOUBLE_EQ(bound.throughput_rps, 600 * 1e6 / bound.storage_us);
}

}  // namespace
}  // namespace idea::cluster
