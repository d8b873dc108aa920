#include <gtest/gtest.h>

#include <thread>

#include "adm/json.h"
#include "runtime/frame.h"
#include "runtime/partition_holder.h"
#include "storage/catalog.h"

namespace idea::runtime {
namespace {

using adm::Value;

Value Rec(int64_t id, const std::string& country) {
  return Value::MakeObject({{"id", Value::MakeInt(id)},
                            {"country", Value::MakeString(country)}});
}

TEST(FrameTest, AppendDecodeRoundTrip) {
  Frame f;
  f.Append(Rec(1, "US"));
  f.Append(Rec(2, "FR"));
  EXPECT_EQ(f.record_count(), 2u);
  std::vector<Value> out;
  ASSERT_TRUE(f.Decode(&out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].GetField("country")->AsString(), "FR");
}

TEST(FrameTest, FrameRecordsSplitsBySize) {
  std::vector<Value> records;
  for (int i = 0; i < 100; ++i) records.push_back(Rec(i, std::string(100, 'x')));
  auto frames = FrameRecords(records, 1024);
  EXPECT_GT(frames.size(), 5u);
  size_t total = 0;
  for (const auto& f : frames) total += f.record_count();
  EXPECT_EQ(total, 100u);
}

TEST(PartitionHolderTest, IntakePullBatchBlocksUntilFull) {
  IntakePartitionHolder holder({"f", "intake", 0});
  std::thread producer([&] {
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(holder.Push("rec" + std::to_string(i)).ok());
  });
  std::vector<std::string> batch;
  EXPECT_TRUE(holder.PullBatch(10, &batch));
  EXPECT_EQ(batch.size(), 10u);
  producer.join();
}

TEST(PartitionHolderTest, EofDeliversPartialBatch) {
  IntakePartitionHolder holder({"f", "intake", 0});
  ASSERT_TRUE(holder.Push("only").ok());
  holder.PushEof();
  std::vector<std::string> batch;
  EXPECT_TRUE(holder.PullBatch(100, &batch));  // partial batch on EOF (§6.1)
  EXPECT_EQ(batch.size(), 1u);
  batch.clear();
  EXPECT_FALSE(holder.PullBatch(100, &batch));  // exhausted
  EXPECT_FALSE(holder.Push("late").ok());
}

TEST(PartitionHolderTest, StorageHolderCloseSemantics) {
  const PartitionHolderId id{"f", "storage", 1};
  obs::Scope series(&obs::MetricsRegistry::Default(), id.MetricPrefix());
  const uint64_t in_before = series.Counter("records_in")->value();
  const uint64_t out_before = series.Counter("records_out")->value();
  StoragePartitionHolder holder(id);
  Frame f;
  f.Append(Rec(1, "x"));
  ASSERT_TRUE(holder.Push(std::move(f)).ok());
  holder.Close();
  Frame out;
  EXPECT_TRUE(holder.Pop(&out));
  EXPECT_FALSE(holder.Pop(&out));
  EXPECT_EQ(series.Counter("records_in")->value() - in_before, 1u);
  EXPECT_EQ(series.Counter("records_out")->value() - out_before, 1u);
}

TEST(PartitionHolderTest, QueueDepthGaugeIsExactAcrossOverlappingInstances) {
  // Regression: the gauge is maintained with +/- deltas, so two live holder
  // instances sharing a metric name (an abort/drain race, a relocation
  // overlap) report the *sum* of their depths. The old absolute Set() let an
  // aborting instance stomp the survivor's depth to zero — and a drain
  // racing an abort could walk the gauge negative, which the stats view then
  // clamped, silently masking the underflow.
  const PartitionHolderId id{"gauge-regress", "storage", 0};
  obs::Gauge* gauge =
      obs::MetricsRegistry::Default().GetGauge(id.MetricPrefix() + ".queue_depth");
  auto doomed = std::make_shared<StoragePartitionHolder>(id);
  auto survivor = std::make_shared<StoragePartitionHolder>(id);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(doomed->Push(Frame()).ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(survivor->Push(Frame()).ok());
  EXPECT_EQ(gauge->value(), 5);

  // The doomed instance aborts: only its own contribution is walked back.
  doomed->Abort(Status::Aborted("node died"));
  EXPECT_EQ(gauge->value(), 2);

  // Draining the survivor walks the gauge to exactly zero — not negative.
  survivor->Close();
  Frame f;
  size_t drained = 0;
  while (survivor->Pop(&f)) ++drained;
  EXPECT_EQ(drained, 2u);
  EXPECT_EQ(gauge->value(), 0);
}

}  // namespace
}  // namespace idea::runtime
