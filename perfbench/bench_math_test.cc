// Tests for the benchmark's own arithmetic (bench_math.h).
#include "bench_math.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(CumulativeFlow, KnownAnswerSeries) {
  // Records due every 10 µs; the counter is polled every 25 µs and commits
  // lag their due time by 30 µs, so the departures seen are 0,0,1,4,6,9,10.
  std::vector<double> due;
  for (int i = 0; i < 10; ++i) due.push_back(10.0 * i);
  std::vector<FlowSample> samples;
  for (int k = 0; k <= 6; ++k) {
    double t = 25.0 * k;
    // Record i commits at 10 i + 30; count those committed by t.
    uint64_t departed = 0;
    for (int i = 0; i < 10; ++i) departed += (10.0 * i + 30 <= t) ? 1 : 0;
    samples.push_back({t, departed});
  }
  std::vector<double> lat = CumulativeFlowLatencies(due, samples);
  ASSERT_EQ(lat.size(), 10u);
  // Record i is seen at the first 25 µs tick at or after 10 i + 30.
  for (int i = 0; i < 10; ++i) {
    double commit = 10.0 * i + 30;
    double seen = 25.0 * std::ceil(commit / 25.0);
    EXPECT_DOUBLE_EQ(lat[i], seen - 10.0 * i) << "record " << i;
  }
}

TEST(CumulativeFlow, UncoveredRecordsGetNoLatency) {
  std::vector<double> due = {0, 1, 2, 3};
  std::vector<FlowSample> samples = {{5, 1}, {9, 2}};
  std::vector<double> lat = CumulativeFlowLatencies(due, samples);
  ASSERT_EQ(lat.size(), 2u);
  EXPECT_DOUBLE_EQ(lat[0], 5);
  EXPECT_DOUBLE_EQ(lat[1], 8);
}

TEST(CumulativeFlow, BurstCommitCoversManyRecords) {
  // A stall: nothing commits until t = 100, then everything at once.
  std::vector<double> due = {0, 10, 20, 30};
  std::vector<FlowSample> samples = {{50, 0}, {100, 4}};
  std::vector<double> lat = CumulativeFlowLatencies(due, samples);
  EXPECT_EQ(lat, (std::vector<double>{100, 90, 80, 70}));
}

TEST(Percentiles, SampleCountRule) {
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(200), 0.95);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(9999), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10000), 0.999);
}

TEST(Percentiles, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(SortedPercentile(v, 0.5), 500);
  EXPECT_DOUBLE_EQ(SortedPercentile(v, 0.99), 990);
  EXPECT_DOUBLE_EQ(SortedPercentile(v, 1.0), 1000);
  EXPECT_DOUBLE_EQ(SortedPercentile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
}

TEST(SelfTime, NestedSpans) {
  // batch [0,100) holds parse [10,30) and frame [40,90); frame holds
  // decode [45,55) and upsert [60,80).
  std::vector<Span> spans = {
      {0, -1, 0, 0, 100},  // 0 batch
      {1, 0, 0, 10, 30},   // 1 parse
      {2, 0, 0, 40, 90},   // 2 frame
      {3, 2, 0, 45, 55},   // 3 decode
      {4, 2, 0, 60, 80},   // 4 upsert
  };
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self, (std::vector<int64_t>{30, 20, 20, 10, 20}));
  int64_t total = 0;
  for (int64_t s : self) total += s;
  EXPECT_EQ(total, 100);  // self times partition the root span
}

}  // namespace
}  // namespace perfbench
