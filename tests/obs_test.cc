// Tests for the observability subsystem: metrics primitives, the registry,
// the batch tracer, and the JSON snapshot exporter.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "adm/json.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"

namespace idea::obs {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 is [0, 1); bucket i >= 1 is [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(0.5), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(1.5), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // Every bucket's lower bound maps back to that bucket.
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(
                  static_cast<double>(Histogram::BucketLowerBound(i))),
              i)
        << "bucket " << i;
  }
  // Values beyond the top bucket's lower bound clamp into the top bucket.
  EXPECT_EQ(Histogram::BucketIndex(1e30), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(-5), 0u);
}

TEST(HistogramTest, PercentileExtraction) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0);
  for (int i = 1; i <= 100; ++i) h.Record(i);  // ~uniform over [1, 100]
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  // Log-scale buckets bound each percentile to within its power-of-two
  // bucket; the p50 of 1..100 lies in [32, 64), p95/p99 in [64, 100].
  double p50 = h.Percentile(0.50);
  EXPECT_GE(p50, 32);
  EXPECT_LT(p50, 64);
  double p95 = h.Percentile(0.95);
  EXPECT_GE(p95, 64);
  EXPECT_LE(p95, 100);
  // Percentiles never exceed the recorded max, even in the max's bucket.
  EXPECT_LE(h.Percentile(0.999), 100);
  EXPECT_LE(h.Percentile(1.0), 100);
  // Monotone in q.
  EXPECT_LE(h.Percentile(0.1), p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, h.Percentile(0.99));
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 42);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 42);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min_us, 42);
  EXPECT_DOUBLE_EQ(s.max_us, 42);
  EXPECT_DOUBLE_EQ(s.p50_us, 42);
}

TEST(HistogramTest, PercentileEdgeCases) {
  Histogram h;
  // Empty histogram: every quantile is 0, including the clamped extremes.
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(-1.0), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(2.0), 0);

  // Single sample: every quantile is that sample.
  h.Record(7);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 7);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 7);
  EXPECT_DOUBLE_EQ(h.Percentile(0.999), 7);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 7);

  // Overflow bucket: values beyond the top bucket's lower bound land in the
  // top bucket and percentiles stay clamped to the recorded max.
  Histogram top;
  const double huge = 9e18;  // >= 2^62, the top bucket's lower bound
  ASSERT_EQ(Histogram::BucketIndex(huge), Histogram::kBuckets - 1);
  top.Record(huge);
  EXPECT_EQ(top.count(), 1u);
  EXPECT_DOUBLE_EQ(top.max(), huge);
  EXPECT_DOUBLE_EQ(top.Percentile(1.0), huge);
  EXPECT_LE(top.Percentile(0.5), top.max());
  EXPECT_GE(top.Percentile(0.5),
            static_cast<double>(Histogram::BucketLowerBound(Histogram::kBuckets - 1)));
}

TEST(GaugeTest, HighWatermark) {
  Gauge g;
  g.Set(3);
  g.Set(10);
  g.Set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.high_watermark(), 10);
  g.Add(5);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(g.high_watermark(), 10);
  g.Add(20);
  EXPECT_EQ(g.high_watermark(), 27);
}

TEST(RegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("idea.test.c");
  Counter* b = reg.GetCounter("idea.test.c");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetCounter("idea.test.other"), a);
  a->Add(7);
  EXPECT_EQ(b->value(), 7u);
}

TEST(RegistryTest, ConcurrentCounterIncrements) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      Counter* c = reg.GetCounter("idea.test.concurrent");
      Histogram* h = reg.GetHistogram("idea.test.concurrent_us");
      for (int i = 0; i < kIncrements; ++i) {
        c->Increment();
        h->Record(static_cast<double>(i % 512));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("idea.test.concurrent")->value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(reg.GetHistogram("idea.test.concurrent_us")->count(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(RegistryTest, ScopePrefixesNames) {
  MetricsRegistry reg;
  Scope scope(&reg, "idea.feed.F");
  scope.Counter("records")->Add(3);
  EXPECT_EQ(reg.GetCounter("idea.feed.F.records")->value(), 3u);
}

TEST(TracerTest, SpansAttachToTrace) {
  Tracer tracer(4);
  uint64_t id = tracer.StartTrace("F");
  ASSERT_NE(id, 0u);
  tracer.AddSpan(id, Span{"intake.pull", 0, 1.0, 2.0});
  tracer.AddSpan(id, Span{"storage.store", 1, 3.0, 4.0});
  BatchTrace trace;
  ASSERT_TRUE(tracer.Find(id, &trace));
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].name, "intake.pull");
  EXPECT_EQ(trace.spans[1].node, 1);
  // The ring evicts oldest-first; dropped traces ignore late spans.
  for (int i = 0; i < 10; ++i) tracer.StartTrace("F");
  EXPECT_FALSE(tracer.Find(id, &trace));
  tracer.AddSpan(id, Span{"late", 0, 0, 0});  // must not crash
  EXPECT_EQ(tracer.Recent().size(), 4u);
  uint64_t dropped = tracer.StartTrace("F");
  tracer.Drop(dropped);
  EXPECT_FALSE(tracer.Find(dropped, &trace));
}

TEST(TracerTest, FindAfterEvictionAndDropOfUnknownId) {
  Tracer tracer(2);
  uint64_t first = tracer.StartTrace("F");
  uint64_t second = tracer.StartTrace("F");
  uint64_t third = tracer.StartTrace("F");  // evicts `first`
  BatchTrace trace;
  EXPECT_FALSE(tracer.Find(first, &trace));
  EXPECT_TRUE(tracer.Find(second, &trace));
  EXPECT_TRUE(tracer.Find(third, &trace));
  EXPECT_EQ(tracer.Recent().size(), 2u);
  // Spans for an evicted id are ignored, not resurrected.
  tracer.AddSpan(first, Span{"late", 0, 0, 0});
  EXPECT_FALSE(tracer.Find(first, &trace));
  EXPECT_EQ(tracer.Recent().size(), 2u);
  // Dropping an id the ring has never seen (or already evicted) is a no-op.
  tracer.Drop(first);
  tracer.Drop(99999);
  EXPECT_EQ(tracer.Recent().size(), 2u);
  EXPECT_TRUE(tracer.Find(second, &trace));
  EXPECT_TRUE(tracer.Find(third, &trace));
  // Dropping a live id removes exactly that trace.
  tracer.Drop(second);
  EXPECT_FALSE(tracer.Find(second, &trace));
  EXPECT_TRUE(tracer.Find(third, &trace));
  EXPECT_EQ(tracer.Recent().size(), 1u);
}

TEST(FlightRecorderTest, RingKeepsNewestAndDumpsParseableJson) {
  FlightRecorder recorder(4);
  EXPECT_EQ(recorder.Recent().size(), 0u);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(FlightEventKind::kRetry, "F", "attempt", i, i);
  }
  EXPECT_EQ(recorder.events_recorded(), 10u);
  std::vector<FlightEvent> events = recorder.Recent();
  ASSERT_EQ(events.size(), 4u);  // capacity bound; oldest evicted
  // Oldest-first order over the surviving window (nodes 6, 7, 8, 9).
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].node, static_cast<int>(6 + i));
    EXPECT_EQ(events[i].kind, FlightEventKind::kRetry);
    EXPECT_EQ(events[i].scope, "F");
  }
  EXPECT_EQ(recorder.Recent(2).size(), 2u);
  EXPECT_EQ(recorder.Recent(2)[1].node, 9);

  auto dump = adm::ParseJson(recorder.DumpJson());
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump->GetField("type")->AsString(), "flight_recorder");
  EXPECT_EQ(dump->GetField("events_recorded")->AsInt(), 10);
  ASSERT_NE(dump->GetField("events"), nullptr);
  const auto& arr = dump->GetField("events")->AsArray();
  ASSERT_EQ(arr.size(), 4u);
  EXPECT_EQ(arr[0].GetField("kind")->AsString(), "retry");
  EXPECT_EQ(arr[0].GetField("scope")->AsString(), "F");

  recorder.Clear();
  EXPECT_EQ(recorder.Recent().size(), 0u);
  EXPECT_EQ(recorder.events_recorded(), 0u);
}

TEST(FlightRecorderTest, DumpToFileWritesParseableJson) {
  FlightRecorder recorder(16);
  recorder.Record(FlightEventKind::kFeedStart, "F", "dataset=D");
  recorder.Record(FlightEventKind::kFeedAbort, "F", "Internal: boom");
  std::string path = ::testing::TempDir() + "/flight_recorder_test.json";
  ASSERT_TRUE(recorder.DumpToFile(path).ok());
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto dump = adm::ParseJson(line);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString() << "\n" << line;
  const auto& arr = dump->GetField("events")->AsArray();
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[0].GetField("kind")->AsString(), "feed_start");
  EXPECT_EQ(arr[1].GetField("kind")->AsString(), "feed_abort");
  EXPECT_EQ(arr[1].GetField("detail")->AsString(), "Internal: boom");
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ConcurrentRecordersKeepCapacityBound) {
  FlightRecorder recorder(64);
  constexpr int kThreads = 8;
  constexpr int kEvents = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      std::string scope = "p";
      scope += std::to_string(t);
      for (int i = 0; i < kEvents; ++i) {
        recorder.Record(FlightEventKind::kFaultFire, scope, "", t,
                        static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(recorder.events_recorded(),
            static_cast<uint64_t>(kThreads) * kEvents);
  std::vector<FlightEvent> events = recorder.Recent();
  EXPECT_LE(events.size(), 64u);
  EXPECT_GE(events.size(), 1u);
}

TEST(SnapshotTest, PrometheusTextExposition) {
  MetricsRegistry reg;
  reg.GetCounter("idea.feed.F.records_ingested")->Add(12);
  reg.GetGauge("idea.intake.F.p0.queue_depth")->Set(9);
  reg.GetGauge("idea.intake.F.p0.queue_depth")->Set(3);
  reg.GetHistogram("idea.sched.sim.queue_wait_us")->Record(100);
  reg.GetHistogram("idea.sched.sim.queue_wait_us")->Record(200);

  SnapshotExporter exporter(&reg);
  std::string text = exporter.PrometheusText();

  // Counters: sanitized name, TYPE line, value.
  EXPECT_NE(text.find("# TYPE idea_feed_F_records_ingested counter\n"
                      "idea_feed_F_records_ingested 12\n"),
            std::string::npos)
      << text;
  // Gauges: value plus a companion high-watermark gauge.
  EXPECT_NE(text.find("idea_intake_F_p0_queue_depth 3\n"), std::string::npos);
  EXPECT_NE(text.find("idea_intake_F_p0_queue_depth_high_watermark 9\n"),
            std::string::npos);
  // Histograms: summary with quantile labels and _sum/_count rows.
  EXPECT_NE(text.find("# TYPE idea_sched_sim_queue_wait_us summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("idea_sched_sim_queue_wait_us{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("idea_sched_sim_queue_wait_us{quantile=\"0.95\"} "),
            std::string::npos);
  EXPECT_NE(text.find("idea_sched_sim_queue_wait_us{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("idea_sched_sim_queue_wait_us_sum 300.000\n"),
            std::string::npos);
  EXPECT_NE(text.find("idea_sched_sim_queue_wait_us_count 2\n"),
            std::string::npos);
  // No unsanitized dots survive in metric names.
  EXPECT_EQ(text.find("idea.feed"), std::string::npos);
}

TEST(SnapshotTest, ChromeTraceJsonExport) {
  Tracer tracer;
  uint64_t id = tracer.StartTrace("F");
  tracer.AddSpan(id, Span{"intake.pull", 0, 10.0, 2.5});
  tracer.AddSpan(id, Span{"compute.enrich", 2, 12.5, 7.5});

  std::string json = SnapshotExporter::ChromeTraceJson(tracer.Recent());
  auto parsed = adm::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  const adm::Value* events = parsed->GetField("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->AsArray().size(), 2u);
  const adm::Value& ev = events->AsArray()[1];
  EXPECT_EQ(ev.GetField("name")->AsString(), "compute.enrich");
  EXPECT_EQ(ev.GetField("ph")->AsString(), "X");
  EXPECT_DOUBLE_EQ(ev.GetField("ts")->AsNumber(), 12.5);
  EXPECT_DOUBLE_EQ(ev.GetField("dur")->AsNumber(), 7.5);
  EXPECT_EQ(ev.GetField("tid")->AsInt(), 2);
  EXPECT_EQ(ev.GetField("args")->GetField("feed")->AsString(), "F");
  // Empty ring still yields a valid, loadable document.
  auto empty = adm::ParseJson(SnapshotExporter::ChromeTraceJson({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->GetField("traceEvents")->AsArray().size(), 0u);
}

TEST(SnapshotTest, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("idea.test.records")->Add(12);
  reg.GetGauge("idea.test.depth")->Set(5);
  reg.GetGauge("idea.test.depth")->Set(2);
  reg.GetHistogram("idea.test.lat_us")->Record(100);
  reg.GetHistogram("idea.test.lat_us")->Record(200);

  Tracer tracer;
  uint64_t id = tracer.StartTrace("F");
  tracer.AddSpan(id, Span{"compute.enrich", 2, 10.0, 5.5});

  SnapshotExporter exporter(&reg, &tracer);
  std::string lines = exporter.SnapshotJsonLines();
  std::istringstream in(lines);
  std::string line;

  ASSERT_TRUE(std::getline(in, line));
  auto metrics = adm::ParseJson(line);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString() << "\n" << line;
  EXPECT_EQ(metrics->GetField("type")->AsString(), "metrics");
  const adm::Value* counters = metrics->GetField("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetField("idea.test.records")->AsInt(), 12);
  const adm::Value* depth = metrics->GetField("gauges")->GetField("idea.test.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->GetField("value")->AsInt(), 2);
  EXPECT_EQ(depth->GetField("high_watermark")->AsInt(), 5);
  const adm::Value* lat = metrics->GetField("histograms")->GetField("idea.test.lat_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->GetField("count")->AsInt(), 2);
  EXPECT_DOUBLE_EQ(lat->GetField("max_us")->AsNumber(), 200);
  EXPECT_GT(lat->GetField("p50_us")->AsNumber(), 0);

  ASSERT_TRUE(std::getline(in, line));
  auto trace = adm::ParseJson(line);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString() << "\n" << line;
  EXPECT_EQ(trace->GetField("type")->AsString(), "trace");
  EXPECT_EQ(trace->GetField("feed")->AsString(), "F");
  const adm::Value* spans = trace->GetField("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->AsArray().size(), 1u);
  EXPECT_EQ(spans->AsArray()[0].GetField("name")->AsString(), "compute.enrich");
  EXPECT_EQ(spans->AsArray()[0].GetField("node")->AsInt(), 2);
  EXPECT_DOUBLE_EQ(spans->AsArray()[0].GetField("dur_us")->AsNumber(), 5.5);
}

TEST(RegistryTest, SnapshotListsAllMetrics) {
  MetricsRegistry reg;
  reg.GetCounter("c1")->Increment();
  reg.GetGauge("g1")->Set(1);
  reg.GetHistogram("h1")->Record(1);
  RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.histograms.size(), 1u);
  reg.ResetForTest();
  EXPECT_EQ(reg.GetCounter("c1")->value(), 0u);
  EXPECT_EQ(reg.GetHistogram("h1")->count(), 0u);
}

}  // namespace
}  // namespace idea::obs
