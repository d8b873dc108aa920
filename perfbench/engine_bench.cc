// Ingestion benchmark over the production pipeline: Instance (2 nodes,
// threads mode) -> Active Feed Manager -> intake job -> intake holders ->
// computing job (parse, plan refresh, enrich, ship) -> storage holders ->
// storage job (decode, upsert, WAL commit).
//
//   perfbench_engine --workload <plain_bulk|enrich_heavy|enrich_fresh>
//                    --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 repeats whole trials (fresh instance, set-up, feed run, output
// checks) for about --seconds and prints the end-to-end metrics. --trace 1
// runs the single-threaded layer replay (replay.cc), then one plain and one
// registry-read trial, and prints the per-layer metrics. The last stdout
// line is always one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit code 1 when any output check failed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "common/rng.h"
#include "feed/adapter.h"
#include "feed/record_parser.h"
#include "obs/metrics.h"
#include "sqlpp/enrichment_plan.h"
#include "storage/catalog.h"
#include "workloads.h"

namespace perfbench {

namespace adm = idea::adm;
using idea::Result;
using idea::Status;

namespace {

void SleepUntilNs(int64_t ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
}

// ---------------------------------------------------------------------------
// Load generation and observation

/// When each tweet of a trial was due. Written by the intake adapter, read
/// after the feed has drained (WaitForFeed orders the two).
struct FlowLog {
  FlowLog(size_t n, int64_t epoch) : epoch_ns(epoch), due_us(n, 0) {}
  int64_t epoch_ns;
  std::vector<double> due_us;       // relative to epoch_ns
  std::atomic<int64_t> t0_ns{0};    // first tweet handed to intake (0 = not yet)
  int64_t max_lag_ns = 0;           // most a hand-out ran behind its due time
};

/// The intake adapter. Closed loop (rate 0): a tweet is due when intake asks
/// for it. Open loop: tweet i is due at t0 + i / rate, whatever the engine
/// does, and the adapter sleeps until then.
class ScheduledAdapter : public idea::feed::FeedAdapter {
 public:
  ScheduledAdapter(const std::vector<std::string>* records, double rate, FlowLog* log)
      : records_(records), rate_(rate), log_(log) {}

  bool Next(std::string* out) override {
    if (stopped_.load(std::memory_order_relaxed) || next_ >= records_->size()) {
      return false;
    }
    int64_t now = NowNs();
    if (next_ == 0) {
      t0_ = now;
      log_->t0_ns.store(now, std::memory_order_release);
    }
    int64_t due = now;
    if (rate_ > 0) {
      due = t0_ + static_cast<int64_t>(static_cast<double>(next_) * 1e9 / rate_);
      if (now < due) SleepUntilNs(due);
    }
    *out = (*records_)[next_];
    log_->due_us[next_] = static_cast<double>(due - log_->epoch_ns) / 1e3;
    log_->max_lag_ns = std::max(log_->max_lag_ns, NowNs() - due);
    ++next_;
    return true;
  }
  void Stop() override { stopped_.store(true, std::memory_order_relaxed); }
  std::string Describe() const override { return "perfbench_scheduled_adapter"; }

 private:
  const std::vector<std::string>* records_;
  double rate_;
  FlowLog* log_;
  size_t next_ = 0;
  int64_t t0_ = 0;
  std::atomic<bool> stopped_{false};
};

/// Polls the target dataset's committed sequence at about 1 kHz.
class DepartureSampler {
 public:
  DepartureSampler(const idea::storage::LsmDataset* ds, int64_t epoch_ns)
      : ds_(ds), epoch_ns_(epoch_ns) {
    samples_.reserve(1 << 16);
  }
  ~DepartureSampler() { Stop(); }
  DepartureSampler(const DepartureSampler&) = delete;
  DepartureSampler& operator=(const DepartureSampler&) = delete;

  void Start() {
    thread_ = std::thread([this] {
      int64_t next = NowNs();
      while (!stop_.load(std::memory_order_relaxed)) {
        Sample();
        next = std::max(next + 1'000'000, NowNs());
        SleepUntilNs(next);
      }
    });
  }
  /// Joins the poller and takes one last sample.
  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    Sample();
  }
  const std::vector<FlowSample>& samples() const { return samples_; }

 private:
  void Sample() {
    uint64_t seq = ds_->CurrentSeq();
    samples_.push_back({static_cast<double>(NowNs() - epoch_ns_) / 1e3, seq});
  }

  const idea::storage::LsmDataset* ds_;
  int64_t epoch_ns_;
  std::vector<FlowSample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Upserts reference records on a due-time schedule that starts with the
/// first tweet: update k is due at t0 + k / rate. Each upsert commits its
/// WAL like an UPSERT statement does.
class ReferenceUpdater {
 public:
  ReferenceUpdater(const WorkloadSpec& w, const Inputs& in, idea::storage::LsmDataset* ds,
                   const FlowLog* log)
      : w_(w), in_(in), ds_(ds), log_(log), planned_(UpdateCount(w)) {}
  ~ReferenceUpdater() { Stop(); }
  ReferenceUpdater(const ReferenceUpdater&) = delete;
  ReferenceUpdater& operator=(const ReferenceUpdater&) = delete;

  void Start() { thread_ = std::thread([this] { Loop(); }); }
  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  uint64_t applied() const { return applied_; }
  const Status& error() const { return error_; }
  /// Updates applied per second of schedule actually used.
  double achieved_rate() const {
    if (applied_ == 0) return 0;
    double span_s = static_cast<double>(last_ns_ - t0_ns_) / 1e9 + 1.0 / w_.update_rate;
    return static_cast<double>(applied_) / span_s;
  }

 private:
  void Loop() {
    while ((t0_ns_ = log_->t0_ns.load(std::memory_order_acquire)) == 0) {
      if (stop_.load(std::memory_order_relaxed)) return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (uint64_t k = 0; k < planned_ && !stop_.load(std::memory_order_relaxed); ++k) {
      SleepUntilNs(t0_ns_ + static_cast<int64_t>(static_cast<double>(k) * 1e9 /
                                                 w_.update_rate));
      Status st = ds_->Upsert(UpdateRecord(w_, in_, k));
      if (st.ok()) st = ds_->FlushWal();
      if (!st.ok()) {
        error_ = st;
        return;
      }
      ++applied_;
      last_ns_ = NowNs();
    }
  }

  const WorkloadSpec& w_;
  const Inputs& in_;
  idea::storage::LsmDataset* ds_;
  const FlowLog* log_;
  const uint64_t planned_;
  // Written by the update thread, read after Stop() joins it.
  uint64_t applied_ = 0;
  int64_t t0_ns_ = 0;
  int64_t last_ns_ = 0;
  Status error_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Output checks

/// Sampled record indexes (seeded, so every run of a seed checks the same ones).
std::vector<size_t> SampleIndexes(const Inputs& in, size_t n) {
  idea::Rng rng(in.seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<size_t> out;
  for (size_t k = 0; k < n; ++k) out.push_back(rng.NextBelow(in.tweets.size()));
  return out;
}

/// Returns the number of wrong records among those checked; describes the
/// first few in `errors`.
uint64_t CheckOutputs(const WorkloadSpec& w, const Inputs& in, Deployment& d,
                      std::vector<std::string>* errors) {
  uint64_t wrong = 0;
  auto note = [&](const std::string& what) {
    ++wrong;
    if (errors->size() < 5) errors->push_back(what);
  };
  idea::feed::JsonRecordParser parser(d.db->catalog().FindDatatype("TweetType"));
  if (w.update_rate > 0) {
    // Which reference version a record saw depends on timing, so there is
    // no single expected value: every stored record must carry the field.
    const auto stored = d.target->Scan();
    for (const adm::Value& rec : *stored) {
      const adm::Value* f = rec.GetField(w.enriched_field);
      if (f == nullptr || f->IsMissing()) note("record without " + w.enriched_field);
    }
    return wrong;
  }
  std::unique_ptr<idea::storage::CatalogAccessor> accessor;
  std::unique_ptr<idea::sqlpp::EnrichmentPlan> plan;
  if (!w.udf.empty()) {
    // The reference computation: the same UDF over the same (unchanged)
    // reference data, one record at a time.
    accessor = std::make_unique<idea::storage::CatalogAccessor>(&d.db->catalog(), true);
    auto compiled = idea::sqlpp::EnrichmentPlan::Compile(
        d.db->udfs().FindSqlppShared(w.udf), accessor.get(), &d.db->udfs());
    Status ready = compiled.ok() ? (*compiled)->Initialize() : compiled.status();
    if (!ready.ok()) {
      note("reference plan failed: " + ready.ToString());
      return wrong;
    }
    plan = std::move(*compiled);
  }
  for (size_t i : SampleIndexes(in, 256)) {
    auto parsed = parser.Parse(in.tweets[i]);
    if (!parsed.ok()) {
      note("input " + std::to_string(i) + " does not parse");
      continue;
    }
    auto stored = d.target->Get(*parsed->GetField("id"));
    if (!stored.ok()) {
      note("record " + std::to_string(i) + " missing: " + stored.status().ToString());
      continue;
    }
    if (plan == nullptr) {
      if (!(*stored == *parsed)) note("record " + std::to_string(i) + " differs from input");
      continue;
    }
    auto expected = plan->EnrichOne(*parsed);
    const adm::Value* got = stored->GetField(w.enriched_field);
    const adm::Value* want = expected.ok() ? expected->GetField(w.enriched_field) : nullptr;
    if (got == nullptr || want == nullptr || !(*got == *want)) {
      note("record " + std::to_string(i) + " " + w.enriched_field + " differs from EnrichOne");
    }
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// One trial

struct TrialResult {
  double setup_s = 0;
  double feed_s = 0;  // START FEED until WaitForFeed returns
  uint64_t committed = 0;
  double throughput_rps = 0;
  std::vector<double> latency_ms;
  double generator_lag_ms = 0;
  uint64_t max_backlog = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t updates_applied = 0;
  double update_rate = 0;
  double peak_rss_mb = 0;  // process peak RSS when the feed drained
  std::vector<std::string> errors;
  Metrics registry;  // part (b) of the traced pass, when requested
};

/// The machine's busy and stolen CPU ticks (/proc/stat). On a shared host,
/// steal shows when a run's numbers were taken under other tenants' load.
struct CpuTicks {
  uint64_t busy = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  for (uint64_t& x : v) stat >> x;
  return {v[0] + v[1] + v[2] + v[5] + v[6], v[7]};
}

/// Share of the CPU time the machine wanted that the hypervisor withheld.
double StealFrac(const CpuTicks& from, const CpuTicks& to) {
  const double steal = static_cast<double>(to.steal - from.steal);
  const double busy = static_cast<double>(to.busy - from.busy);
  return steal + busy > 0 ? steal / (steal + busy) : 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

/// The waiting side, read after the run from what the layers already
/// publish (the registry is reset just before START FEED).
Metrics ReadRegistry(const WorkloadSpec& w) {
  idea::obs::MetricsRegistry& reg = idea::obs::MetricsRegistry::Default();
  auto sum_ms = [&](const std::string& name) { return reg.GetHistogram(name)->sum() / 1e3; };
  double blocked[2][2] = {};  // [intake|storage][push|pull]
  const char* roles[2] = {"intake", "storage"};
  for (size_t r = 0; r < 2; ++r) {
    for (size_t p = 0; p < kNodes; ++p) {
      std::string prefix = std::string("idea.") + roles[r] + "." + kFeed + ".p" +
                           std::to_string(p) + ".";
      blocked[r][0] += sum_ms(prefix + "push_block_us");
      blocked[r][1] += sum_ms(prefix + "pull_block_us");
    }
  }
  idea::obs::Histogram* inv =
      reg.GetHistogram(std::string("idea.compute.") + kFeed + ".invocation_us");
  return {
      {"runtime.intake.blocked_push_ms", blocked[0][0], "ms"},
      {"runtime.intake.blocked_pull_ms", blocked[0][1], "ms"},
      {"runtime.storage.blocked_push_ms", blocked[1][0], "ms"},
      {"runtime.storage.blocked_pull_ms", blocked[1][1], "ms"},
      {"storage.store.busy_ms", sum_ms(std::string("idea.storage.") + kFeed + ".store_us"),
       "ms"},
      {"feed.invocation.p50_ms", inv->Percentile(0.5) / 1e3, "ms"},
      {"feed.invocation.p99_ms", inv->Percentile(0.99) / 1e3, "ms"},
      {"storage.compaction.ms_concurrent", sum_ms("idea.lsm." + w.target + ".compact_us"),
       "ms"},
  };
}

/// Largest number of records handed to intake but not yet committed.
uint64_t MaxBacklog(const std::vector<double>& due_us, const std::vector<FlowSample>& samples) {
  uint64_t worst = 0;
  size_t arrived = 0;
  for (const FlowSample& s : samples) {
    while (arrived < due_us.size() && due_us[arrived] <= s.t_us) ++arrived;
    if (arrived > s.departed) worst = std::max<uint64_t>(worst, arrived - s.departed);
  }
  return worst;
}

constexpr double kOpenLoopWarmupS = 1.0;

TrialResult RunTrial(const WorkloadSpec& w, const Inputs& in, bool read_registry) {
  TrialResult r;
  const size_t n = in.tweets.size();
  r.attempted = n;
  r.failed = n;  // until proven committed
  const int64_t epoch = NowNs();
  // Declared before the instance: the engine owns the adapter that writes it.
  FlowLog log(n, epoch);
  auto deployed = Deploy(w, in);
  if (!deployed.ok()) {
    r.errors.push_back("deploy: " + deployed.status().ToString());
    return r;
  }
  Deployment& d = *deployed;
  Status attached = d.db->SetFeedAdapterFactory(
      kFeed, [&](size_t, size_t) -> Result<std::unique_ptr<idea::feed::FeedAdapter>> {
        return std::unique_ptr<idea::feed::FeedAdapter>(
            std::make_unique<ScheduledAdapter>(&in.tweets, w.tweet_rate, &log));
      });
  if (!attached.ok()) {
    r.errors.push_back("attach adapter: " + attached.ToString());
    return r;
  }
  DepartureSampler sampler(d.target.get(), epoch);
  std::unique_ptr<ReferenceUpdater> updates;
  if (w.update_rate > 0) {
    updates = std::make_unique<ReferenceUpdater>(w, in, d.reference.get(), &log);
  }
  sampler.Start();
  if (updates != nullptr) updates->Start();
  if (read_registry) idea::obs::MetricsRegistry::Default().ResetForTest();

  const int64_t feed_start = NowNs();
  Status started = d.db->ExecuteSqlpp("START FEED TweetFeed;").status();
  r.setup_s = static_cast<double>(NowNs() - epoch) / 1e9;
  if (!started.ok()) {
    r.errors.push_back("START FEED: " + started.ToString());
    return r;
  }
  auto stats = d.db->WaitForFeed(kFeed);
  const int64_t feed_end = NowNs();
  r.peak_rss_mb = PeakRssMb();
  sampler.Stop();
  if (updates != nullptr) updates->Stop();
  if (!stats.ok()) {
    r.errors.push_back("feed: " + stats.status().ToString());
    return r;
  }
  if (read_registry) r.registry = ReadRegistry(w);

  const uint64_t committed = std::min<uint64_t>(d.target->LiveRecordCount(), n);
  r.committed = committed;
  r.feed_s = static_cast<double>(feed_end - feed_start) / 1e9;
  r.throughput_rps = static_cast<double>(committed) / r.feed_s;
  if (stats->records_ingested != n || committed != n) {
    r.errors.push_back("committed " + std::to_string(committed) + " of " +
                       std::to_string(n) + " records (" +
                       std::to_string(stats->records_ingested) + " ingested)");
  }
  r.failed = (n - committed) + CheckOutputs(w, in, d, &r.errors);
  // On the open loop the first second is the feed's cold start (the first
  // invocation builds the hash state from scratch while tweets keep
  // arriving); latency is taken over the steady state after it.
  const size_t skip = static_cast<size_t>(kOpenLoopWarmupS * w.tweet_rate);
  const std::vector<double> latency_us = CumulativeFlowLatencies(log.due_us, sampler.samples());
  for (size_t i = skip; i < latency_us.size(); ++i) r.latency_ms.push_back(latency_us[i] / 1e3);
  r.generator_lag_ms = static_cast<double>(log.max_lag_ns) / 1e6;
  r.max_backlog = MaxBacklog(log.due_us, sampler.samples());
  if (updates != nullptr) {
    r.updates_applied = updates->applied();
    r.update_rate = updates->achieved_rate();
    if (!updates->error().ok()) {
      r.errors.push_back("reference update: " + updates->error().ToString());
    }
    if (r.update_rate < 0.95 * w.update_rate) {
      r.errors.push_back("update rate " + std::to_string(r.update_rate) +
                         "/s is below 95% of the offered " +
                         std::to_string(w.update_rate) + "/s");
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Reporting

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void PrintMetrics(const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Writes `body` to `path`; a failed write is reported but not fatal.
void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  f << body;
  if (!f) std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
}

int Finish(uint64_t attempted, uint64_t failed, const std::vector<std::string>& errors,
           const Metrics& metrics) {
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  const bool correct = errors.empty() && failed == 0;
  std::printf("failed_frac = %.6f (%llu of %llu records)\n",
              attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

int RunEndToEnd(const WorkloadSpec& w, const Inputs& in, const Args& args) {
  constexpr size_t kMinTrials = 3, kMaxTrials = 40;
  const CpuTicks ticks = ReadCpuTicks();
  // The first trial warms the process (heap, thread pools); it is checked
  // and gives the peak RSS, but is not timed.
  TrialResult warmup = RunTrial(w, in, false);
  std::vector<TrialResult> trials;
  const int64_t start = NowNs();
  while (trials.size() < kMinTrials ||
         (static_cast<double>(NowNs() - start) / 1e9 < args.seconds &&
          trials.size() < kMaxTrials)) {
    trials.push_back(RunTrial(w, in, false));
  }
  std::vector<double> setup, latency;
  double committed = 0, feed_s = 0;
  std::vector<std::string> errors = warmup.errors;
  uint64_t attempted = warmup.attempted, failed = warmup.failed, max_backlog = 0;
  double max_lag_ms = 0;
  std::string trial_json;
  for (const TrialResult& t : trials) {
    committed += static_cast<double>(t.committed);
    feed_s += t.feed_s;
    setup.push_back(t.setup_s);
    latency.insert(latency.end(), t.latency_ms.begin(), t.latency_ms.end());
    attempted += t.attempted;
    failed += t.failed;
    max_backlog = std::max(max_backlog, t.max_backlog);
    max_lag_ms = std::max(max_lag_ms, t.generator_lag_ms);
    errors.insert(errors.end(), t.errors.begin(), t.errors.end());
    trial_json += std::string(trial_json.empty() ? "" : ", ") + "{\"setup_s\": " +
                  Num(t.setup_s) + ", \"throughput_rps\": " + Num(t.throughput_rps) +
                  ", \"generator_lag_ms\": " + Num(t.generator_lag_ms) +
                  ", \"max_backlog\": " + std::to_string(t.max_backlog) +
                  ", \"updates_applied\": " + std::to_string(t.updates_applied) +
                  ", \"update_rate\": " + Num(t.update_rate) + "}";
  }
  std::sort(latency.begin(), latency.end());
  if (!PercentileSupported(latency.size(), 0.99)) {
    errors.push_back("only " + std::to_string(latency.size()) +
                     " latency samples: p99 needs at least 1000");
  }
  Metrics metrics = {
      // Records committed per second of feed time, over all timed trials.
      {"throughput_rps", feed_s > 0 ? committed / feed_s : 0, "1/s"},
      {"latency_p50_ms", SortedPercentile(latency, 0.5), "ms"},
      {"latency_p99_ms", SortedPercentile(latency, 0.99), "ms"},
      {"setup_s", Median(setup), "s"},
      // Process peak through the first trial: the inputs plus one
      // instance's set-up and feed run, before later trials fragment the heap.
      {"peak_rss_mb", warmup.peak_rss_mb, "MB"},
  };
  const double steal = StealFrac(ticks, ReadCpuTicks());
  std::printf("%s: %zu trials of %zu records, %zu latency samples (highest supported "
              "percentile p%g), generator lag max %.3f ms, backlog max %llu records, "
              "host CPU steal %.1f%%\n",
              w.name.c_str(), trials.size(), in.tweets.size(), latency.size(),
              100 * HighestSupportedPercentile(latency.size()), max_lag_ms,
              static_cast<unsigned long long>(max_backlog), 100 * steal);
  PrintMetrics(metrics);
  WriteFile(args.out_dir + "/" + w.name + ".e2e.json",
            "{\"workload\": " + JsonString(w.name) + ", \"seed\": " +
                std::to_string(in.seed) + ", \"latency_samples\": " +
                std::to_string(latency.size()) + ", \"host_cpu_steal_frac\": " + Num(steal) +
                ", \"metrics\": " + MetricsJson(metrics) +
                ", \"trials\": [" + trial_json + "]}\n");
  return Finish(attempted, failed, errors, metrics);
}

int RunTraced(const WorkloadSpec& w, const Inputs& in, const Args& args) {
  const std::string prefix = args.out_dir + "/" + w.name;
  const CpuTicks ticks = ReadCpuTicks();
  Metrics metrics;
  std::vector<std::string> errors;
  uint64_t replay_failed = 0;
  Status replayed = RunReplay(w, in, prefix, &metrics, &replay_failed);
  if (!replayed.ok()) errors.push_back("replay: " + replayed.ToString());
  // Part (b): the concurrent pipeline, untraced and then read back from the
  // registry; their throughput difference is the tracing overhead.
  TrialResult plain = RunTrial(w, in, false);
  TrialResult traced = RunTrial(w, in, true);
  const double overhead = plain.throughput_rps > 0
                              ? 1.0 - traced.throughput_rps / plain.throughput_rps
                              : 0;
  metrics.insert(metrics.end(), traced.registry.begin(), traced.registry.end());
  metrics.push_back({"feed.generator_lag_ms", traced.generator_lag_ms, "ms"});
  metrics.push_back({"feed.backlog_max", static_cast<double>(traced.max_backlog), "count"});
  metrics.push_back({"latency.samples", static_cast<double>(traced.latency_ms.size()), "count"});
  metrics.push_back({"trace.overhead_frac", overhead, "ratio"});
  metrics.push_back({"host.cpu_steal_frac", StealFrac(ticks, ReadCpuTicks()), "ratio"});
  for (const TrialResult* t : {&plain, &traced}) {
    errors.insert(errors.end(), t->errors.begin(), t->errors.end());
  }
  std::printf("%s traced: replay of %zu records, plain %.0f rec/s vs traced %.0f rec/s "
              "(overhead %.2f%%); spans in %s.spans.tsv\n",
              w.name.c_str(), in.tweets.size(), plain.throughput_rps,
              traced.throughput_rps, 100 * overhead, prefix.c_str());
  PrintMetrics(metrics);
  WriteFile(prefix + ".trace.json", "{\"workload\": " + JsonString(w.name) +
                                        ", \"seed\": " + std::to_string(in.seed) +
                                        ", \"metrics\": " + MetricsJson(metrics) + "}\n");
  const uint64_t attempted = in.tweets.size() + plain.attempted + traced.attempted;
  const uint64_t failed = replay_failed + plain.failed + traced.failed;
  return Finish(attempted, failed, errors, metrics);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  const WorkloadSpec* w = nullptr;
  if (!ParseArgs(argc, argv, &args) || (w = FindWorkload(args.workload)) == nullptr) {
    std::fprintf(stderr,
                 "usage: %s --workload plain_bulk|enrich_heavy|enrich_fresh --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n",
                 argv[0]);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const Inputs in = MakeInputs(*w, args.seed);
  return args.trace ? RunTraced(*w, in, args) : RunEndToEnd(*w, in, args);
}
