// Failover recovery smoke: a clean HA ingestion run vs runs where a node is
// killed mid-feed at randomized liveness-probe hits. The HA contract is
// at-least-once redelivery into PK-idempotent upserts, so the gate is exact:
// post-failover dataset contents must be bit-identical to the clean run,
// zero records may be lost, and recovery must be bounded. Emits
// BENCH_failover.json. Exit status is the gate — it runs under ctest as
// micro_failover_smoke.
//
// The kill rounds replay a vector source that runs ahead of the pipeline to
// EOF, and EOF lets every partition's pull finish with what it has, so a
// partition that stops getting records there goes unseen. The paced round
// replays the same records at a rate well below the pipeline's and kills a
// node halfway: there, a partition the router stops feeding stalls every
// invocation, and storage falls behind the source until EOF. It is gated on
// the same verdicts plus the largest gap between records emitted and
// records stored while the source runs.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/virtual_clock.h"
#include "feed/active_feed_manager.h"
#include "obs/metrics.h"
#include "storage/lsm_dataset.h"

namespace {

using idea::common::FaultInjector;
using idea::common::FaultSpec;

constexpr size_t kRecords = 50000;
// Kill points: the Nth keyed node.kill probe hit. Spread across the feed's
// lifetime so the victim dies in different pipeline stages (task start,
// pre-ship, storage drain) and at different backlog depths.
constexpr uint64_t kKillPoints[] = {5, 60, 700};
// Bounded-recovery gates. Re-planning the partition map is an in-memory
// operation (microseconds); the re-plan -> next successful batch distance
// also covers the redelivery drain. Both generous for CI.
constexpr double kMaxRecoveryUs = 1e6;        // re-plan itself: < 1 s
constexpr double kMaxResumeUs = 10e6;         // re-plan -> resumed: < 10 s
// Paced round: the source's rate, an order of magnitude below a clean run's,
// and the most records it may have emitted ahead of storage (a tenth of a
// second of the source) at any point while it runs.
constexpr double kPacedRps = 20000;
constexpr uint64_t kMaxPacedGap = 2000;

void Check(const idea::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

std::shared_ptr<std::vector<std::string>> MakeTweets(size_t n) {
  auto records = std::make_shared<std::vector<std::string>>();
  records->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records->push_back("{\"id\": " + std::to_string(i) +
                       ", \"text\": \"failover bench payload " +
                       std::to_string(i * 131 % 1013) + "\"}");
  }
  return records;
}

struct RunResult {
  std::vector<std::string> contents;   // scan order = PK order
  uint64_t live_records = 0;
  idea::feed::FeedRuntimeStats stats;
  double wall_us = 0;
  /// Paced runs: the most records emitted and not yet stored at any point
  /// while the source ran.
  uint64_t max_gap = 0;
};

/// One full HA feed run (fresh cluster + catalog per run so rounds are
/// independent); the caller arms node.kill beforehand for chaos rounds.
/// With `paced_rps` > 0 the source emits at that rate instead of running
/// ahead, and it kills the last node once half the records are out.
RunResult RunFeed(const std::shared_ptr<std::vector<std::string>>& tweets,
                  int run_id, double paced_rps = 0) {
  idea::storage::Catalog catalog;
  idea::feed::UdfRegistry udfs;
  Check(catalog.CreateDatatype(idea::adm::Datatype(
            "TweetType", {{"id", idea::adm::FieldType::kInt64, false},
                          {"text", idea::adm::FieldType::kString, false}})),
        "create datatype");
  Check(catalog.CreateDataset("Out", "TweetType", "id"), "create dataset");

  idea::cluster::ClusterConfig cc;
  cc.nodes = 3;
  cc.mode = idea::cluster::ExecutionMode::kThreads;
  idea::cluster::Cluster cluster(cc);
  idea::feed::ActiveFeedManager afm(&cluster, &catalog, &udfs);

  idea::feed::ActiveFeedManager::StartArgs args;
  const std::string name = "failover" + std::to_string(run_id);
  args.config.name = name;
  args.config.type_name = "TweetType";
  args.config.batch_size = 64;
  args.config.ha_failover = true;
  args.config.holder_push_deadline_us = 10'000'000;
  args.connection.dataset = "Out";

  RunResult out;
  if (paced_rps == 0) {
    args.adapter_factory = idea::feed::MakeVectorAdapterFactory(tweets);
  } else {
    // Records the storage drains applied. Redelivered duplicates count too,
    // so the gap below never overstates how far storage is behind.
    idea::obs::Counter* stored = idea::obs::MetricsRegistry::Default().GetCounter(
        "idea.storage." + name + ".records");
    // The adapter task is the only writer of out.max_gap, and the feed's
    // drain joins it before WaitForFeedStats returns.
    args.adapter_factory = [&tweets, &cluster, &out, stored, paced_rps](
                               size_t, size_t)
        -> idea::Result<std::unique_ptr<idea::feed::FeedAdapter>> {
      auto next = std::make_shared<size_t>(0);
      const auto start = std::chrono::steady_clock::now();
      return std::unique_ptr<idea::feed::FeedAdapter>(new idea::feed::GeneratorAdapter(
          [&tweets, &cluster, &out, stored, paced_rps, next, start](std::string* rec) {
            const size_t i = (*next)++;
            if (i >= tweets->size()) return false;
            if (i == tweets->size() / 2) {
              Check(cluster.FailNode(cluster.node_count() - 1), "kill node");
            }
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(i / paced_rps)));
            const uint64_t done = stored->value();
            if (i > done) out.max_gap = std::max<uint64_t>(out.max_gap, i - done);
            *rec = (*tweets)[i];
            return true;
          }));
    };
  }
  idea::WallTimer timer;
  timer.Start();
  Check(afm.StartFeed(std::move(args)), "start feed");
  auto stats = afm.WaitForFeedStats(name);
  out.wall_us = timer.ElapsedMicros();
  Check(stats.ok() ? idea::Status::OK() : stats.status(), "drain feed");
  out.stats = *stats;

  auto snapshot = catalog.FindDataset("Out")->Scan();
  out.contents.reserve(snapshot->size());
  for (const idea::adm::Value& v : *snapshot) out.contents.push_back(v.ToString());
  out.live_records = catalog.FindDataset("Out")->LiveRecordCount();
  return out;
}

/// The first gate a kill round's run violates, or nullptr.
const char* Violation(const RunResult& killed, const RunResult& clean) {
  if (killed.stats.failovers == 0) return "NO FAILOVER FIRED";
  if (killed.contents != clean.contents) return "CONTENTS DIVERGED";
  if (killed.live_records != kRecords) return "RECORDS LOST";
  if (killed.stats.last_recovery_us >= kMaxRecoveryUs ||
      killed.stats.recovery_to_resume_us >= kMaxResumeUs) {
    return "RECOVERY UNBOUNDED";
  }
  return nullptr;
}

}  // namespace

int main() {
  auto tweets = MakeTweets(kRecords);
  int run_id = 0;
  int failures = 0;

  FaultInjector::Default().DisarmAll();
  RunResult clean = RunFeed(tweets, run_id++);
  if (clean.live_records != kRecords) {
    std::fprintf(stderr, "FAIL: clean run stored %" PRIu64 " of %zu records\n",
                 clean.live_records, kRecords);
    return 1;
  }
  std::printf("clean run: %zu records in %.0f ms (%.0f rec/s)\n", kRecords,
              clean.wall_us / 1000.0, kRecords * 1e6 / clean.wall_us);

  double killed_wall_total = 0;
  uint64_t total_failovers = 0, total_redelivered = 0;
  double worst_recovery_us = 0, worst_resume_us = 0;
  size_t killed_rounds = 0;
  for (uint64_t kill_at : kKillPoints) {
    FaultInjector::Default().Reseed(9000 + kill_at);
    FaultInjector::Default().Arm("node.kill", FaultSpec::Nth(kill_at));
    RunResult killed = RunFeed(tweets, run_id++);
    FaultInjector::Default().DisarmAll();
    killed_wall_total += killed.wall_us;
    ++killed_rounds;
    total_failovers += killed.stats.failovers;
    total_redelivered += killed.stats.records_redelivered;
    if (killed.stats.last_recovery_us > worst_recovery_us) {
      worst_recovery_us = killed.stats.last_recovery_us;
    }
    if (killed.stats.recovery_to_resume_us > worst_resume_us) {
      worst_resume_us = killed.stats.recovery_to_resume_us;
    }

    const char* violation = Violation(killed, clean);
    if (violation != nullptr) ++failures;
    std::printf(
        "kill@%-4" PRIu64 ": %" PRIu64 " failover(s), %" PRIu64
        " redelivered, re-plan %.0f us, resume %.0f us  [%s]\n",
        kill_at, killed.stats.failovers, killed.stats.records_redelivered,
        killed.stats.last_recovery_us, killed.stats.recovery_to_resume_us,
        violation != nullptr ? violation : "ok");
  }

  // Paced round: the same records, emitted well below the pipeline's rate,
  // with the last node killed halfway.
  RunResult paced = RunFeed(tweets, run_id++, kPacedRps);
  const char* paced_violation = Violation(paced, clean);
  if (paced_violation == nullptr && paced.max_gap > kMaxPacedGap) {
    paced_violation = "STORAGE FELL BEHIND";
  }
  if (paced_violation != nullptr) ++failures;
  std::printf("paced @%.0f rec/s, kill halfway: %" PRIu64 " failover(s), %" PRIu64
              " redelivered, re-plan %.0f us, resume %.0f us, max gap %" PRIu64
              " records (limit %" PRIu64 ")  [%s]\n",
              kPacedRps, paced.stats.failovers, paced.stats.records_redelivered,
              paced.stats.last_recovery_us, paced.stats.recovery_to_resume_us,
              paced.max_gap, kMaxPacedGap,
              paced_violation != nullptr ? paced_violation : "ok");

  double clean_rps = kRecords * 1e6 / clean.wall_us;
  double killed_rps =
      kRecords * killed_rounds * 1e6 / (killed_wall_total > 0 ? killed_wall_total : 1);
  std::FILE* f = std::fopen("BENCH_failover.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\"series\":\"failover_recovery\",\"records\":%zu,"
                 "\"killed_rounds\":%zu,"
                 "\"clean_rps\":%.1f,\"killed_rps\":%.1f,"
                 "\"failovers\":%" PRIu64 ",\"records_redelivered\":%" PRIu64
                 ",\"worst_recovery_us\":%.1f,\"worst_resume_us\":%.1f,"
                 "\"recovery_limit_us\":%.0f,\"resume_limit_us\":%.0f,"
                 "\"paced_rps\":%.0f,\"paced_max_gap\":%" PRIu64
                 ",\"paced_gap_limit\":%" PRIu64 ","
                 "\"contents_identical\":%s,\"records_lost\":%s}\n",
                 kRecords, killed_rounds, clean_rps, killed_rps, total_failovers,
                 total_redelivered, worst_recovery_us, worst_resume_us,
                 kMaxRecoveryUs, kMaxResumeUs, kPacedRps, paced.max_gap, kMaxPacedGap,
                 failures == 0 ? "true" : "false",
                 failures == 0 ? "false" : "true");
    std::fclose(f);
    std::printf("wrote BENCH_failover.json\n");
  }

  if (failures != 0) {
    std::fprintf(stderr, "FAIL: %d of %zu kill rounds violated the gate\n",
                 failures, killed_rounds + 1);
    return 1;
  }
  std::printf("PASS: %zu kill rounds + 1 paced round, contents bit-identical, "
              "zero lost, worst re-plan %.0f us, worst resume %.0f us, paced max "
              "gap %" PRIu64 " records\n",
              killed_rounds, worst_recovery_us, worst_resume_us, paced.max_gap);
  return 0;
}
