// Failover recovery smoke: a clean HA ingestion run vs runs where a node is
// killed mid-feed at randomized liveness-probe hits. The HA contract is
// at-least-once redelivery into PK-idempotent upserts, so the gate is exact:
// post-failover dataset contents must be bit-identical to the clean run,
// zero records may be lost, and recovery must be bounded. Emits
// BENCH_failover.json. Exit status is the gate — it runs under ctest as
// micro_failover_smoke.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/virtual_clock.h"
#include "feed/active_feed_manager.h"
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
};

/// One full HA feed run (fresh cluster + catalog per run so rounds are
/// independent); the caller arms node.kill beforehand for chaos rounds.
RunResult RunFeed(const std::shared_ptr<std::vector<std::string>>& tweets,
                  int run_id) {
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
  args.adapter_factory = idea::feed::MakeVectorAdapterFactory(tweets);

  RunResult out;
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

    const char* verdict = "ok";
    if (killed.stats.failovers == 0) {
      verdict = "NO FAILOVER FIRED";
      ++failures;
    } else if (killed.contents != clean.contents) {
      verdict = "CONTENTS DIVERGED";
      ++failures;
    } else if (killed.live_records != kRecords) {
      verdict = "RECORDS LOST";
      ++failures;
    } else if (killed.stats.last_recovery_us >= kMaxRecoveryUs ||
               killed.stats.recovery_to_resume_us >= kMaxResumeUs) {
      verdict = "RECOVERY UNBOUNDED";
      ++failures;
    }
    std::printf(
        "kill@%-4" PRIu64 ": %" PRIu64 " failover(s), %" PRIu64
        " redelivered, re-plan %.0f us, resume %.0f us  [%s]\n",
        kill_at, killed.stats.failovers, killed.stats.records_redelivered,
        killed.stats.last_recovery_us, killed.stats.recovery_to_resume_us, verdict);
  }

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
                 "\"contents_identical\":%s,\"records_lost\":%s}\n",
                 kRecords, killed_rounds, clean_rps, killed_rps, total_failovers,
                 total_redelivered, worst_recovery_us, worst_resume_us,
                 kMaxRecoveryUs, kMaxResumeUs,
                 failures == 0 ? "true" : "false",
                 failures == 0 ? "false" : "true");
    std::fclose(f);
    std::printf("wrote BENCH_failover.json\n");
  }

  if (failures != 0) {
    std::fprintf(stderr, "FAIL: %d of %zu kill rounds violated the gate\n",
                 failures, killed_rounds);
    return 1;
  }
  std::printf("PASS: %zu kill rounds, contents bit-identical, zero lost, "
              "worst re-plan %.0f us, worst resume %.0f us\n",
              killed_rounds, worst_recovery_us, worst_resume_us);
  return 0;
}
