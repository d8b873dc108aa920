// Active Feed Manager (AFM, paper §6.1): lives on the Cluster Controller,
// tracks every active feed, and keeps invoking new computing jobs as data
// batches arrive. Orchestrates the full lifecycle:
//
//   START FEED  -> compile the computing job on every node, start intake +
//                  storage jobs, start the invocation loop (a task on the
//                  CC's pool)
//   (loop)      -> one computing-job invocation per batch, one at a time;
//                  each refreshes the UDF's intermediate state (Model 2,
//                  §4.3.3) and gets every partition's node and holders from
//                  the feed's routes
//   STOP FEED   -> adapters stop, intake EOF, the in-flight invocation
//                  finishes with a partial batch, storage job drains & stops
//
// The feed's ActiveFeed owns all three jobs; nothing is registered with the
// cluster, so a failed START leaves nothing behind.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cluster_controller.h"
#include "common/first_error.h"
#include "common/status.h"
#include "feed/computing_job.h"
#include "feed/dead_letter.h"
#include "feed/feed.h"
#include "feed/intake_job.h"
#include "feed/storage_job.h"
#include "feed/udf.h"
#include "runtime/task_scheduler.h"
#include "storage/catalog.h"

namespace idea::feed {

class ActiveFeedManager {
 public:
  ActiveFeedManager(cluster::Cluster* cluster, storage::Catalog* catalog,
                    UdfRegistry* udfs)
      : cluster_(cluster), catalog_(catalog), udfs_(udfs) {}
  ~ActiveFeedManager();

  struct StartArgs {
    FeedConfig config;
    FeedConnection connection;
    AdapterFactory adapter_factory;
  };

  /// Validates, deploys, and starts the three-layer pipeline for a feed.
  Status StartFeed(StartArgs args);

  /// Requests a feed stop (asynchronous drain). WaitForFeed observes the end.
  Status StopFeed(const std::string& feed_name);

  /// Blocks until the feed's pipeline fully drains and stops.
  Status WaitForFeed(const std::string& feed_name);

  /// WaitForFeed + the feed's final lifetime statistics.
  Result<FeedRuntimeStats> WaitForFeedStats(const std::string& feed_name);

  Result<FeedRuntimeStats> GetStats(const std::string& feed_name) const;
  std::vector<std::string> ActiveFeeds() const;
  bool IsActive(const std::string& feed_name) const;

  /// The feed's dead-letter queue (policy dead-letter). Queues outlive the
  /// feed run that filled them — operators drain post-mortem — and are
  /// replaced when the feed restarts. Null when the feed never ran with the
  /// dead-letter policy.
  std::shared_ptr<DeadLetterQueue> dead_letter_queue(const std::string& feed_name) const;

 private:
  struct ActiveFeed {
    FeedConfig config;
    FeedConnection connection;
    std::unique_ptr<ComputingJob> computing;
    std::unique_ptr<IntakeJob> intake;
    std::unique_ptr<StorageJob> storage;
    /// The DriveFeed invocation loop, a task on the CC's pool.
    runtime::TaskGroup driver;
    /// Shared with dlqs_ so letters survive feed completion.
    std::shared_ptr<DeadLetterQueue> dlq;
    FeedRuntimeStats stats;
    common::FirstError final_status;

    /// Partition p's hosting node and holders, and the failover budget.
    /// Only the feed's DriveFeed loop reads them after StartFeed; its
    /// RecoverFeed calls re-point them between invocations.
    std::vector<ComputingJob::Route> routes;
    uint32_t failovers_done = 0;
    /// NowMicros() when the last recovery finished; cleared by the first
    /// successful invocation after it (feeds recovery_to_resume_us).
    double recovering_since_us = 0;
  };

  void DriveFeed(ActiveFeed* feed);
  /// Feed failover (Grover & Carey recovery model): re-points every
  /// partition hosted on a dead node to the least-loaded live node, restarts
  /// its storage drain there, and redelivers unacked leased batches. A no-op
  /// when no partition sits on a dead node. Runs on the feed's DriveFeed loop
  /// only.
  Status RecoverFeed(ActiveFeed* feed);
  /// Pulls leftover intake batches after a failure so adapters blocked on a
  /// full holder can finish and EOF lands.
  void DrainIntakeBacklog(ActiveFeed* feed);
  /// Writes the failed feed's post-mortem (final metrics + flight-recorder
  /// dump) to `<config.post_mortem_dir>/<feed>.postmortem.json`. Best effort.
  void WritePostMortem(const ActiveFeed& feed, const Status& outcome);

  cluster::Cluster* cluster_;
  storage::Catalog* catalog_;
  UdfRegistry* udfs_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<ActiveFeed>> feeds_;
  /// Feed name -> its latest dead-letter queue (kept after the feed stops).
  std::map<std::string, std::shared_ptr<DeadLetterQueue>> dlqs_;
};

}  // namespace idea::feed
