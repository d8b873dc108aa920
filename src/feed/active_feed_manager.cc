#include "feed/active_feed_manager.h"

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "adm/json.h"
#include "common/virtual_clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"

namespace idea::feed {

ActiveFeedManager::~ActiveFeedManager() {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, feed] : feeds_) names.push_back(name);
  }
  for (const auto& name : names) {
    (void)StopFeed(name);
    (void)WaitForFeed(name);
  }
}

Status ActiveFeedManager::StartFeed(StartArgs args) {
  const std::string& name = args.config.name;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (feeds_.count(name) > 0) {
      return Status::AlreadyExists("feed '" + name + "' is already active");
    }
  }
  std::shared_ptr<storage::LsmDataset> dataset =
      catalog_->FindDataset(args.connection.dataset);
  if (dataset == nullptr) {
    return Status::NotFound("feed '" + name + "' targets unknown dataset '" +
                            args.connection.dataset + "'");
  }
  // Compile the computing job once per node (the paper's predeployed job),
  // then bring up the two long-running jobs.
  auto feed = std::make_shared<ActiveFeed>(args);
  IDEA_ASSIGN_OR_RETURN(feed->computing,
                        ComputingJob::Deploy(feed->config, args.connection.apply_function,
                                             cluster_, catalog_, udfs_, &feed->policy));
  if (feed->policy.dlq() != nullptr) {
    // A fresh queue per run; the previous run's letters are dropped once the
    // feed restarts (operators drain between runs).
    std::lock_guard<std::mutex> lock(mu_);
    dlqs_[name] = feed->policy.dlq();
  }
  // One partition per node. Non-HA feeds keep the fixed identity binding
  // (partition p on node p); HA feeds plan over the live nodes
  // (round-robin).
  std::vector<size_t> placement(cluster_->node_count());
  for (size_t p = 0; p < placement.size(); ++p) placement[p] = p;
  if (feed->config.ha_failover) {
    const std::vector<size_t> live = cluster_->LiveNodes();
    if (live.empty()) {
      return Status::Unavailable("feed '" + name + "': no live node to start on");
    }
    for (size_t p = 0; p < placement.size(); ++p) {
      placement[p] = live[p % live.size()];
    }
  }
  feed->intake = std::make_unique<IntakeJob>(name, cluster_);
  feed->storage = std::make_unique<StorageJob>(name, cluster_, dataset, &feed->policy,
                                               feed->config);
  if (feed->config.ha_failover) {
    // Durable-frame hook: a frame's WAL group-commit retires it against its
    // intake lease, and the ledger says how many records count as stored
    // (each once, also across redelivery). Installed before Start so no
    // drain loop ever races the assignment. The intake job outlives the
    // storage job (member order), so the raw capture is safe.
    IntakeJob* intake_raw = feed->intake.get();
    feed->storage->set_frame_ack(
        [intake_raw](size_t partition, uint64_t lease, uint64_t stored) {
          return intake_raw->AckFrame(partition, lease, stored);
        });
  }
  IDEA_RETURN_NOT_OK(feed->storage->Start(placement));
  IDEA_RETURN_NOT_OK(feed->intake->Start(args.adapter_factory, args.config,
                                         placement.size(), &feed->policy));
  for (size_t p = 0; p < placement.size(); ++p) {
    feed->routes.push_back(ComputingJob::Route{placement[p], feed->intake->holder(p),
                                               feed->storage->holder(p)});
  }
  // The intake job asks the AFM to keep invoking computing jobs (§6.1);
  // the driver task on the CC's pool is that loop.
  ActiveFeed* raw = feed.get();
  Status st = raw->driver.Launch(&cluster_->cc_scheduler(), [this, raw]() -> Status {
    DriveFeed(raw);
    return Status::OK();
  });
  if (!st.ok()) {
    // CC pool is stopping (shutdown). Unwind: no driver will ever pull, so
    // stop the adapters and drain the backlog before the jobs' destructors
    // join their tasks.
    raw->intake->StopAdapters();
    DrainIntakeBacklog(raw);
    return st;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    feeds_.emplace(name, std::move(feed));
  }
  obs::FlightRecorder::Default().Record(
      obs::FlightEventKind::kFeedStart, name,
      "dataset=" + args.connection.dataset);
  return Status::OK();
}

void ActiveFeedManager::DrainIntakeBacklog(ActiveFeed* feed) {
  for (size_t p = 0; p < feed->intake->partition_count(); ++p) {
    std::vector<std::string> junk;
    while (feed->intake->holder(p)->PullBatch(1u << 12, &junk)) junk.clear();
  }
}

void ActiveFeedManager::DriveFeed(ActiveFeed* feed) {
  WallTimer lifetime;
  lifetime.Start();
  // Per-feed registry scope: feed-lifecycle metrics live under
  // idea.feed.<name>.* (the storage drains add records_ingested there as
  // frames commit) alongside the per-stage idea.{intake,compute,storage}
  // series the jobs record themselves.
  obs::Scope scope(&obs::MetricsRegistry::Default(), "idea.feed." + feed->config.name);
  obs::Counter* jobs_metric = scope.Counter("computing_jobs");
  obs::Gauge* inflight = scope.Gauge("inflight_invocations");

  // Invocations run one after another, so each sees the UDF state refreshed
  // after the previous batch was enriched.
  while (true) {
    // Routes change only in RecoverFeed, which runs on this loop between
    // invocations, so the invocation reads them in place.
    inflight->Add(1);
    auto inv = feed->computing->RunOnce(feed->routes);
    inflight->Add(-1);
    Status st = inv.status();
    if (inv.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (feed->recovering_since_us != 0) {
          feed->stats.recovery_to_resume_us =
              obs::NowMicros() - feed->recovering_since_us;
          feed->recovering_since_us = 0;
        }
        feed->stats.parse_errors += inv->parse_errors;
        feed->stats.validation_errors += inv->validation_errors;
        if (inv->records_in > 0 || !inv->intake_exhausted) {
          ++feed->stats.computing_jobs;
          feed->stats.compute_micros_total += inv->wall_micros;
        }
      }
      if (inv->records_in > 0 || !inv->intake_exhausted) jobs_metric->Increment();
      if (!inv->intake_exhausted) continue;
      // Every record has shipped, but an HA feed's drains may still hold
      // frames. Close the storage job only once they are durable.
      if (!feed->config.ha_failover) break;
      st = AwaitDurable(feed);
      if (st.ok()) break;
    }
    if (feed->config.ha_failover && st.code() == StatusCode::kUnavailable) {
      // A hosting node is dead: re-plan, redeliver, resume.
      Status recovered = RecoverFeed(feed);
      if (recovered.ok()) continue;
      st = recovered;
    }
    // First failure stops the adapters; the backlog is drained below so
    // the intake job can reach EOF.
    if (feed->final_status.Set(st)) feed->intake->StopAdapters();
    break;
  }

  if (feed->final_status.failed()) {
    // Abort propagation: the pipeline is going down with an error. Poison
    // the holders on both job boundaries so anything still blocked in a
    // Push (an adapter against a full intake holder, a straggler computing
    // task against a full storage holder) fails fast instead of deadlocking
    // against consumers that will never pull again.
    Status cause = feed->final_status.Get();
    feed->intake->Abort(cause);
    feed->storage->Abort(cause);
    DrainIntakeBacklog(feed);
  }
  // When the last computing job for the feed finishes, the storage job stops
  // accordingly (§6.1).
  feed->storage->Close();
  feed->storage->Join();
  feed->intake->Join();
  feed->final_status.Set(feed->storage->first_error());
  feed->final_status.Set(feed->intake->first_error());
  {
    std::lock_guard<std::mutex> lock(mu_);
    feed->stats.wall_micros_total = lifetime.ElapsedMicros();
  }
  const Status outcome = feed->final_status.Get();
  if (outcome.ok()) {
    obs::FlightRecorder::Default().Record(
        obs::FlightEventKind::kFeedStop, feed->config.name,
        "records_ingested=" + std::to_string(feed->storage->records_stored()));
  } else {
    obs::FlightRecorder::Default().Record(obs::FlightEventKind::kFeedAbort,
                                          feed->config.name, outcome.ToString());
    if (!feed->config.post_mortem_dir.empty()) WritePostMortem(*feed, outcome);
  }
}

Status ActiveFeedManager::AwaitDurable(ActiveFeed* feed) {
  while (feed->intake->Unacked() > 0) {
    // Reading the flag, not CheckAlive, spends no node.kill probe hit.
    for (const ComputingJob::Route& route : feed->routes) {
      if (cluster_->node(route.node).dead()) {
        return Status::Unavailable("node-" + std::to_string(route.node) +
                                   " died before its frames were stored");
      }
    }
    IDEA_RETURN_NOT_OK(feed->storage->first_error());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return Status::OK();
}

Status ActiveFeedManager::RecoverFeed(ActiveFeed* feed) {
  WallTimer timer;
  timer.Start();
  std::vector<ComputingJob::Route>& routes = feed->routes;
  auto dead = [this](size_t node) { return cluster_->node(node).dead(); };
  // Partitions stranded on dead nodes under the current plan. Reading the
  // flag, not CheckAlive, spends no node.kill probe hit.
  std::vector<size_t> victims;
  for (size_t p = 0; p < routes.size(); ++p) {
    if (dead(routes[p].node)) victims.push_back(p);
  }
  if (victims.empty()) return Status::OK();
  if (feed->failovers_done >= feed->config.max_failovers) {
    return Status::Unavailable("feed '" + feed->config.name + "' exhausted its " +
                               std::to_string(feed->config.max_failovers) +
                               "-failover budget");
  }
  ++feed->failovers_done;
  // Candidate targets: the live nodes. Every node holds a compiled artifact
  // of this feed's computing job.
  const std::vector<size_t> targets = cluster_->LiveNodes();
  if (targets.empty()) {
    return Status::Unavailable("feed '" + feed->config.name +
                               "': no live node left to fail over to");
  }
  // Least-loaded placement: spread the victims over the targets hosting the
  // fewest partitions (ties broken by lowest index, so the plan is
  // deterministic for a given roster).
  std::vector<size_t> load(cluster_->node_count(), 0);
  for (const ComputingJob::Route& route : routes) {
    if (!dead(route.node)) load[route.node]++;
  }
  // The intake holders stay put: a partition's records keep waiting where
  // they are, and only the node that runs its tasks changes. Its storage
  // drain restarts on the target with a fresh holder, because the dead
  // node's drain may have poisoned the old one.
  for (size_t p : victims) {
    size_t best = targets[0];
    for (size_t t : targets) {
      if (load[t] < load[best]) best = t;
    }
    IDEA_RETURN_NOT_OK(feed->storage->RelocatePartition(p, best));
    obs::FlightRecorder::Default().Record(
        obs::FlightEventKind::kFailover, feed->config.name,
        "partition " + std::to_string(p) + ": node-" + std::to_string(routes[p].node) +
            " -> node-" + std::to_string(best),
        static_cast<int>(p));
    routes[p].node = best;
    routes[p].storage = feed->storage->holder(p);
    load[best]++;
  }
  // At-least-once: everything pulled but not fully acked goes back to the
  // front of its partition's queue. Duplicates are harmless — the storage
  // path upserts by primary key.
  const size_t redelivered = feed->intake->RedeliverUnackedAll();
  const double recovery_us = timer.ElapsedMicros();
  {
    std::lock_guard<std::mutex> lock(mu_);
    feed->stats.failovers++;
    feed->stats.records_redelivered += redelivered;
    feed->stats.last_recovery_us = recovery_us;
    feed->recovering_since_us = obs::NowMicros();
  }
  obs::FlightRecorder::Default().Record(
      obs::FlightEventKind::kFailover, feed->config.name,
      "re-planned " + std::to_string(victims.size()) + " partition(s), redelivered " +
          std::to_string(redelivered) + " record(s)",
      static_cast<int>(victims.size()));
  return Status::OK();
}

void ActiveFeedManager::WritePostMortem(const ActiveFeed& feed,
                                        const Status& outcome) {
  // Best effort throughout: the post-mortem is forensic output on a path
  // that is already failing; it must never turn an abort into a hang.
  ::mkdir(feed.config.post_mortem_dir.c_str(), 0755);
  const std::string path =
      feed.config.post_mortem_dir + "/" + feed.config.name + ".postmortem.json";
  obs::SnapshotExporter exporter(&obs::MetricsRegistry::Default(),
                                 &obs::Tracer::Default());
  char ts[64];
  std::snprintf(ts, sizeof(ts), "%.3f", obs::NowMicros());
  std::string json = "{\"type\":\"postmortem\",\"feed\":" +
                     adm::JsonQuote(feed.config.name) +
                     ",\"status\":" + adm::JsonQuote(outcome.ToString()) +
                     ",\"ts_us\":" + ts +
                     ",\"metrics\":" + exporter.RegistryJson() +
                     ",\"flight_recorder\":" +
                     obs::FlightRecorder::Default().DumpJson() + "}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[afm] cannot write post-mortem %s\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

Status ActiveFeedManager::StopFeed(const std::string& feed_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = feeds_.find(feed_name);
  if (it == feeds_.end()) {
    return Status::NotFound("feed '" + feed_name + "' is not active");
  }
  it->second->intake->StopAdapters();
  return Status::OK();
}

Status ActiveFeedManager::WaitForFeed(const std::string& feed_name) {
  IDEA_ASSIGN_OR_RETURN(FeedRuntimeStats stats, WaitForFeedStats(feed_name));
  (void)stats;
  return Status::OK();
}

FeedRuntimeStats ActiveFeedManager::Summary(const ActiveFeed& feed) {
  FeedRuntimeStats stats = feed.stats;
  stats.records_ingested = feed.storage->records_stored();
  stats.records_skipped = feed.policy.records_skipped();
  stats.dead_letters = feed.policy.dead_letters();
  stats.retries = feed.policy.retries();
  return stats;
}

Result<FeedRuntimeStats> ActiveFeedManager::WaitForFeedStats(
    const std::string& feed_name) {
  std::shared_ptr<ActiveFeed> feed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = feeds_.find(feed_name);
    if (it == feeds_.end()) {
      return Status::NotFound("feed '" + feed_name + "' is not active");
    }
    feed = it->second;
  }
  (void)feed->driver.Wait();
  FeedRuntimeStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = Summary(*feed);
    auto it = feeds_.find(feed_name);
    if (it != feeds_.end() && it->second == feed) {
      finished_[feed_name] = stats;
      feeds_.erase(it);
    }
  }
  IDEA_RETURN_NOT_OK(feed->final_status.Get());
  return stats;
}

Result<FeedRuntimeStats> ActiveFeedManager::GetStats(const std::string& feed_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = feeds_.find(feed_name);
  if (it != feeds_.end()) return Summary(*it->second);
  auto done = finished_.find(feed_name);
  if (done != finished_.end()) return done->second;
  return Status::NotFound("feed '" + feed_name + "' has not run");
}

std::vector<std::string> ActiveFeedManager::ActiveFeeds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, feed] : feeds_) out.push_back(name);
  return out;
}

bool ActiveFeedManager::IsActive(const std::string& feed_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return feeds_.count(feed_name) > 0;
}

std::shared_ptr<DeadLetterQueue> ActiveFeedManager::dead_letter_queue(
    const std::string& feed_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dlqs_.find(feed_name);
  return it == dlqs_.end() ? nullptr : it->second;
}

}  // namespace idea::feed

