#include "feed/active_feed_manager.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>

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
  auto feed = std::make_unique<ActiveFeed>();
  feed->config = args.config;
  feed->connection = args.connection;
  IDEA_ASSIGN_OR_RETURN(feed->computing,
                        ComputingJob::Deploy(feed->config, args.connection.apply_function,
                                             cluster_, catalog_, udfs_));
  if (feed->config.on_error == OnError::kDeadLetter) {
    // A fresh queue per run; the previous run's letters are dropped once the
    // feed restarts (operators drain between runs).
    feed->dlq = std::make_shared<DeadLetterQueue>(name, feed->config.dlq_capacity);
    std::lock_guard<std::mutex> lock(mu_);
    dlqs_[name] = feed->dlq;
  }
  // One partition per node. Non-HA feeds keep the fixed identity binding
  // (partition p on node p); HA feeds plan over the currently routable
  // members (round-robin).
  std::vector<size_t> placement(cluster_->node_count());
  for (size_t p = 0; p < placement.size(); ++p) placement[p] = p;
  if (feed->config.ha_failover) {
    std::vector<size_t> routable = cluster_->membership().RoutableNodes();
    if (routable.empty()) routable = cluster_->membership().AliveNodes();
    if (routable.empty()) {
      return Status::Unavailable("feed '" + name + "': no live node to start on");
    }
    for (size_t p = 0; p < placement.size(); ++p) {
      placement[p] = routable[p % routable.size()];
    }
  }
  feed->intake = std::make_unique<IntakeJob>(name, cluster_);
  feed->storage = std::make_unique<StorageJob>(name, cluster_, dataset, feed->config,
                                               feed->dlq.get());
  if (feed->config.ha_failover) {
    // Durable-frame hook: a frame's WAL group-commit retires it against its
    // intake lease. Installed before Start so no drain loop ever races the
    // assignment. The intake job outlives the storage job (member order), so
    // the raw capture is safe.
    IntakeJob* intake_raw = feed->intake.get();
    feed->storage->set_frame_ack([intake_raw](size_t partition, uint64_t lease) {
      intake_raw->AckFrame(partition, lease);
    });
  }
  IDEA_RETURN_NOT_OK(feed->storage->Start(placement));
  IDEA_RETURN_NOT_OK(feed->intake->Start(args.adapter_factory, args.config,
                                         placement.size(), feed->dlq.get()));
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
  // idea.feed.<name>.* alongside the per-stage idea.{intake,compute,storage}
  // series the jobs record themselves.
  obs::Scope scope(&obs::MetricsRegistry::Default(), "idea.feed." + feed->config.name);
  obs::Counter* records_metric = scope.Counter("records_ingested");
  obs::Counter* jobs_metric = scope.Counter("computing_jobs");
  obs::Gauge* inflight = scope.Gauge("inflight_invocations");

  // Invocations run one after another, so each sees the UDF state refreshed
  // after the previous batch was enriched.
  const bool ha = feed->config.ha_failover;
  while (true) {
    if (ha) {
      // Advance the health plane one heartbeat interval per invocation:
      // beats from every live node (the cluster.heartbeat fault site drops
      // some), then the monitor's virtual clock. Nodes newly declared dead
      // fail over eagerly, before their partitions' next pull wedges.
      std::vector<size_t> newly_dead =
          cluster_->PumpHealth(cluster_->health().options().heartbeat_interval_us);
      if (!newly_dead.empty()) {
        Status recovered = RecoverFeed(feed);
        if (!recovered.ok()) {
          if (feed->final_status.Set(recovered)) feed->intake->StopAdapters();
          break;
        }
      }
    }
    // Routes change only in RecoverFeed, which runs on this loop between
    // invocations, so the invocation reads them in place.
    inflight->Add(1);
    auto inv = feed->computing->RunOnce(feed->routes, feed->dlq.get());
    inflight->Add(-1);
    if (!inv.ok()) {
      Status st = inv.status();
      if (ha && st.code() == StatusCode::kUnavailable) {
        // A hosting node died mid-invocation: re-plan, redeliver, resume.
        Status recovered = RecoverFeed(feed);
        if (recovered.ok()) continue;
        st = recovered;
      }
      // First failure stops the adapters; the backlog is drained below so
      // the intake job can reach EOF.
      if (feed->final_status.Set(st)) feed->intake->StopAdapters();
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (feed->recovering_since_us != 0) {
        feed->stats.recovery_to_resume_us =
            obs::NowMicros() - feed->recovering_since_us;
        feed->recovering_since_us = 0;
      }
      feed->stats.records_ingested += inv->records_out;
      feed->stats.parse_errors += inv->parse_errors;
      feed->stats.validation_errors += inv->validation_errors;
      feed->stats.records_skipped += inv->records_skipped;
      feed->stats.dead_letters += inv->dead_letters;
      feed->stats.retries += inv->retries;
      if (inv->records_in > 0 || !inv->intake_exhausted) {
        ++feed->stats.computing_jobs;
        feed->stats.compute_micros_total += inv->wall_micros;
      }
    }
    if (inv->records_in > 0 || !inv->intake_exhausted) {
      records_metric->Add(inv->records_out);
      jobs_metric->Increment();
    }
    if (inv->intake_exhausted) break;
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
    // Storage-side policy outcomes are visible only to the storage job; fold
    // them into the feed summary with the computing-side counters. Records
    // the storage job rejected were counted ingested when the computing job
    // shipped them — take them back out so records_ingested means "stored".
    const uint64_t storage_rejects =
        feed->storage->records_skipped() + feed->storage->dead_letters();
    std::lock_guard<std::mutex> lock(mu_);
    feed->stats.records_skipped += feed->storage->records_skipped();
    feed->stats.dead_letters += feed->storage->dead_letters();
    feed->stats.retries += feed->storage->retries();
    feed->stats.records_ingested -=
        std::min(feed->stats.records_ingested, storage_rejects);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    feed->stats.wall_micros_total = lifetime.ElapsedMicros();
  }
  const Status outcome = feed->final_status.Get();
  if (outcome.ok()) {
    obs::FlightRecorder::Default().Record(
        obs::FlightEventKind::kFeedStop, feed->config.name,
        "records_ingested=" + std::to_string(feed->stats.records_ingested));
  } else {
    obs::FlightRecorder::Default().Record(obs::FlightEventKind::kFeedAbort,
                                          feed->config.name, outcome.ToString());
    if (!feed->config.post_mortem_dir.empty()) WritePostMortem(*feed, outcome);
  }
}

Status ActiveFeedManager::RecoverFeed(ActiveFeed* feed) {
  WallTimer timer;
  timer.Start();
  cluster::MembershipTable& membership = cluster_->membership();
  std::vector<ComputingJob::Route>& routes = feed->routes;
  // Partitions stranded on dead nodes under the current plan.
  std::vector<size_t> victims;
  for (size_t p = 0; p < routes.size(); ++p) {
    if (membership.IsDead(routes[p].node)) victims.push_back(p);
  }
  if (victims.empty()) return Status::OK();
  if (feed->failovers_done >= feed->config.max_failovers) {
    return Status::Unavailable("feed '" + feed->config.name + "' exhausted its " +
                               std::to_string(feed->config.max_failovers) +
                               "-failover budget");
  }
  ++feed->failovers_done;
  // Candidate targets: routable nodes, else merely alive ones. Every node
  // holds a compiled artifact of this feed's computing job.
  std::vector<size_t> targets = membership.RoutableNodes();
  if (targets.empty()) targets = membership.AliveNodes();
  if (targets.empty()) {
    return Status::Unavailable("feed '" + feed->config.name +
                               "': no live node left to fail over to");
  }
  // Least-loaded placement: spread the victims over the targets hosting the
  // fewest partitions (ties broken by lowest index, so the plan is
  // deterministic for a given roster).
  std::vector<size_t> load(cluster_->node_count(), 0);
  for (const ComputingJob::Route& route : routes) {
    if (!membership.IsDead(route.node)) load[route.node]++;
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

Result<FeedRuntimeStats> ActiveFeedManager::WaitForFeedStats(
    const std::string& feed_name) {
  std::unique_ptr<ActiveFeed> feed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = feeds_.find(feed_name);
    if (it == feeds_.end()) {
      return Status::NotFound("feed '" + feed_name + "' is not active");
    }
    feed = std::move(it->second);
    feeds_.erase(it);
  }
  (void)feed->driver.Wait();
  IDEA_RETURN_NOT_OK(feed->final_status.Get());
  return feed->stats;
}

Result<FeedRuntimeStats> ActiveFeedManager::GetStats(const std::string& feed_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = feeds_.find(feed_name);
  if (it == feeds_.end()) {
    return Status::NotFound("feed '" + feed_name + "' is not active");
  }
  return it->second->stats;
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

