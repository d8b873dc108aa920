#include "feed/computing_job.h"

#include <algorithm>
#include <atomic>

#include "common/fault_injection.h"
#include "common/virtual_clock.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "runtime/frame.h"
#include "runtime/task_scheduler.h"

namespace idea::feed {

namespace {

/// Validation rejects (datatype checks, coercions) vs everything else, for
/// the parse_errors / validation_errors metric split.
bool IsValidationReject(const Status& st) {
  return st.code() == StatusCode::kTypeMismatch ||
         st.code() == StatusCode::kInvalidArgument;
}

}  // namespace

ComputingJob::ComputingJob(const FeedConfig& config, cluster::Cluster* cluster,
                           FailurePolicy* policy)
    : config_(config), cluster_(cluster), policy_(policy) {
  obs::Scope scope(&obs::MetricsRegistry::Default(), "idea.compute." + config.name);
  metrics_.invocation_us = scope.Histogram("invocation_us");
  metrics_.invocations = scope.Counter("invocations");
  metrics_.records_in = scope.Counter("records_in");
  metrics_.records_out = scope.Counter("records_out");
  metrics_.parse_errors = scope.Counter("parse_errors");
  metrics_.validation_errors = scope.Counter("validation_errors");
  metrics_.parse_cpu_us = scope.Histogram("parse_cpu_us");
  metrics_.init_cpu_us = scope.Histogram("init_cpu_us");
  metrics_.enrich_cpu_us = scope.Histogram("enrich_cpu_us");
  metrics_.ship_cpu_us = scope.Histogram("ship_cpu_us");
  metrics_.critical_cpu_us = scope.Histogram("critical_cpu_us");
  metrics_.ship_bytes = scope.Counter("ship_bytes");
}

Result<std::unique_ptr<ComputingJob>> ComputingJob::Deploy(const FeedConfig& config,
                                                          const std::string& udf,
                                                          cluster::Cluster* cluster,
                                                          storage::Catalog* catalog,
                                                          const UdfRegistry* udfs,
                                                          FailurePolicy* policy) {
  const std::string& feed_name = config.name;
  const adm::Datatype* datatype = nullptr;
  if (!config.type_name.empty()) {
    datatype = catalog->FindDatatype(config.type_name);
    if (datatype == nullptr) {
      return Status::NotFound("unknown datatype '" + config.type_name + "' for feed '" +
                              feed_name + "'");
    }
  }
  // Resolve the UDF once; each node's artifact compiles its own plan or
  // instance from it.
  std::shared_ptr<const sqlpp::SqlppFunctionDef> sqlpp_def;
  bool is_native = false;
  if (!udf.empty()) {
    sqlpp_def = udfs->FindSqlppShared(udf);
    if (sqlpp_def == nullptr) {
      if (!udfs->HasNative(udf)) {
        return Status::NotFound("unknown function '" + udf + "' attached to feed '" +
                                feed_name + "'");
      }
      is_native = true;
    }
  }
  std::unique_ptr<ComputingJob> job(new ComputingJob(config, cluster, policy));
  for (size_t node = 0; node < cluster->node_count(); ++node) {
    auto artifact = std::make_unique<ComputingArtifact>();
    IDEA_ASSIGN_OR_RETURN(artifact->parser, MakeParser(config.format, datatype));
    if (sqlpp_def != nullptr) {
      artifact->accessor =
          std::make_unique<storage::CatalogAccessor>(catalog, /*cache=*/true);
      IDEA_ASSIGN_OR_RETURN(
          artifact->plan,
          sqlpp::EnrichmentPlan::Compile(sqlpp_def, artifact->accessor.get(), udfs));
    } else if (is_native) {
      // Instantiated per node; (re)initialized per invocation so dynamic
      // enrichment sees resource updates.
      IDEA_ASSIGN_OR_RETURN(artifact->native,
                            udfs->CreateNativeInstance(udf, cluster->node(node).id()));
    }
    job->artifacts_.push_back(std::move(artifact));
  }
  return job;
}

Result<ComputingInvocation> ComputingJob::RunOnce(const std::vector<Route>& routes) {
  const std::string& feed_name = config_.name;
  const FeedConfig& config = config_;
  cluster::Cluster* cluster = cluster_;
  // The batch quota is split across partitions; the remainder's extra
  // records rotate over the partitions with the invocation count, so an
  // invocation pulls exactly batch_size records whenever batch_size >=
  // partitions (below that, one record per partition).
  const size_t partitions = routes.size();
  const uint64_t invocation = invocations_++;
  auto quota = [&](size_t p) -> size_t {
    if (config.batch_size < partitions) return 1;
    return config.batch_size / partitions +
           ((p + invocation) % partitions < config.batch_size % partitions ? 1 : 0);
  };

  obs::Tracer& tracer = obs::Tracer::Default();
  const uint64_t trace_id = tracer.StartTrace(feed_name);

  WallTimer timer;
  timer.Start();
  std::atomic<uint64_t> records_in{0}, records_out{0}, parse_errors{0},
      validation_errors{0};
  std::atomic<size_t> exhausted_nodes{0};
  std::atomic<uint64_t> ship_bytes{0};
  std::vector<std::vector<obs::Span>> node_spans(partitions);
  struct TaskCpu {
    double parse = 0, init = 0, enrich = 0, ship = 0;
  };
  std::vector<TaskCpu> task_cpu(partitions);
  runtime::TaskGroup group;

  for (size_t p = 0; p < partitions; ++p) {
    const size_t node = routes[p].node;
    Status launched = group.Launch(&cluster->node(node).scheduler(),
                                   [&, p, node]() -> Status {
      // Spans are buffered per node and flushed to the tracer after the
      // barrier, keeping the tracer's lock off the hot path.
      std::vector<obs::Span>& spans = node_spans[p];
      auto span = [&](const char* name, double start_us) {
        spans.push_back(obs::Span{name, static_cast<int>(p), start_us,
                                  obs::NowMicros() - start_us});
      };
      TaskCpu& cpu = task_cpu[p];
      ThreadCpuTimer cpu_timer;
      auto run = [&]() -> Status {
        // Liveness probe: the node.kill fault site fires here, modeling this
        // partition's node dying before its task does any work.
        IDEA_RETURN_NOT_OK(cluster->CheckAlive(node));
        ComputingArtifact* artifact = artifacts_[node].get();
        runtime::IntakePartitionHolder* intake = routes[p].intake.get();
        runtime::StoragePartitionHolder* storage_holder = routes[p].storage.get();
        // Collector: pull this partition's share of the batch. HA feeds pull
        // under a lease so the records can be redelivered if this invocation
        // (or the storage path) dies before the frames are durable.
        std::vector<std::string> raw;
        uint64_t lease = 0;
        double t0 = obs::NowMicros();
        if (!intake->PullBatch(quota(p), &raw, config.ha_failover ? &lease : nullptr)) {
          exhausted_nodes.fetch_add(1);
          return Status::OK();
        }
        span("intake.pull", t0);
        records_in.fetch_add(raw.size(), std::memory_order_relaxed);
        // Parser. Malformed records are record-level failures: they are
        // counted (split lexer rejects vs datatype validation rejects) and
        // go to the policy, but never kill the feed: the cause the abort
        // policy returns is ignored. The injected parse fault is keyed by
        // record content so the poisoned set is a pure function of the seed
        // and the data, independent of how records interleave across node
        // threads.
        std::vector<adm::Value> parsed;
        std::vector<size_t> origin;  // parsed[i] came from raw[origin[i]]
        parsed.reserve(raw.size());
        origin.reserve(raw.size());
        t0 = obs::NowMicros();
        cpu_timer.Start();
        for (size_t i = 0; i < raw.size(); ++i) {
          const std::string& r = raw[i];
          Status reject = IDEA_FAULT_HIT_KEYED("compute.parse", r);
          if (reject.ok()) {
            auto rec = artifact->parser->Parse(r);
            if (rec.ok()) {
              parsed.push_back(std::move(rec).value());
              origin.push_back(i);
              continue;
            }
            reject = rec.status();
          }
          if (IsValidationReject(reject)) {
            validation_errors.fetch_add(1, std::memory_order_relaxed);
          } else {
            parse_errors.fetch_add(1, std::memory_order_relaxed);
          }
          (void)policy_->Reject("parse", std::move(reject), 0, [&] { return r; });
        }
        cpu.parse = cpu_timer.ElapsedMicros();
        span("compute.parse", t0);
        // UDF evaluator: refresh intermediate state, then enrich. This is
        // the Model-2 refresh point — updates committed before this line are
        // visible to this invocation. The predeployed artifact keeps the plan
        // (and its cached hash builds) alive across invocations, so this
        // Initialize() is a no-op / delta apply in the steady state and only
        // pays a full rebuild on the first batch or after heavy churn.
        //
        // Failure handling: the whole refresh+enrich is retried as the policy
        // allows; if the batch still fails under skip or dead-letter, a
        // per-record salvage pass (with its own per-record retries)
        // separates records that fail persistently from casualties of a
        // transient fault.
        const FailurePolicy::RetrySite site{
            "compute", static_cast<int>(p),
            common::StableHash64(feed_name) ^ (invocation * 0x9e3779b97f4a7c15ull) ^ p};
        auto refresh = [&]() -> Status {
          double init_start = obs::NowMicros();
          ThreadCpuTimer init_timer;
          init_timer.Start();
          IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("compute.init"));
          if (artifact->plan != nullptr) {
            artifact->accessor->BeginEpoch();
            IDEA_RETURN_NOT_OK(artifact->plan->Initialize());
          } else {
            IDEA_RETURN_NOT_OK(artifact->native->Initialize(cluster->node(node).id()));
          }
          span("compute.init", init_start);
          cpu.init += init_timer.ElapsedMicros();
          return Status::OK();
        };
        auto enrich_one = [&](const adm::Value& rec) -> Result<adm::Value> {
          IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("compute.udf"));
          if (artifact->plan != nullptr) return artifact->plan->EnrichOne(rec);
          return artifact->native->Evaluate(sqlpp::ArgView(&rec, 1));
        };
        std::vector<adm::Value> enriched;
        if (artifact->plan == nullptr && artifact->native == nullptr) {
          enriched = std::move(parsed);
        } else {
          std::lock_guard<std::mutex> artifact_lock(artifact->mu);
          auto enrich_batch = [&]() -> Status {
            enriched.clear();
            IDEA_RETURN_NOT_OK(refresh());
            double e0 = obs::NowMicros();
            ThreadCpuTimer enrich_timer;
            enrich_timer.Start();
            enriched.reserve(parsed.size());
            for (const auto& rec : parsed) {
              IDEA_ASSIGN_OR_RETURN(adm::Value v, enrich_one(rec));
              enriched.push_back(std::move(v));
            }
            cpu.enrich += enrich_timer.ElapsedMicros();
            span("compute.enrich", e0);
            return Status::OK();
          };
          Status enrich_status = policy_->Retry(site, enrich_batch(), enrich_batch);
          if (!enrich_status.ok()) {
            if (policy_->aborts() || enrich_status.code() == StatusCode::kAborted) {
              return enrich_status;
            }
            // Salvage pass: the batch keeps failing as a whole; evaluate
            // record by record so only the records that actually fail pay
            // the policy. The refresh gets its own retries — without state
            // nothing can be salvaged and the invocation fails.
            enriched.clear();
            IDEA_RETURN_NOT_OK(policy_->Retry(site, refresh(), refresh));
            enriched.reserve(parsed.size());
            ThreadCpuTimer salvage_timer;
            salvage_timer.Start();
            for (size_t k = 0; k < parsed.size(); ++k) {
              auto salvage = [&]() -> Status {
                IDEA_ASSIGN_OR_RETURN(adm::Value v, enrich_one(parsed[k]));
                enriched.push_back(std::move(v));
                return Status::OK();
              };
              uint32_t attempts = 0;
              Status rec_status = policy_->Retry(site, salvage(), salvage, &attempts);
              if (rec_status.code() == StatusCode::kAborted) return rec_status;
              if (!rec_status.ok()) {
                IDEA_RETURN_NOT_OK(policy_->Reject("udf", std::move(rec_status), attempts,
                                                  [&] { return raw[origin[k]]; }));
              }
            }
            cpu.enrich += salvage_timer.ElapsedMicros();
          }
        }
        records_out.fetch_add(enriched.size(), std::memory_order_relaxed);
        // Feed pipeline sink: ship frames to the storage job. Frames are
        // stamped with the pull lease, which closes at the frame count
        // before the first frame ships, so the ledger knows when every frame
        // has been acked durable. If the node dies mid-ship the lease is
        // never fully acked and the whole batch redelivers (duplicates are
        // PK-idempotent at the LSM).
        IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("compute.ship"));
        IDEA_RETURN_NOT_OK(cluster->CheckAlive(node));
        t0 = obs::NowMicros();
        cpu_timer.Start();
        std::vector<runtime::Frame> frames =
            runtime::FrameRecords(enriched, config.frame_bytes);
        if (lease != 0) intake->CloseLease(lease, frames.size());
        for (auto& frame : frames) {
          frame.set_trace_id(trace_id);
          frame.set_lease_id(lease);
          frame.set_origin_partition(p);
          ship_bytes.fetch_add(frame.byte_size(), std::memory_order_relaxed);
          IDEA_RETURN_NOT_OK(storage_holder->Push(std::move(frame)));
        }
        cpu.ship = cpu_timer.ElapsedMicros();
        span("compute.ship", t0);
        return Status::OK();
      };
      return run();
    });
    if (!launched.ok()) {
      (void)group.Wait();
      return launched;
    }
  }
  IDEA_RETURN_NOT_OK(group.Wait());

  ComputingInvocation out;
  out.records_in = records_in.load();
  out.records_out = records_out.load();
  out.parse_errors = parse_errors.load();
  out.validation_errors = validation_errors.load();
  out.intake_exhausted = exhausted_nodes.load() == partitions;
  out.wall_micros = timer.ElapsedMicros();

  if (out.records_in == 0 && out.intake_exhausted) {
    // Empty EOF pull: nothing flowed, keep the ring for real batches.
    tracer.Drop(trace_id);
  } else {
    for (auto& spans : node_spans) {
      for (auto& s : spans) tracer.AddSpan(trace_id, std::move(s));
    }
    double critical = 0;
    for (const TaskCpu& cpu : task_cpu) {
      metrics_.parse_cpu_us->Record(cpu.parse);
      metrics_.init_cpu_us->Record(cpu.init);
      metrics_.enrich_cpu_us->Record(cpu.enrich);
      metrics_.ship_cpu_us->Record(cpu.ship);
      critical = std::max(critical, cpu.parse + cpu.init + cpu.enrich + cpu.ship);
    }
    metrics_.critical_cpu_us->Record(critical);
    metrics_.ship_bytes->Add(ship_bytes.load());
    metrics_.invocations->Increment();
    metrics_.invocation_us->Record(out.wall_micros);
    metrics_.records_in->Add(out.records_in);
    metrics_.records_out->Add(out.records_out);
    metrics_.parse_errors->Add(out.parse_errors);
    metrics_.validation_errors->Add(out.validation_errors);
  }
  return out;
}

}  // namespace idea::feed
