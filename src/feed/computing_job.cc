#include "feed/computing_job.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/fault_injection.h"
#include "common/virtual_clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "runtime/frame.h"

namespace idea::feed {

namespace {

/// Retryable = worth another attempt with the same inputs. Aborts mean the
/// pipeline itself is going down; validation-class codes are deterministic
/// for a given record and will not change on retry.
bool IsRetryable(const Status& st) {
  switch (st.code()) {
    case StatusCode::kAborted:
    case StatusCode::kTypeMismatch:
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    // Unavailable = the hosting node died; retrying on the same node cannot
    // succeed. It must surface to the Active Feed Manager, which re-plans
    // the partition map and resumes (feed failover).
    case StatusCode::kUnavailable:
      return false;
    default:
      return true;
  }
}

/// Validation rejects (datatype checks, coercions) vs everything else, for
/// the parse_errors / validation_errors metric split.
bool IsValidationReject(const Status& st) {
  return st.code() == StatusCode::kTypeMismatch ||
         st.code() == StatusCode::kInvalidArgument;
}

}  // namespace

Status ComputingJob::Deploy(const std::string& feed_name, const FeedConfig& config,
                            const std::string& udf, cluster::Cluster* cluster,
                            storage::Catalog* catalog, const UdfRegistry* udfs) {
  const adm::Datatype* datatype = nullptr;
  if (!config.type_name.empty()) {
    datatype = catalog->FindDatatype(config.type_name);
    if (datatype == nullptr) {
      return Status::NotFound("unknown datatype '" + config.type_name + "' for feed '" +
                              feed_name + "'");
    }
  }
  // Resolve the UDF once; per-node artifacts fork from it.
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
  return cluster->predeployed().Deploy(
      JobId(feed_name), cluster->node_count(),
      [&](size_t node) -> Result<std::unique_ptr<runtime::JobArtifact>> {
        auto artifact = std::make_unique<ComputingArtifact>();
        artifact->memgov = &cluster->node(node).memgov();
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
          artifact->native_name = udf;
        }
        return std::unique_ptr<runtime::JobArtifact>(std::move(artifact));
      });
}

Status ComputingJob::Undeploy(const std::string& feed_name, cluster::Cluster* cluster) {
  return cluster->predeployed().Undeploy(JobId(feed_name));
}

Result<ComputingInvocation> ComputingJob::RunOnce(const std::string& feed_name,
                                                  const FeedConfig& config,
                                                  cluster::Cluster* cluster,
                                                  FeedPipelineSequencer* sequencer,
                                                  uint64_t ticket,
                                                  DeadLetterQueue* dlq,
                                                  const std::vector<size_t>* pmap) {
  const size_t nodes = cluster->node_count();
  // Partition layout: p lives on node pmap[p] (identity when null, the
  // pre-HA fixed binding). The batch quota is split across partitions; the
  // remainder's extra records rotate over the partitions with the ticket, so
  // an invocation pulls exactly batch_size records whenever batch_size >=
  // partitions (below that, one record per partition).
  const size_t partitions = pmap != nullptr ? pmap->size() : nodes;
  auto quota = [&](size_t p) -> size_t {
    if (config.batch_size < partitions) return 1;
    return config.batch_size / partitions +
           ((p + ticket) % partitions < config.batch_size % partitions ? 1 : 0);
  };
  cluster->predeployed().RecordInvocation(JobId(feed_name));

  obs::Scope scope(&obs::MetricsRegistry::Default(), "idea.compute." + feed_name);
  obs::Histogram* invocation_us = scope.Histogram("invocation_us");
  obs::Histogram* init_us = scope.Histogram("init_us");
  obs::Histogram* run_us = scope.Histogram("run_us");
  obs::Counter* invocations = scope.Counter("invocations");
  obs::Counter* records_in_metric = scope.Counter("records_in");
  obs::Counter* records_out_metric = scope.Counter("records_out");
  obs::Counter* parse_errors_metric = scope.Counter("parse_errors");
  obs::Counter* validation_errors_metric = scope.Counter("validation_errors");
  obs::Counter* skipped_metric = scope.Counter("records_skipped");
  obs::Counter* retries_metric = scope.Counter("retries");
  // Thread CPU per partition task and stage, the input of the figure benches'
  // cost model (cluster/cost_model.h).
  obs::Histogram* parse_cpu_us = scope.Histogram("parse_cpu_us");
  obs::Histogram* init_cpu_us = scope.Histogram("init_cpu_us");
  obs::Histogram* enrich_cpu_us = scope.Histogram("enrich_cpu_us");
  obs::Histogram* ship_cpu_us = scope.Histogram("ship_cpu_us");
  obs::Histogram* critical_cpu_us = scope.Histogram("critical_cpu_us");
  obs::Counter* ship_bytes_metric = scope.Counter("ship_bytes");

  obs::Tracer& tracer = obs::Tracer::Default();
  const uint64_t trace_id = tracer.StartTrace(feed_name);

  WallTimer timer;
  timer.Start();
  std::atomic<uint64_t> records_in{0}, records_out{0}, parse_errors{0},
      validation_errors{0}, records_skipped{0}, dead_letters{0}, retries{0};
  std::atomic<size_t> exhausted_nodes{0};
  std::atomic<uint64_t> ship_bytes{0};
  std::vector<std::vector<obs::Span>> node_spans(partitions);
  struct TaskCpu {
    double parse = 0, init = 0, enrich = 0, ship = 0;
  };
  std::vector<TaskCpu> task_cpu(partitions);
  runtime::TaskGroup group;

  for (size_t p = 0; p < partitions; ++p) {
    const size_t node = pmap != nullptr ? (*pmap)[p] : p;
    Status launched = group.Launch(&cluster->node(node).scheduler(),
                                   [&, p, node]() -> Status {
      // Turn order in the feed's pipeline: the pull turn is released right
      // after the batch is collected (the next invocation may then pull),
      // the ship turn right after frames reach the storage holder. The RAII
      // destructors advance both lines on *every* exit path — an error or an
      // exhausted intake must never wedge later tickets.
      runtime::TurnstileTurn pull_turn(
          sequencer != nullptr ? &sequencer->pull_lines[p] : nullptr, ticket);
      runtime::TurnstileTurn ship_turn(
          sequencer != nullptr ? &sequencer->ship_lines[p] : nullptr, ticket);
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
        auto* artifact = dynamic_cast<ComputingArtifact*>(
            cluster->predeployed().Get(JobId(feed_name), node));
        if (artifact == nullptr) {
          return Status::Internal("computing job for feed '" + feed_name +
                                  "' is not predeployed on node " + std::to_string(node));
        }
        auto intake = cluster->node(node).holders().FindIntake(
            runtime::PartitionHolderId{feed_name, "intake", p});
        auto storage_holder = cluster->node(node).holders().FindStorage(
            runtime::PartitionHolderId{feed_name, "storage", p});
        if (intake == nullptr || storage_holder == nullptr) {
          if (config.ha_failover) {
            // Our pmap snapshot raced a relocation: the holders moved. The
            // AFM refreshes the map and re-invokes.
            return Status::Unavailable("partition " + std::to_string(p) +
                                       " of feed '" + feed_name +
                                       "' relocated off node " + std::to_string(node));
          }
          return Status::Internal("partition holders for feed '" + feed_name +
                                  "' missing on node " + std::to_string(node));
        }
        // Collector: pull this partition's share of the batch, in ticket
        // order. HA feeds pull under a lease so the records can be redelivered
        // if this invocation (or the storage path) dies before the frames are
        // durable.
        pull_turn.Acquire();
        std::vector<std::string> raw;
        uint64_t lease = 0;
        double t0 = obs::NowMicros();
        if (!intake->PullBatch(quota(p), &raw, config.ha_failover ? &lease : nullptr)) {
          // A poisoned (relocated) holder reports kUnavailable — that is a
          // failover signal, not exhaustion.
          Status herr = intake->first_error();
          if (herr.code() == StatusCode::kUnavailable) return herr;
          exhausted_nodes.fetch_add(1);
          return Status::OK();
        }
        pull_turn.Release();
        span("intake.pull", t0);
        records_in.fetch_add(raw.size(), std::memory_order_relaxed);
        // Parser. Malformed records are record-level failures: they are
        // counted (split lexer rejects vs datatype validation rejects) and
        // never kill the feed; the dead-letter policy additionally parks
        // them. The injected parse fault is keyed by record content so the
        // poisoned set is a pure function of the seed and the data,
        // independent of how records interleave across node threads.
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
          if (config.on_error == OnError::kDeadLetter && dlq != nullptr) {
            dlq->Add(DeadLetter{r, "parse", reject, 0});
            dead_letters.fetch_add(1, std::memory_order_relaxed);
          } else if (config.on_error == OnError::kSkip) {
            records_skipped.fetch_add(1, std::memory_order_relaxed);
          }
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
        // Failure handling: the whole refresh+enrich is retried up to
        // config.max_retries with deterministic exponential backoff; if the
        // batch still fails under a skip/dead-letter policy, a per-record
        // salvage pass (with its own per-record retries) separates records
        // that fail persistently from casualties of a transient fault.
        const uint64_t salt = common::StableHash64(feed_name) ^
                              (ticket * 0x9e3779b97f4a7c15ull) ^ p;
        auto backoff = [&](uint32_t attempt) {
          retries.fetch_add(1, std::memory_order_relaxed);
          obs::FlightRecorder::Default().Record(
              obs::FlightEventKind::kRetry, feed_name, "compute",
              static_cast<int>(p), attempt + 1);
          uint64_t us =
              common::RetryBackoffMicros(config.retry_backoff_us, attempt, salt);
          if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
        };
        auto refresh = [&]() -> Status {
          double init_start = obs::NowMicros();
          ThreadCpuTimer init_timer;
          init_timer.Start();
          IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("compute.init"));
          if (artifact->plan != nullptr) {
            artifact->accessor->BeginEpoch();
            IDEA_RETURN_NOT_OK(artifact->plan->Initialize());
            // Track the refreshed hash-build footprint against the node
            // budget. The hold is resized, not re-acquired: steady state is a
            // no-op, reference-data churn adjusts by the delta. A spill
            // verdict caps the hold at what fit; the plan still runs (the
            // governor's job is admission accounting, not allocation).
            std::lock_guard<std::mutex> hold_lock(artifact->memgov_mu);
            (void)artifact->memgov->UpdateHold(&artifact->memgov_hold,
                                               artifact->plan->stats().hash_build_bytes);
          } else {
            IDEA_RETURN_NOT_OK(artifact->native->Initialize(cluster->node(node).id()));
          }
          span("compute.init", init_start);
          init_us->Record(obs::NowMicros() - init_start);
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
          auto enrich_batch = [&](std::vector<adm::Value>* out) -> Status {
            IDEA_RETURN_NOT_OK(refresh());
            double e0 = obs::NowMicros();
            ThreadCpuTimer enrich_timer;
            enrich_timer.Start();
            out->reserve(parsed.size());
            for (const auto& rec : parsed) {
              IDEA_ASSIGN_OR_RETURN(adm::Value v, enrich_one(rec));
              out->push_back(std::move(v));
            }
            cpu.enrich += enrich_timer.ElapsedMicros();
            span("compute.enrich", e0);
            run_us->Record(obs::NowMicros() - e0);
            return Status::OK();
          };
          Status enrich_status;
          for (uint32_t attempt = 0;; ++attempt) {
            enriched.clear();
            enrich_status = enrich_batch(&enriched);
            if (enrich_status.ok()) break;
            if (IsRetryable(enrich_status) && attempt < config.max_retries) {
              backoff(attempt);
              continue;
            }
            break;
          }
          if (!enrich_status.ok()) {
            if (config.on_error == OnError::kAbort ||
                enrich_status.code() == StatusCode::kAborted) {
              return enrich_status;
            }
            // Salvage pass: the batch keeps failing as a whole; evaluate
            // record by record so only the records that actually fail pay
            // the policy. The refresh gets its own retries — without state
            // nothing can be salvaged and the invocation fails.
            enriched.clear();
            Status refreshed;
            for (uint32_t attempt = 0;; ++attempt) {
              refreshed = refresh();
              if (refreshed.ok()) break;
              if (IsRetryable(refreshed) && attempt < config.max_retries) {
                backoff(attempt);
                continue;
              }
              return refreshed;
            }
            enriched.reserve(parsed.size());
            ThreadCpuTimer salvage_timer;
            salvage_timer.Start();
            for (size_t k = 0; k < parsed.size(); ++k) {
              Status rec_status;
              uint32_t attempt = 0;
              for (;; ++attempt) {
                auto one = enrich_one(parsed[k]);
                if (one.ok()) {
                  enriched.push_back(std::move(one).value());
                  rec_status = Status::OK();
                  break;
                }
                rec_status = one.status();
                if (rec_status.code() == StatusCode::kAborted) return rec_status;
                if (IsRetryable(rec_status) && attempt < config.max_retries) {
                  backoff(attempt);
                  continue;
                }
                break;
              }
              if (!rec_status.ok()) {
                if (config.on_error == OnError::kDeadLetter && dlq != nullptr) {
                  dlq->Add(DeadLetter{raw[origin[k]], "udf", rec_status, attempt + 1});
                  dead_letters.fetch_add(1, std::memory_order_relaxed);
                } else {
                  records_skipped.fetch_add(1, std::memory_order_relaxed);
                }
              }
            }
            cpu.enrich += salvage_timer.ElapsedMicros();
          }
        }
        records_out.fetch_add(enriched.size(), std::memory_order_relaxed);
        // Feed pipeline sink: ship frames to the storage job, in ticket
        // order so concurrent invocations upsert in sequential order. Frames
        // are stamped with the pull lease; the lease closes with the shipped
        // count so the ledger knows when every frame has been acked durable.
        // If the node dies mid-ship the lease stays open and the whole batch
        // redelivers (duplicates are PK-idempotent at the LSM).
        ship_turn.Acquire();
        IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("compute.ship"));
        IDEA_RETURN_NOT_OK(cluster->CheckAlive(node));
        t0 = obs::NowMicros();
        cpu_timer.Start();
        size_t frames_shipped = 0;
        for (auto& frame : runtime::FrameRecords(enriched, config.frame_bytes)) {
          frame.set_trace_id(trace_id);
          frame.set_lease_id(lease);
          frame.set_origin_partition(p);
          ship_bytes.fetch_add(frame.byte_size(), std::memory_order_relaxed);
          IDEA_RETURN_NOT_OK(storage_holder->Push(std::move(frame)));
          ++frames_shipped;
        }
        if (lease != 0) intake->CloseLease(lease, frames_shipped);
        cpu.ship = cpu_timer.ElapsedMicros();
        span("compute.ship", t0);
        return Status::OK();
      };
      return run();
    });
    if (!launched.ok()) {
      (void)group.Wait();
      if (sequencer != nullptr) {
        // Never-launched nodes must still take their turns or later tickets
        // would wedge; the temporaries wait for and advance each line.
        for (size_t q = p; q < partitions; ++q) {
          runtime::TurnstileTurn(&sequencer->pull_lines[q], ticket);
          runtime::TurnstileTurn(&sequencer->ship_lines[q], ticket);
        }
      }
      return launched;
    }
  }
  IDEA_RETURN_NOT_OK(group.Wait());

  ComputingInvocation out;
  out.records_in = records_in.load();
  out.records_out = records_out.load();
  out.parse_errors = parse_errors.load();
  out.validation_errors = validation_errors.load();
  out.records_skipped = records_skipped.load();
  out.dead_letters = dead_letters.load();
  out.retries = retries.load();
  out.intake_exhausted = exhausted_nodes.load() == partitions;
  out.wall_micros = timer.ElapsedMicros();
  out.trace_id = trace_id;

  if (out.records_in == 0 && out.intake_exhausted) {
    // Empty EOF pull: nothing flowed, keep the ring for real batches.
    tracer.Drop(trace_id);
  } else {
    for (auto& spans : node_spans) {
      for (auto& s : spans) tracer.AddSpan(trace_id, std::move(s));
    }
    double critical = 0;
    for (const TaskCpu& cpu : task_cpu) {
      parse_cpu_us->Record(cpu.parse);
      init_cpu_us->Record(cpu.init);
      enrich_cpu_us->Record(cpu.enrich);
      ship_cpu_us->Record(cpu.ship);
      critical = std::max(critical, cpu.parse + cpu.init + cpu.enrich + cpu.ship);
    }
    critical_cpu_us->Record(critical);
    ship_bytes_metric->Add(ship_bytes.load());
    invocations->Increment();
    invocation_us->Record(out.wall_micros);
    records_in_metric->Add(out.records_in);
    records_out_metric->Add(out.records_out);
    parse_errors_metric->Add(out.parse_errors);
    validation_errors_metric->Add(out.validation_errors);
    skipped_metric->Add(out.records_skipped);
    retries_metric->Add(out.retries);
  }
  return out;
}

}  // namespace idea::feed
