// Computing job: the short-lived, repeatedly invoked middle layer of the new
// ingestion framework (Figure 23, middle). Each invocation pulls one batch
// from the intake partition holders, parses it, (re)initializes the attached
// UDF's intermediate state, enriches the records, and pushes the results to
// the storage partition holders. Because the state is rebuilt per
// invocation, reference-data changes are picked up batch by batch (Model 2,
// paper §4.3.3).
//
// The Active Feed Manager owns one ComputingJob per running feed. Deploy
// compiles one artifact per node (parser + forked enrichment plan or native
// UDF instance) at START FEED: the parameterized predeployed job of §5.1.
// The cluster's roster is fixed, so every node a partition can be placed on
// or failed over to holds an artifact. Each invocation then only hands every
// partition its hosting node and its intake and storage holders (Route);
// per-node work runs as tasks on each node's persistent scheduler, so
// repeated invocations recycle threads the way the predeployed job recycles
// compiled plans. Invocations run one at a time, so every batch sees the
// state refreshed after the previous batch.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cluster_controller.h"
#include "common/status.h"
#include "feed/dead_letter.h"
#include "feed/feed.h"
#include "feed/record_parser.h"
#include "feed/udf.h"
#include "runtime/partition_holder.h"
#include "sqlpp/enrichment_plan.h"
#include "storage/catalog.h"

namespace idea::feed {

/// Node-resident compiled computing-job artifact.
struct ComputingArtifact {
  std::unique_ptr<RecordParser> parser;
  /// Snapshot accessor scoped to this node's plan (epoch per invocation).
  std::unique_ptr<storage::CatalogAccessor> accessor;
  std::unique_ptr<sqlpp::EnrichmentPlan> plan;  // SQL++ UDF (may be null)
  std::unique_ptr<NativeUdf> native;            // native UDF (may be null)
  /// Held across refresh + enrich. The plan and the native UDF are
  /// single-threaded, and after a failover one node can host several
  /// partitions of an invocation.
  std::mutex mu;
};

/// Outcome of one computing-job invocation.
struct ComputingInvocation {
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t parse_errors = 0;       // lexer/shape rejects
  uint64_t validation_errors = 0;  // datatype validation/coercion rejects
  uint64_t records_skipped = 0;    // dropped by the `skip` failure policy
  uint64_t dead_letters = 0;       // parked by the `dead-letter` policy
  uint64_t retries = 0;            // transient-failure retry attempts
  bool intake_exhausted = false;
  double wall_micros = 0;
  /// Pipeline-trace id of this batch (obs::Tracer); 0 when untraced.
  uint64_t trace_id = 0;
};

class ComputingJob {
 public:
  /// Where partition p of an invocation runs, and the holders it pulls from
  /// and ships to (the intake and storage jobs' holders for p).
  struct Route {
    size_t node = 0;
    std::shared_ptr<runtime::IntakePartitionHolder> intake;
    std::shared_ptr<runtime::StoragePartitionHolder> storage;
  };

  /// Compiles the computing job for `config.name` once per cluster node.
  /// `udf` is a SQL++ function name, a native qualified name, or empty.
  static Result<std::unique_ptr<ComputingJob>> Deploy(const FeedConfig& config,
                                                      const std::string& udf,
                                                      cluster::Cluster* cluster,
                                                      storage::Catalog* catalog,
                                                      const UdfRegistry* udfs);

  /// Runs one invocation: partition p runs as a task on routes[p].node's
  /// scheduler and pulls its share of batch_size records (see
  /// FeedConfig::batch_size) from routes[p].intake. Each task's thread CPU
  /// per stage goes to the idea.compute.<feed>.*_cpu_us histograms.
  /// Failure handling follows config.on_error / config.max_retries; under
  /// the dead-letter policy rejected records are parked in `dlq` when
  /// provided. A kUnavailable result means a hosting node died
  /// mid-invocation — the Active Feed Manager re-points the routes and
  /// resumes (not a feed failure). Not reentrant: one invocation at a time.
  Result<ComputingInvocation> RunOnce(const std::vector<Route>& routes,
                                      DeadLetterQueue* dlq = nullptr);

 private:
  ComputingJob(const FeedConfig& config, cluster::Cluster* cluster)
      : config_(config), cluster_(cluster) {}

  FeedConfig config_;
  cluster::Cluster* cluster_;
  std::vector<std::unique_ptr<ComputingArtifact>> artifacts_;  // by node
  /// Invocations run so far; rotates the batch quota's remainder.
  uint64_t invocations_ = 0;
};

}  // namespace idea::feed
