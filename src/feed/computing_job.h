// Computing job: the short-lived, repeatedly invoked middle layer of the new
// ingestion framework (Figure 23, middle). Each invocation pulls one batch
// from the intake partition holders, parses it, (re)initializes the attached
// UDF's intermediate state, enriches the records, and pushes the results to
// the storage partition holders. Because the state is rebuilt per
// invocation, reference-data changes are picked up batch by batch (Model 2,
// paper §4.3.3).
//
// The per-node compiled artifact (parser + forked enrichment plan or native
// UDF instance) is distributed through the cluster's PredeployedJobManager —
// the parameterized predeployed job of §5.1. Per-node work runs as tasks on
// each node's persistent scheduler, so repeated invocations recycle threads
// the way predeployed jobs recycle compiled plans.
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
#include "runtime/predeployed.h"
#include "runtime/task_scheduler.h"
#include "sqlpp/enrichment_plan.h"
#include "storage/catalog.h"

namespace idea::feed {

/// Node-resident compiled computing-job artifact.
struct ComputingArtifact : public runtime::JobArtifact {
  std::unique_ptr<RecordParser> parser;
  /// Snapshot accessor scoped to this node's plan (epoch per invocation).
  std::unique_ptr<storage::CatalogAccessor> accessor;
  std::unique_ptr<sqlpp::EnrichmentPlan> plan;  // SQL++ UDF (may be null)
  std::unique_ptr<NativeUdf> native;            // native UDF (may be null)
  std::string native_name;

  /// Memory-governor reservation tracking the plan's hash-build bytes on
  /// this node; resized after every state refresh, returned on teardown.
  runtime::MemoryGovernor* memgov = nullptr;
  std::mutex memgov_mu;  // overlapping invocations resize the same hold
  uint64_t memgov_hold = 0;

  ~ComputingArtifact() override {
    if (memgov != nullptr) memgov->Release(memgov_hold);
  }
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

/// Orders the side effects of overlapping invocations (pipeline_depth > 1).
/// Per node there is a *pull line* (intake batches are pulled in ticket
/// order, so batch boundaries match sequential execution) and a *ship line*
/// (enriched frames reach the storage holder in ticket order, so
/// last-writer-wins upserts resolve exactly as at depth 1). Only the compute
/// between the two hand-offs overlaps. One sequencer per feed.
struct FeedPipelineSequencer {
  explicit FeedPipelineSequencer(size_t nodes)
      : pull_lines(nodes), ship_lines(nodes) {}
  std::vector<runtime::Turnstile> pull_lines;
  std::vector<runtime::Turnstile> ship_lines;
};

class ComputingJob {
 public:
  /// Compiles and predeploys the computing job for `feed` on every node.
  /// `udf` is a SQL++ function name, a native qualified name, or empty.
  static Status Deploy(const std::string& feed_name, const FeedConfig& config,
                       const std::string& udf, cluster::Cluster* cluster,
                       storage::Catalog* catalog, const UdfRegistry* udfs);

  /// Removes the predeployed artifacts.
  static Status Undeploy(const std::string& feed_name, cluster::Cluster* cluster);

  /// Runs one invocation: per-partition tasks on the hosting nodes' schedulers
  /// (partition p on node pmap[p]; null = identity over the node count), each
  /// pulling its share of batch_size records (see FeedConfig::batch_size).
  /// Each task's thread CPU per stage goes to the idea.compute.<feed>.*_cpu_us
  /// histograms. With a sequencer,
  /// `ticket` is this invocation's position in the feed's pipeline; concurrent
  /// RunOnce calls may then overlap while pulls and ships stay ticket-ordered.
  /// Failure handling follows config.on_error / config.max_retries; under the
  /// dead-letter policy rejected records are parked in `dlq` when provided.
  /// A kUnavailable result means a hosting node died mid-invocation — the
  /// Active Feed Manager re-plans the pmap and resumes (not a feed failure).
  static Result<ComputingInvocation> RunOnce(const std::string& feed_name,
                                             const FeedConfig& config,
                                             cluster::Cluster* cluster,
                                             FeedPipelineSequencer* sequencer = nullptr,
                                             uint64_t ticket = 0,
                                             DeadLetterQueue* dlq = nullptr,
                                             const std::vector<size_t>* pmap = nullptr);

  static std::string JobId(const std::string& feed_name) {
    return "computing-job:" + feed_name;
  }
};

}  // namespace idea::feed
