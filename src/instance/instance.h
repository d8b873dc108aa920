// idea::Instance — the embedded entry point, playing the role AsterixDB's
// Cluster Controller plays for users: it accepts SQL++ statements (DDL, DML,
// queries, feed control) and manages the catalog, UDF registry, in-process
// cluster, and Active Feed Manager of one system instance.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include <vector>

#include "cluster/cluster_controller.h"
#include "common/status.h"
#include "feed/active_feed_manager.h"
#include "feed/failure_policy.h"
#include "feed/feed.h"
#include "feed/udf.h"
#include "obs/admin_server.h"
#include "sqlpp/ast.h"
#include "storage/catalog.h"

namespace idea {

struct InstanceOptions {
  cluster::ClusterConfig cluster;
  /// Embedded HTTP admin endpoint (GET /healthz, /metrics, /metrics.prom,
  /// /traces, /feeds, /flightrecorder). Off by default; bind address/port
  /// come from `admin` (port 0 = ephemeral, read back via
  /// Instance::admin_port()).
  bool enable_admin_server = false;
  obs::AdminServerOptions admin;
};

class Instance {
 public:
  explicit Instance(InstanceOptions options = InstanceOptions());
  ~Instance();

  /// Executes one SQL++ statement. Queries return their rows; other
  /// statements return an empty array on success.
  Result<adm::Array> ExecuteSqlpp(const std::string& statement);

  /// Executes a ';'-separated script (stops at the first error).
  Status ExecuteScript(const std::string& script);

  /// Runs a parsed statement (used by tests exercising ASTs directly).
  Result<adm::Array> ExecuteStatement(sqlpp::Statement stmt);

  // --- feed control ---------------------------------------------------------

  /// Overrides the adapter used by START FEED for `feed` (e.g. to attach a
  /// workload generator instead of a socket).
  Status SetFeedAdapterFactory(const std::string& feed, feed::AdapterFactory factory);

  /// Blocks until the feed drains (finite adapters) and returns its stats.
  Result<feed::FeedRuntimeStats> WaitForFeed(const std::string& feed);

  Status StopFeed(const std::string& feed);

  /// Drains the feed's dead-letter queue (records parked by the
  /// `on-error: dead-letter` policy), oldest first. The queue outlives the
  /// feed run that filled it, so letters can be drained post-mortem. Fails
  /// with NotFound when the feed never ran under that policy.
  Result<std::vector<feed::DeadLetter>> DrainDeadLetters(const std::string& feed);

  /// Letters currently parked in the feed's dead-letter queue (0 when the
  /// feed has none or never ran under the dead-letter policy).
  size_t DeadLetterDepth(const std::string& feed) const;

  // --- programmatic access --------------------------------------------------

  storage::Catalog& catalog() { return catalog_; }
  feed::UdfRegistry& udfs() { return udfs_; }
  cluster::Cluster& cluster() { return *cluster_; }
  feed::ActiveFeedManager& feeds() { return *afm_; }

  Status RegisterNativeUdf(const std::string& qualified, feed::NativeUdfFactory factory,
                           bool stateful);

  /// JSON-lines snapshot of the process-wide metrics registry plus recent
  /// batch traces: one {"type":"metrics",...} line followed by one
  /// {"type":"trace",...} line per retained batch (see src/obs/snapshot.h).
  std::string DumpMetricsJson() const;

  // --- telemetry plane ------------------------------------------------------

  /// Port the admin server is listening on; 0 when disabled or failed to
  /// start (the failure is reported on stderr at construction).
  uint16_t admin_port() const {
    return admin_server_ == nullptr ? 0 : admin_server_->port();
  }
  obs::AdminServer* admin_server() { return admin_server_.get(); }

  /// One JSON object describing every declared feed: activity, runtime
  /// counters, inflight invocations, DLQ depth. Served at /feeds.
  std::string FeedsJson() const;

 private:
  Result<adm::Array> RunQuery(const sqlpp::SelectStatement& query);
  Status RunInsert(const sqlpp::InsertStatement& insert);
  Status StartFeedStatement(const std::string& feed_name);

  void StartTelemetryPlane();

  InstanceOptions options_;
  std::unique_ptr<cluster::Cluster> cluster_;
  storage::Catalog catalog_;
  feed::UdfRegistry udfs_;
  std::unique_ptr<feed::ActiveFeedManager> afm_;
  std::unique_ptr<obs::AdminServer> admin_server_;

  struct FeedDecl {
    feed::FeedConfig config;
    feed::FeedConnection connection;
    feed::AdapterFactory adapter_override;
  };
  /// Guards feed_decls_: the admin server's /feeds handler reads the
  /// declarations from its own thread.
  mutable std::mutex decls_mu_;
  std::map<std::string, FeedDecl> feed_decls_;
};

}  // namespace idea
