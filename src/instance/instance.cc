#include "instance/instance.h"

#include <charconv>
#include <cstdio>
#include <limits>

#include "adm/json.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"
#include "sqlpp/analyzer.h"
#include "sqlpp/evaluator.h"
#include "sqlpp/parser.h"

namespace idea {

using adm::Value;

namespace {

/// Reads CREATE FEED's WITH key `key` into `*out` when it is given (an empty
/// value counts as not given). The value must be decimal digits only, at
/// least `min` and representable in T.
template <typename T>
Status ReadFeedCount(const std::map<std::string, std::string>& with, const char* key,
                     T min, T* out) {
  auto it = with.find(key);
  if (it == with.end() || it->second.empty()) return Status::OK();
  const std::string& text = it->second;
  T value = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value < min) {
    return Status::InvalidArgument(
        "CREATE FEED: \"" + std::string(key) + "\" must be an integer from " +
        std::to_string(min) + " to " + std::to_string(std::numeric_limits<T>::max()) +
        ", got \"" + text + "\"");
  }
  *out = value;
  return Status::OK();
}

}  // namespace

Instance::Instance(InstanceOptions options) : options_(options) {
  cluster_ = std::make_unique<cluster::Cluster>(options_.cluster);
  afm_ = std::make_unique<feed::ActiveFeedManager>(cluster_.get(), &catalog_, &udfs_);
  StartTelemetryPlane();
}

Instance::~Instance() {
  // Admin handlers reach into the AFM; take the server down before the
  // pipeline it observes.
  if (admin_server_ != nullptr) admin_server_->Stop();
  // AFM teardown stops any feeds still running.
  afm_.reset();
}

void Instance::StartTelemetryPlane() {
  if (!options_.enable_admin_server) return;
  admin_server_ = std::make_unique<obs::AdminServer>(options_.admin);
  admin_server_->Handle("/healthz", [this](const obs::HttpRequest&) {
    obs::HttpResponse r;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"status\":\"ok\",\"ts_us\":%.3f,\"active_feeds\":%zu}",
                  obs::NowMicros(), afm_->ActiveFeeds().size());
    r.body = buf;
    return r;
  });
  admin_server_->Handle("/metrics", [](const obs::HttpRequest&) {
    obs::SnapshotExporter exporter(&obs::MetricsRegistry::Default(),
                                   &obs::Tracer::Default());
    obs::HttpResponse r;
    r.body = exporter.RegistryJson();
    return r;
  });
  admin_server_->Handle("/metrics.prom", [](const obs::HttpRequest&) {
    obs::SnapshotExporter exporter(&obs::MetricsRegistry::Default());
    obs::HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = exporter.PrometheusText();
    return r;
  });
  admin_server_->Handle("/traces", [](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.body = obs::SnapshotExporter::ChromeTraceJson(obs::Tracer::Default().Recent());
    return r;
  });
  admin_server_->Handle("/feeds", [this](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.body = FeedsJson();
    return r;
  });
  admin_server_->Handle("/flightrecorder", [](const obs::HttpRequest&) {
    obs::HttpResponse r;
    r.body = obs::FlightRecorder::Default().DumpJson();
    return r;
  });
  Status st = admin_server_->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "idea: admin server disabled: %s\n",
                 st.ToString().c_str());
    admin_server_.reset();
  }
}

std::string Instance::DumpMetricsJson() const {
  obs::SnapshotExporter exporter(&obs::MetricsRegistry::Default(),
                                 &obs::Tracer::Default());
  return exporter.SnapshotJsonLines();
}

std::string Instance::FeedsJson() const {
  struct DeclView {
    std::string name;
    std::string dataset;
  };
  std::vector<DeclView> decls;
  {
    std::lock_guard<std::mutex> decls_lock(decls_mu_);
    decls.reserve(feed_decls_.size());
    for (const auto& [name, decl] : feed_decls_) {
      decls.push_back({name, decl.connection.dataset});
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", obs::NowMicros());
  std::string out = "{\"type\":\"feeds\",\"ts_us\":";
  out += buf;
  out += ",\"feeds\":{";
  bool first = true;
  for (const DeclView& decl : decls) {
    if (!first) out += ',';
    first = false;
    const bool active = afm_->IsActive(decl.name);
    // A finished feed's row reads the final statistics WaitForFeed returned.
    feed::FeedRuntimeStats stats;
    Result<feed::FeedRuntimeStats> got = afm_->GetStats(decl.name);
    if (got.ok()) stats = *got;
    const int64_t inflight =
        obs::MetricsRegistry::Default()
            .GetGauge("idea.feed." + decl.name + ".inflight_invocations")
            ->value();
    out += adm::JsonQuote(decl.name);
    out += ":{\"dataset\":" + adm::JsonQuote(decl.dataset);
    out += std::string(",\"active\":") + (active ? "true" : "false");
    out += ",\"inflight_invocations\":" + std::to_string(inflight);
    out += ",\"dlq_depth\":" + std::to_string(DeadLetterDepth(decl.name));
    out += ",\"records_ingested\":" + std::to_string(stats.records_ingested);
    out += ",\"computing_jobs\":" + std::to_string(stats.computing_jobs);
    out += ",\"retries\":" + std::to_string(stats.retries);
    out += ",\"parse_errors\":" + std::to_string(stats.parse_errors);
    out += ",\"validation_errors\":" + std::to_string(stats.validation_errors);
    out += ",\"records_skipped\":" + std::to_string(stats.records_skipped);
    out += ",\"dead_letters\":" + std::to_string(stats.dead_letters);
    out += '}';
  }
  out += "}}";
  return out;
}

Result<adm::Array> Instance::ExecuteSqlpp(const std::string& statement) {
  IDEA_ASSIGN_OR_RETURN(sqlpp::Statement stmt, sqlpp::ParseStatement(statement));
  return ExecuteStatement(std::move(stmt));
}

Status Instance::ExecuteScript(const std::string& script) {
  IDEA_ASSIGN_OR_RETURN(std::vector<sqlpp::Statement> stmts, sqlpp::ParseScript(script));
  for (auto& stmt : stmts) {
    IDEA_ASSIGN_OR_RETURN(adm::Array rows, ExecuteStatement(std::move(stmt)));
    (void)rows;
  }
  return Status::OK();
}

Result<adm::Array> Instance::ExecuteStatement(sqlpp::Statement stmt) {
  using sqlpp::StatementKind;
  switch (stmt.kind) {
    case StatementKind::kCreateType: {
      std::vector<adm::FieldSpec> fields;
      for (const auto& f : stmt.create_type.fields) {
        IDEA_ASSIGN_OR_RETURN(adm::FieldType ft, adm::FieldTypeFromName(f.type_name));
        fields.push_back(adm::FieldSpec{f.name, ft, f.optional});
      }
      IDEA_RETURN_NOT_OK(catalog_.CreateDatatype(
          adm::Datatype(stmt.create_type.name, std::move(fields))));
      return adm::Array{};
    }
    case StatementKind::kCreateDataset: {
      IDEA_RETURN_NOT_OK(catalog_.CreateDataset(
          stmt.create_dataset.name, stmt.create_dataset.type_name,
          stmt.create_dataset.primary_key));
      return adm::Array{};
    }
    case StatementKind::kCreateIndex: {
      std::shared_ptr<storage::LsmDataset> ds =
          catalog_.FindDataset(stmt.create_index.dataset);
      if (ds == nullptr) {
        return Status::NotFound("unknown dataset '" + stmt.create_index.dataset + "'");
      }
      IDEA_RETURN_NOT_OK(ds->CreateIndex(stmt.create_index.name, stmt.create_index.field,
                                         stmt.create_index.index_type));
      return adm::Array{};
    }
    case StatementKind::kCreateFunction: {
      sqlpp::SqlppFunctionDef def;
      def.name = stmt.create_function.name;
      def.params = stmt.create_function.params;
      def.body = std::shared_ptr<const sqlpp::SelectStatement>(
          std::move(stmt.create_function.body));
      IDEA_RETURN_NOT_OK(
          udfs_.RegisterSqlpp(std::move(def), stmt.create_function.or_replace));
      return adm::Array{};
    }
    case StatementKind::kCreateFeed: {
      const auto& cf = stmt.create_feed;
      std::lock_guard<std::mutex> decls_lock(decls_mu_);
      if (feed_decls_.count(cf.name) > 0) {
        return Status::AlreadyExists("feed '" + cf.name + "' already exists");
      }
      FeedDecl decl;
      decl.config.name = cf.name;
      decl.config.adapter_config = cf.config;
      auto get = [&](const char* key) -> std::string {
        auto it = cf.config.find(key);
        return it == cf.config.end() ? "" : it->second;
      };
      decl.config.type_name = get("type-name");
      if (!get("format").empty()) decl.config.format = get("format");
      IDEA_RETURN_NOT_OK(ReadFeedCount<size_t>(cf.config, "batch-size", 1,
                                               &decl.config.batch_size));
      std::string balanced = ToLowerAscii(get("balanced-intake"));
      decl.config.balanced_intake = balanced == "true" || balanced == "yes";
      if (!get("on-error").empty()) {
        IDEA_ASSIGN_OR_RETURN(decl.config.on_error, feed::ParseOnError(get("on-error")));
      }
      IDEA_RETURN_NOT_OK(ReadFeedCount<uint32_t>(cf.config, "max-retries", 0,
                                                 &decl.config.max_retries));
      IDEA_RETURN_NOT_OK(ReadFeedCount<uint64_t>(cf.config, "retry-backoff-us", 0,
                                                 &decl.config.retry_backoff_us));
      IDEA_RETURN_NOT_OK(ReadFeedCount<size_t>(cf.config, "dlq-capacity", 1,
                                               &decl.config.dlq_capacity));
      if (!get("post-mortem-dir").empty()) {
        decl.config.post_mortem_dir = get("post-mortem-dir");
      }
      IDEA_RETURN_NOT_OK(ReadFeedCount<size_t>(cf.config, "routing-slack", 0,
                                               &decl.config.routing_slack));
      std::string ha = ToLowerAscii(get("ha-failover"));
      decl.config.ha_failover = ha == "true" || ha == "yes";
      IDEA_RETURN_NOT_OK(ReadFeedCount<uint32_t>(cf.config, "max-failovers", 0,
                                                 &decl.config.max_failovers));
      feed_decls_.emplace(cf.name, std::move(decl));
      return adm::Array{};
    }
    case StatementKind::kConnectFeed: {
      std::lock_guard<std::mutex> decls_lock(decls_mu_);
      auto it = feed_decls_.find(stmt.connect_feed.feed);
      if (it == feed_decls_.end()) {
        return Status::NotFound("unknown feed '" + stmt.connect_feed.feed + "'");
      }
      it->second.connection.dataset = stmt.connect_feed.dataset;
      it->second.connection.apply_function = stmt.connect_feed.apply_function;
      return adm::Array{};
    }
    case StatementKind::kStartFeed: {
      IDEA_RETURN_NOT_OK(StartFeedStatement(stmt.feed_control.feed));
      return adm::Array{};
    }
    case StatementKind::kStopFeed: {
      IDEA_RETURN_NOT_OK(afm_->StopFeed(stmt.feed_control.feed));
      return adm::Array{};
    }
    case StatementKind::kInsert:
    case StatementKind::kUpsert: {
      IDEA_RETURN_NOT_OK(RunInsert(stmt.insert));
      return adm::Array{};
    }
    case StatementKind::kQuery:
      return RunQuery(*stmt.query);
    case StatementKind::kDropDataset: {
      Status st = catalog_.DropDataset(stmt.drop.name);
      if (!st.ok() && !(st.IsNotFound() && stmt.drop.if_exists)) return st;
      return adm::Array{};
    }
    case StatementKind::kDropFunction: {
      Status st = udfs_.DropSqlpp(stmt.drop.name);
      if (!st.ok() && !(st.IsNotFound() && stmt.drop.if_exists)) return st;
      return adm::Array{};
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<adm::Array> Instance::RunQuery(const sqlpp::SelectStatement& query) {
  storage::CatalogAccessor accessor(&catalog_, /*cache=*/true);
  sqlpp::EvalContext ctx;
  ctx.datasets = &accessor;
  ctx.functions = &udfs_;
  sqlpp::Evaluator evaluator(ctx);
  sqlpp::Env root;
  return evaluator.EvalQuery(query, &root);
}

Status Instance::RunInsert(const sqlpp::InsertStatement& insert) {
  std::shared_ptr<storage::LsmDataset> ds = catalog_.FindDataset(insert.dataset);
  if (ds == nullptr) {
    return Status::NotFound("unknown dataset '" + insert.dataset + "'");
  }
  storage::CatalogAccessor accessor(&catalog_, /*cache=*/true);
  sqlpp::EvalContext ctx;
  ctx.datasets = &accessor;
  ctx.functions = &udfs_;
  sqlpp::Evaluator evaluator(ctx);
  sqlpp::Env root;

  adm::Array rows;
  if (insert.query != nullptr) {
    IDEA_ASSIGN_OR_RETURN(rows, evaluator.EvalQuery(*insert.query, &root));
  } else {
    IDEA_ASSIGN_OR_RETURN(Value coll, evaluator.Eval(*insert.collection, &root));
    if (!coll.IsArray()) {
      return Status::TypeMismatch("INSERT expects a collection of records");
    }
    rows = std::move(coll.MutableArray());
  }
  for (auto& row : rows) {
    // SELECT VALUE f(x) over a UDF yields singleton collections; unwrap them
    // (AsterixDB would UNNEST here).
    Value rec = std::move(row);
    if (rec.IsArray() && rec.AsArray().size() == 1 && rec.AsArray()[0].IsObject()) {
      rec = rec.AsArray()[0];
    }
    if (insert.upsert) {
      IDEA_RETURN_NOT_OK(ds->Upsert(std::move(rec)));
    } else {
      IDEA_RETURN_NOT_OK(ds->Insert(std::move(rec)));
    }
  }
  return ds->FlushWal();
}

Status Instance::StartFeedStatement(const std::string& feed_name) {
  feed::ActiveFeedManager::StartArgs args;
  feed::AdapterFactory factory;
  {
    std::lock_guard<std::mutex> decls_lock(decls_mu_);
    auto it = feed_decls_.find(feed_name);
    if (it == feed_decls_.end()) {
      return Status::NotFound("unknown feed '" + feed_name + "'");
    }
    FeedDecl& decl = it->second;
    if (decl.connection.dataset.empty()) {
      return Status::InvalidArgument("feed '" + feed_name +
                                     "' is not connected to a dataset");
    }
    args.config = decl.config;
    args.connection = decl.connection;
    factory = decl.adapter_override;
  }
  if (!factory) {
    IDEA_ASSIGN_OR_RETURN(factory, feed::MakeAdapterFactory(args.config.adapter_config));
  }
  args.adapter_factory = std::move(factory);
  return afm_->StartFeed(std::move(args));
}

Status Instance::SetFeedAdapterFactory(const std::string& feed,
                                       feed::AdapterFactory factory) {
  std::lock_guard<std::mutex> decls_lock(decls_mu_);
  auto it = feed_decls_.find(feed);
  if (it == feed_decls_.end()) {
    return Status::NotFound("unknown feed '" + feed + "'");
  }
  it->second.adapter_override = std::move(factory);
  return Status::OK();
}

Result<feed::FeedRuntimeStats> Instance::WaitForFeed(const std::string& feed) {
  return afm_->WaitForFeedStats(feed);
}

Status Instance::StopFeed(const std::string& feed) { return afm_->StopFeed(feed); }

Result<std::vector<feed::DeadLetter>> Instance::DrainDeadLetters(
    const std::string& feed) {
  std::shared_ptr<feed::DeadLetterQueue> dlq = afm_->dead_letter_queue(feed);
  if (dlq == nullptr) {
    return Status::NotFound("feed '" + feed + "' has no dead-letter queue");
  }
  return dlq->Drain();
}

size_t Instance::DeadLetterDepth(const std::string& feed) const {
  std::shared_ptr<feed::DeadLetterQueue> dlq = afm_->dead_letter_queue(feed);
  return dlq == nullptr ? 0 : dlq->depth();
}

Status Instance::RegisterNativeUdf(const std::string& qualified,
                                   feed::NativeUdfFactory factory, bool stateful) {
  return udfs_.RegisterNative(qualified, std::move(factory), stateful);
}

}  // namespace idea
