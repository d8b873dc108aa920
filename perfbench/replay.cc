// Part (a) of the traced pass: the workload's inputs replayed on one thread
// through each layer's public entry point, in the order the feed pipeline
// calls them, with a span around every call:
//
//   batch (one computing-job partition task: batch-size / nodes records)
//     runtime.intake_push   IntakePartitionHolder::Push, per record
//     runtime.intake_pull   IntakePartitionHolder::PullBatch
//     feed.parse            JsonRecordParser::Parse, per record
//     storage.ref_upsert    reference LsmDataset::Upsert + FlushWal, per
//                           update due by the batch's last tweet
//     sqlpp.refresh         EnrichmentPlan::Initialize
//     sqlpp.enrich          EnrichmentPlan::EnrichBatch
//     runtime.ship          frame build + StoragePartitionHolder::Push
//     storage.frame         one storage-job frame
//       runtime.storage_pop     StoragePartitionHolder::Pop
//       adm.decode              RecordView::Decode, per record
//       storage.upsert          LsmDataset::Upsert, per record; renamed
//       storage.memtable_flush  to these two when the call flushed or
//       storage.compaction      compacted (LsmDataset::stats() advanced)
//       storage.wal_commit      LsmDataset::FlushWal
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "bench_math.h"
#include "feed/feed.h"
#include "feed/record_parser.h"
#include "runtime/frame.h"
#include "runtime/partition_holder.h"
#include "sqlpp/enrichment_plan.h"
#include "storage/catalog.h"
#include "workloads.h"

namespace perfbench {

namespace adm = idea::adm;
namespace runtime = idea::runtime;
using idea::Status;

namespace {

enum SpanName : uint32_t {
  kBatch,
  kIntakePush,
  kIntakePull,
  kParse,
  kRefUpsert,
  kRefresh,
  kEnrich,
  kShip,
  kStoreFrame,
  kStoragePop,
  kDecode,
  kUpsert,
  kMemtableFlush,
  kCompaction,
  kWalCommit,
  kSpanNames,
};

constexpr const char* kSpanNameText[kSpanNames] = {
    "batch",          "runtime.intake_push", "runtime.intake_pull", "feed.parse",
    "storage.ref_upsert", "sqlpp.refresh",   "sqlpp.enrich",        "runtime.ship",
    "storage.frame",  "runtime.storage_pop", "adm.decode",          "storage.upsert",
    "storage.memtable_flush", "storage.compaction", "storage.wal_commit",
};

/// Spans kept in benchmark memory and written out at the end.
class SpanLog {
 public:
  explicit SpanLog(size_t expected) { spans_.reserve(expected); }

  void set_batch(uint32_t batch) { batch_ = batch; }
  int32_t Open(SpanName name, int32_t parent) {
    spans_.push_back({name, parent, batch_, 0, 0});
    spans_.back().start_ns = NowNs();
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  void Rename(int32_t id, SpanName name) { spans_[static_cast<size_t>(id)].name = name; }
  template <class F>
  void Record(SpanName name, int32_t parent, F&& call) {
    int32_t id = Open(name, parent);
    call();
    Close(id);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  uint32_t batch_ = 0;
};

/// Replays the inputs, recording spans. `wrong` counts records that failed
/// to parse; any other failing call ends the replay with its status.
Status Replay(const WorkloadSpec& w, const Inputs& in, Deployment& d, SpanLog* log,
              uint64_t* wrong, idea::sqlpp::PlanStats* plan_stats) {
  idea::feed::JsonRecordParser parser(d.db->catalog().FindDatatype("TweetType"));
  std::unique_ptr<idea::storage::CatalogAccessor> accessor;
  std::unique_ptr<idea::sqlpp::EnrichmentPlan> plan;
  if (!w.udf.empty()) {
    // Configured as ComputingJob::Deploy configures a node's artifact.
    accessor = std::make_unique<idea::storage::CatalogAccessor>(&d.db->catalog(), true);
    IDEA_ASSIGN_OR_RETURN(plan, idea::sqlpp::EnrichmentPlan::Compile(
                                    d.db->udfs().FindSqlppShared(w.udf), accessor.get(),
                                    &d.db->udfs()));
  }
  // One intake and one storage holder per partition, as START FEED creates.
  std::vector<std::unique_ptr<runtime::IntakePartitionHolder>> intake;
  std::vector<std::unique_ptr<runtime::StoragePartitionHolder>> storage;
  for (size_t p = 0; p < kNodes; ++p) {
    intake.push_back(std::make_unique<runtime::IntakePartitionHolder>(
        runtime::PartitionHolderId{"replay", "intake", p}));
    storage.push_back(std::make_unique<runtime::StoragePartitionHolder>(
        runtime::PartitionHolderId{"replay", "storage", p}));
  }
  const size_t n = in.tweets.size();
  const size_t quota = kBatchSize / kNodes;
  const size_t frame_bytes = idea::feed::FeedConfig().frame_bytes;
  const uint64_t planned_updates = UpdateCount(w);
  uint64_t next_update = 0;
  idea::storage::DatasetStats prev = d.target->stats();
  Status st;

  for (size_t begin = 0, b = 0; begin < n; begin += quota, ++b) {
    const size_t end = std::min(begin + quota, n);
    const size_t p = b % kNodes;
    log->set_batch(static_cast<uint32_t>(b));
    const int32_t batch = log->Open(kBatch, -1);

    for (size_t i = begin; i < end; ++i) {
      std::string raw = in.tweets[i];  // the adapter's copy, as in the feed
      log->Record(kIntakePush, batch, [&] { st = intake[p]->Push(std::move(raw)); });
      IDEA_RETURN_NOT_OK(st);
    }
    // A short last batch completes on the feed's end-of-stream marker.
    if (end - begin < quota) intake[p]->PushEof();
    std::vector<std::string> raw;
    log->Record(kIntakePull, batch, [&] { intake[p]->PullBatch(quota, &raw); });

    std::vector<adm::Value> parsed;
    parsed.reserve(raw.size());
    for (const std::string& r : raw) {
      log->Record(kParse, batch, [&] {
        auto rec = parser.Parse(r);
        if (rec.ok()) parsed.push_back(std::move(*rec));
      });
    }
    *wrong += raw.size() - parsed.size();

    // Reference updates due by this batch's last tweet (update k is due at
    // k / update_rate, tweet i at i / tweet_rate).
    while (next_update < planned_updates &&
           static_cast<double>(next_update) * w.tweet_rate <=
               static_cast<double>(end - 1) * w.update_rate) {
      adm::Value rec = UpdateRecord(w, in, next_update++);
      log->Record(kRefUpsert, batch, [&] {
        st = d.reference->Upsert(std::move(rec));
        if (st.ok()) st = d.reference->FlushWal();
      });
      IDEA_RETURN_NOT_OK(st);
    }

    std::vector<adm::Value> enriched;
    if (plan != nullptr) {
      log->Record(kRefresh, batch, [&] {
        accessor->BeginEpoch();
        st = plan->Initialize();
      });
      IDEA_RETURN_NOT_OK(st);
      log->Record(kEnrich, batch, [&] { st = plan->EnrichBatch(parsed, &enriched); });
      IDEA_RETURN_NOT_OK(st);
    } else {
      enriched = std::move(parsed);
    }

    size_t frames = 0;
    log->Record(kShip, batch, [&] {
      for (runtime::Frame& f : runtime::FrameRecords(enriched, frame_bytes)) {
        st = storage[p]->Push(std::move(f));
        if (!st.ok()) return;
        ++frames;
      }
    });
    IDEA_RETURN_NOT_OK(st);

    for (size_t f = 0; f < frames; ++f) {
      const int32_t frame_span = log->Open(kStoreFrame, batch);
      runtime::Frame frame;
      log->Record(kStoragePop, frame_span, [&] { storage[p]->Pop(&frame); });
      runtime::FrameView view(frame);
      for (size_t i = 0; i < view.size(); ++i) {
        std::optional<adm::Value> rec;
        log->Record(kDecode, frame_span, [&] {
          auto decoded = view[i].Decode();
          if (decoded.ok()) {
            rec = std::move(*decoded);
          } else {
            st = decoded.status();
          }
        });
        IDEA_RETURN_NOT_OK(st);
        const int32_t upsert = log->Open(kUpsert, frame_span);
        st = d.target->Upsert(std::move(*rec));
        log->Close(upsert);
        IDEA_RETURN_NOT_OK(st);
        const idea::storage::DatasetStats now = d.target->stats();
        if (now.compactions != prev.compactions) {
          log->Rename(upsert, kCompaction);
        } else if (now.flushes != prev.flushes) {
          log->Rename(upsert, kMemtableFlush);
        }
        prev = now;
      }
      log->Record(kWalCommit, frame_span, [&] { st = d.target->FlushWal(); });
      IDEA_RETURN_NOT_OK(st);
      log->Close(frame_span);
    }
    log->Close(batch);
  }
  if (plan != nullptr) *plan_stats = plan->stats();
  return Status::OK();
}

}  // namespace

Status RunReplay(const WorkloadSpec& w, const Inputs& in, const std::string& out_prefix,
                 Metrics* metrics, uint64_t* failed) {
  IDEA_ASSIGN_OR_RETURN(Deployment d, Deploy(w, in));
  const size_t n = in.tweets.size();
  SpanLog log(5 * n);
  uint64_t wrong = 0;
  idea::sqlpp::PlanStats plan_stats;
  const idea::storage::WalStats wal_before = d.target->wal_stats();
  const int64_t t0 = NowNs();
  IDEA_RETURN_NOT_OK(Replay(w, in, d, &log, &wrong, &plan_stats));
  const double wall_ns = static_cast<double>(NowNs() - t0);
  const uint64_t committed = d.target->LiveRecordCount();
  *failed = wrong + (committed < n ? n - committed : 0);

  // Self time per span name; "covered" is the time inside the layer calls a
  // batch makes (the batch spans' direct children).
  const std::vector<Span>& spans = log.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  double self_ns[kSpanNames] = {}, max_ns[kSpanNames] = {};
  uint64_t calls[kSpanNames] = {};
  double covered_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    self_ns[s.name] += static_cast<double>(self[i]);
    max_ns[s.name] = std::max(max_ns[s.name], dur);
    ++calls[s.name];
    if (s.parent >= 0 && spans[static_cast<size_t>(s.parent)].parent < 0) covered_ns += dur;
  }
  const double recs = static_cast<double>(n);
  const double batches = static_cast<double>(std::max<uint64_t>(calls[kBatch], 1));
  const double frames = static_cast<double>(std::max<uint64_t>(calls[kStoreFrame], 1));
  auto us = [&](SpanName s) { return self_ns[s] / 1e3; };
  auto per_call_us = [&](SpanName s) {
    return calls[s] == 0 ? 0.0 : us(s) / static_cast<double>(calls[s]);
  };
  const idea::storage::WalStats wal_after = d.target->wal_stats();
  *metrics = {
      {"feed.parse.us_per_rec", us(kParse) / recs, "us"},
      {"runtime.intake_push.us_per_rec", us(kIntakePush) / recs, "us"},
      {"runtime.intake_pull.us_per_batch", us(kIntakePull) / batches, "us"},
      {"sqlpp.refresh.us_per_batch", us(kRefresh) / batches, "us"},
      {"sqlpp.refresh.noop", static_cast<double>(plan_stats.noop_refreshes), "count"},
      {"sqlpp.refresh.delta", static_cast<double>(plan_stats.delta_refreshes), "count"},
      {"sqlpp.refresh.full", static_cast<double>(plan_stats.full_rebuilds), "count"},
      {"sqlpp.enrich.us_per_rec", us(kEnrich) / recs, "us"},
      {"runtime.ship.us_per_frame", us(kShip) / frames, "us"},
      {"adm.decode.us_per_rec", us(kDecode) / recs, "us"},
      {"storage.upsert.us_per_rec", per_call_us(kUpsert), "us"},
      {"storage.memtable_flush.count", static_cast<double>(calls[kMemtableFlush]), "count"},
      {"storage.memtable_flush.ms", self_ns[kMemtableFlush] / 1e6, "ms"},
      {"storage.compaction.count", static_cast<double>(calls[kCompaction]), "count"},
      {"storage.compaction.ms", self_ns[kCompaction] / 1e6, "ms"},
      {"storage.compaction.max_ms", max_ns[kCompaction] / 1e6, "ms"},
      {"storage.wal_commit.us_per_frame", us(kWalCommit) / frames, "us"},
      {"storage.wal.bytes_per_rec",
       static_cast<double>(wal_after.bytes_written - wal_before.bytes_written) / recs, "B/rec"},
      {"storage.ref_upsert.us_per_update", per_call_us(kRefUpsert), "us"},
      {"replay.unattributed_frac", (wall_ns - covered_ns) / wall_ns, "ratio"},
  };

  // Spans, one per line, times relative to the replay start.
  if (FILE* f = std::fopen((out_prefix + ".spans.tsv").c_str(), "w")) {
    std::fprintf(f, "name\tbatch\tparent\tstart_ns\tend_ns\n");
    for (const Span& s : spans) {
      std::fprintf(f, "%s\t%u\t%d\t%lld\t%lld\n", kSpanNameText[s.name], s.batch, s.parent,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
    }
    std::fclose(f);
  } else {
    std::fprintf(stderr, "warning: cannot write %s.spans.tsv\n", out_prefix.c_str());
  }

  // Self time per span name and per layer; storage is upsert + flush +
  // compaction + WAL commit.
  std::map<std::string, double> layers = {
      {"intake", self_ns[kIntakePush] + self_ns[kIntakePull]},
      {"parse", self_ns[kParse]},
      {"ref_upsert", self_ns[kRefUpsert]},
      {"refresh", self_ns[kRefresh]},
      {"enrich", self_ns[kEnrich]},
      {"ship", self_ns[kShip]},
      {"storage_pop", self_ns[kStoragePop]},
      {"decode", self_ns[kDecode]},
      {"storage", self_ns[kUpsert] + self_ns[kMemtableFlush] + self_ns[kCompaction] +
                      self_ns[kWalCommit]},
      {"loop", self_ns[kBatch] + self_ns[kStoreFrame]},
  };
  std::string largest = layers.begin()->first;
  std::string body = "{\"workload\": \"" + w.name + "\", \"records\": " + std::to_string(n) +
                     ", \"wall_ms\": " + std::to_string(wall_ns / 1e6) + ", \"spans\": {";
  for (uint32_t s = 0; s < kSpanNames; ++s) {
    body += std::string(s == 0 ? "" : ", ") + "\"" + kSpanNameText[s] +
            "\": {\"calls\": " + std::to_string(calls[s]) +
            ", \"self_ms\": " + std::to_string(self_ns[s] / 1e6) + "}";
  }
  body += "}, \"layers_self_ms\": {";
  bool first = true;
  for (const auto& [name, ns] : layers) {
    body += std::string(first ? "" : ", ") + "\"" + name + "\": " + std::to_string(ns / 1e6);
    first = false;
    if (ns > layers[largest]) largest = name;
  }
  body += "}, \"largest_layer\": \"" + largest + "\"}\n";
  if (FILE* f = std::fopen((out_prefix + ".selftime.json").c_str(), "w")) {
    std::fputs(body.c_str(), f);
    std::fclose(f);
  }
  std::printf("replay: %.0f ms wall, largest layer by self time: %s (%.0f ms)\n",
              wall_ns / 1e6, largest.c_str(), layers[largest] / 1e6);
  return Status::OK();
}

}  // namespace perfbench
