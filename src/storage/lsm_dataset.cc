#include "storage/lsm_dataset.h"

#include <map>

#include "common/fault_injection.h"
#include "obs/flight_recorder.h"

namespace idea::storage {

using adm::Value;

LsmDataset::LsmDataset(std::string name, adm::Datatype datatype, std::string primary_key,
                       DatasetOptions options)
    : name_(std::move(name)),
      datatype_(std::move(datatype)),
      primary_key_(std::move(primary_key)),
      options_(options) {
  obs::Scope scope(&obs::MetricsRegistry::Default(), "idea.lsm." + name_);
  metrics_.writes = scope.Counter("writes");
  metrics_.flushes = scope.Counter("flushes");
  metrics_.compactions = scope.Counter("compactions");
  metrics_.changelog_evictions = scope.Counter("changelog_evictions");
  metrics_.flush_us = scope.Histogram("flush_us");
  metrics_.compact_us = scope.Histogram("compact_us");
}

Result<Value> LsmDataset::ExtractKey(const Value& record) const {
  const Value* key = record.GetField(primary_key_);
  if (key == nullptr || key->IsUnknown()) {
    return Status::InvalidArgument("record for dataset '" + name_ +
                                   "' lacks primary key field '" + primary_key_ + "'");
  }
  return *key;
}

const RecordEntry* LsmDataset::FindEntryLocked(const Value& key) const {
  if (const RecordEntry* e = memtable_.Get(key)) return e;
  for (auto it = components_.rbegin(); it != components_.rend(); ++it) {
    if (const RecordEntry* e = it->Get(key)) return e;
  }
  return nullptr;
}

void LsmDataset::IndexInsertLocked(const Value& record) {
  const Value* pk = record.GetField(primary_key_);
  for (auto& [field, slot] : indexes_) {
    const Value* v = record.GetField(field);
    if (v == nullptr || v->IsUnknown()) continue;
    if (slot.btree != nullptr) slot.btree->Insert(*v, *pk);
    if (slot.rtree != nullptr) slot.rtree->Insert(*v, *pk);
  }
}

void LsmDataset::IndexRemoveLocked(const Value& record) {
  const Value* pk = record.GetField(primary_key_);
  for (auto& [field, slot] : indexes_) {
    const Value* v = record.GetField(field);
    if (v == nullptr || v->IsUnknown()) continue;
    if (slot.btree != nullptr) slot.btree->Remove(*v, *pk);
    if (slot.rtree != nullptr) slot.rtree->Remove(*v, *pk);
  }
}

Status LsmDataset::WriteLocked(WalRecordType type, Value record) {
  IDEA_ASSIGN_OR_RETURN(Value key, ExtractKey(record));
  // The old version is read by the insert/delete liveness checks and by
  // index maintenance only, so an upsert into an unindexed dataset skips
  // the lookup.
  const RecordEntry* existing = type == WalRecordType::kUpsert && indexes_.empty()
                                    ? nullptr
                                    : FindEntryLocked(key);
  bool live = existing != nullptr && !existing->tombstone;
  switch (type) {
    case WalRecordType::kInsert:
      if (live) {
        return Status::AlreadyExists("duplicate primary key " + key.ToString() +
                                     " in dataset '" + name_ + "'");
      }
      break;
    case WalRecordType::kUpsert:
      break;
    case WalRecordType::kDelete:
      if (!live) {
        return Status::NotFound("no record with key " + key.ToString() +
                                " in dataset '" + name_ + "'");
      }
      break;
  }
  {
    // The log only serializes the record: lend it to the WAL record and
    // take it back rather than copy it.
    const bool logs_record = type != WalRecordType::kDelete;
    WalRecord wrec{type, next_seqno_, std::move(key),
                   logs_record ? std::move(record) : Value()};
    Status appended = wal_->Append(wrec);
    key = std::move(wrec.key);
    if (logs_record) record = std::move(wrec.record);
    IDEA_RETURN_NOT_OK(appended);
  }
  {
    // Injected crash between the WAL append and the in-memory apply: the
    // mutation is durable in the log but never reaches the memtable, the
    // indexes, or the changelog. The seqno is still consumed — exactly the
    // state WAL replay must repair.
    Status crash = IDEA_FAULT_HIT("lsm.apply");
    if (!crash.ok()) {
      ++next_seqno_;
      return crash;
    }
  }
  if (live) IndexRemoveLocked(existing->record);
  RecordEntry entry;
  entry.seqno = next_seqno_++;
  entry.tombstone = type == WalRecordType::kDelete;
  if (options_.changelog_capacity > 0) {
    DatasetChange change;
    change.seqno = entry.seqno;
    change.tombstone = entry.tombstone;
    change.key = key;
    if (!entry.tombstone) change.record = record;
    changelog_.push_back(std::move(change));
    if (changelog_.size() > options_.changelog_capacity) {
      changelog_evicted_through_ = changelog_.front().seqno;
      changelog_.pop_front();
      metrics_.changelog_evictions->Increment();
    }
  }
  if (!entry.tombstone) {
    IndexInsertLocked(record);
    entry.record = std::move(record);
  }
  memtable_.Put(std::move(key), std::move(entry));
  metrics_.writes->Increment();
  return MaybeFlushLocked();
}

Status LsmDataset::Insert(Value record) {
  IDEA_RETURN_NOT_OK(datatype_.ValidateAndCoerce(&record));
  std::unique_lock lock(mu_);
  ++stats_.inserts;
  return WriteLocked(WalRecordType::kInsert, std::move(record));
}

Status LsmDataset::Upsert(Value record) {
  IDEA_RETURN_NOT_OK(datatype_.ValidateAndCoerce(&record));
  std::unique_lock lock(mu_);
  ++stats_.upserts;
  return WriteLocked(WalRecordType::kUpsert, std::move(record));
}

Status LsmDataset::UpsertBatch(std::span<Value> records, size_t* applied) {
  *applied = 0;
  size_t valid = 0;
  Status invalid;
  for (; valid < records.size(); ++valid) {
    invalid = datatype_.ValidateAndCoerce(&records[valid]);
    if (!invalid.ok()) break;
  }
  if (valid == 0) return invalid;
  std::unique_lock lock(mu_);
  for (; *applied < valid; ++*applied) {
    ++stats_.upserts;
    IDEA_RETURN_NOT_OK(WriteLocked(WalRecordType::kUpsert, std::move(records[*applied])));
  }
  return invalid;
}

Status LsmDataset::Delete(const Value& key) {
  std::unique_lock lock(mu_);
  ++stats_.deletes;
  Value stub = Value::MakeObject({{primary_key_, key}});
  return WriteLocked(WalRecordType::kDelete, std::move(stub));
}

Result<Value> LsmDataset::Get(const Value& key) const {
  std::shared_lock lock(mu_);
  ++stats_.point_lookups;
  const RecordEntry* e = FindEntryLocked(key);
  if (e == nullptr || e->tombstone) {
    return Status::NotFound("no record with key " + key.ToString() + " in dataset '" +
                            name_ + "'");
  }
  return e->record;
}

std::shared_ptr<const std::vector<Value>> LsmDataset::Scan(uint64_t* seq_out) const {
  std::shared_lock lock(mu_);
  ++stats_.scans;
  if (seq_out != nullptr) *seq_out = next_seqno_ - 1;
  // Merge oldest -> newest so later versions overwrite.
  std::map<Value, const RecordEntry*> merged;
  for (const auto& comp : components_) {
    for (const auto& [k, e] : comp.rows()) merged[k] = &e;
  }
  for (const auto& [k, e] : memtable_.entries()) merged[k] = &e;
  auto out = std::make_shared<std::vector<Value>>();
  out->reserve(merged.size());
  for (const auto& [k, e] : merged) {
    if (!e->tombstone) out->push_back(e->record);
  }
  return out;
}

size_t LsmDataset::LiveRecordCount() const { return Scan()->size(); }

uint64_t LsmDataset::CurrentSeq() const {
  std::shared_lock lock(mu_);
  return next_seqno_ - 1;
}

Status LsmDataset::ScanDelta(uint64_t from_seq, uint64_t to_seq,
                             std::vector<DatasetChange>* out) const {
  std::shared_lock lock(mu_);
  ++stats_.delta_scans;
  if (from_seq > to_seq || to_seq >= next_seqno_) {
    return Status::InvalidArgument("ScanDelta range (" + std::to_string(from_seq) +
                                   ", " + std::to_string(to_seq) +
                                   "] out of bounds for dataset '" + name_ + "'");
  }
  if (from_seq < changelog_evicted_through_) {
    ++stats_.delta_wraps;
    return Status::ResourceExhausted("changelog of dataset '" + name_ + "' wrapped past seq " +
                              std::to_string(from_seq) + " (retained from " +
                              std::to_string(changelog_evicted_through_ + 1) + ")");
  }
  for (const DatasetChange& c : changelog_) {
    if (c.seqno <= from_seq) continue;
    if (c.seqno > to_seq) break;
    out->push_back(c);
  }
  return Status::OK();
}

Status LsmDataset::CreateIndex(const std::string& index_name, const std::string& field,
                               const std::string& kind) {
  std::unique_lock lock(mu_);
  if (indexes_.count(field) > 0) {
    return Status::AlreadyExists("index already exists on field '" + field +
                                 "' of dataset '" + name_ + "'");
  }
  IndexSlot slot;
  slot.name = index_name;
  if (kind == "btree") {
    slot.btree = std::make_unique<BTreeIndex>(field);
  } else if (kind == "rtree") {
    slot.rtree = std::make_unique<RTreeIndex>(field);
  } else {
    return Status::InvalidArgument("unknown index kind '" + kind + "'");
  }
  // Build from existing live records.
  std::map<Value, const RecordEntry*> merged;
  for (const auto& comp : components_) {
    for (const auto& [k, e] : comp.rows()) merged[k] = &e;
  }
  for (const auto& [k, e] : memtable_.entries()) merged[k] = &e;
  for (const auto& [k, e] : merged) {
    if (e->tombstone) continue;
    const Value* v = e->record.GetField(field);
    if (v == nullptr || v->IsUnknown()) continue;
    if (slot.btree != nullptr) slot.btree->Insert(*v, k);
    if (slot.rtree != nullptr) slot.rtree->Insert(*v, k);
  }
  indexes_.emplace(field, std::move(slot));
  return Status::OK();
}

bool LsmDataset::HasIndexOn(const std::string& field, bool spatial) const {
  std::shared_lock lock(mu_);
  auto it = indexes_.find(field);
  if (it == indexes_.end()) return false;
  return spatial ? it->second.rtree != nullptr : it->second.btree != nullptr;
}

std::string LsmDataset::IndexKindOn(const std::string& field) const {
  std::shared_lock lock(mu_);
  auto it = indexes_.find(field);
  if (it == indexes_.end()) return "";
  return it->second.btree != nullptr ? "btree" : "rtree";
}

Status LsmDataset::ProbeIndexEquals(const std::string& field, const Value& key,
                                    std::vector<Value>* out) const {
  std::shared_lock lock(mu_);
  ++stats_.index_probes;
  auto it = indexes_.find(field);
  if (it == indexes_.end() || it->second.btree == nullptr) {
    return Status::NotFound("no btree index on field '" + field + "' of dataset '" +
                            name_ + "'");
  }
  std::vector<Value> pks;
  it->second.btree->SearchEquals(key, &pks);
  for (const Value& pk : pks) {
    const RecordEntry* e = FindEntryLocked(pk);
    if (e != nullptr && !e->tombstone) out->push_back(e->record);
  }
  return Status::OK();
}

Status LsmDataset::ProbeIndexMbr(const std::string& field, const adm::Rectangle& query,
                                 std::vector<Value>* out) const {
  std::shared_lock lock(mu_);
  ++stats_.index_probes;
  auto it = indexes_.find(field);
  if (it == indexes_.end() || it->second.rtree == nullptr) {
    return Status::NotFound("no rtree index on field '" + field + "' of dataset '" +
                            name_ + "'");
  }
  std::vector<Value> pks;
  it->second.rtree->Search(query, &pks);
  for (const Value& pk : pks) {
    const RecordEntry* e = FindEntryLocked(pk);
    if (e != nullptr && !e->tombstone) out->push_back(e->record);
  }
  return Status::OK();
}

void LsmDataset::FlushLocked() {
  {
    obs::ScopedLatency timer(metrics_.flush_us);
    components_.emplace_back(memtable_.TakeEntries());
  }
  ++stats_.flushes;
  metrics_.flushes->Increment();
}

Status LsmDataset::MaybeFlushLocked() {
  if (memtable_.ApproximateBytes() < options_.memtable_bytes) return Status::OK();
  IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("lsm.flush"));
  FlushLocked();
  if (components_.size() > options_.compaction_threshold) {
    obs::ScopedLatency timer(metrics_.compact_us);
    SortedComponent merged = SortedComponent::Merge(std::move(components_));
    components_.clear();
    components_.push_back(std::move(merged));
    ++stats_.compactions;
    metrics_.compactions->Increment();
  }
  return Status::OK();
}

Status LsmDataset::FlushMemTable() {
  std::unique_lock lock(mu_);
  if (memtable_.empty()) return Status::OK();
  IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("lsm.flush"));
  FlushLocked();
  return Status::OK();
}

Status LsmDataset::FlushWal() { return wal_->Flush(); }

Result<std::vector<WalRecord>> LsmDataset::ReadWal() const {
  std::shared_lock lock(mu_);
  return wal_->ReadAll();
}

Status LsmDataset::ReplayWalRecords(const std::vector<WalRecord>& records) {
  for (const WalRecord& rec : records) {
    switch (rec.type) {
      case WalRecordType::kInsert:
      case WalRecordType::kUpsert:
        // Replay-as-upsert: an insert already applied before the crash (or
        // already replayed) simply overwrites itself with the same bytes.
        IDEA_RETURN_NOT_OK(Upsert(rec.record));
        break;
      case WalRecordType::kDelete: {
        Status st = Delete(rec.key);
        if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
        break;
      }
    }
  }
  obs::FlightRecorder::Default().Record(
      obs::FlightEventKind::kWalRecovery, name_,
      "replayed " + std::to_string(records.size()) + " wal records",
      /*node=*/-1, records.size());
  return Status::OK();
}

DatasetStats LsmDataset::stats() const {
  DatasetStats out;
  out.inserts = stats_.inserts.load();
  out.upserts = stats_.upserts.load();
  out.deletes = stats_.deletes.load();
  out.point_lookups = stats_.point_lookups.load();
  out.scans = stats_.scans.load();
  out.flushes = stats_.flushes.load();
  out.compactions = stats_.compactions.load();
  out.index_probes = stats_.index_probes.load();
  out.delta_scans = stats_.delta_scans.load();
  out.delta_wraps = stats_.delta_wraps.load();
  return out;
}

WalStats LsmDataset::wal_stats() const { return wal_->stats(); }

size_t LsmDataset::ComponentCount() const {
  std::shared_lock lock(mu_);
  return components_.size();
}

}  // namespace idea::storage
