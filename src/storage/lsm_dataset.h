// LsmDataset: one dataset (record collection keyed by primary key) stored as
// an LSM tree — a mutable memtable plus immutable sorted components — with
// optional WAL durability and synchronously-maintained secondary indexes
// (B-tree and R-tree). Mirrors AsterixDB's storage layer as the paper
// describes it (§7.3): updates activate the in-memory component and change
// the read path of every concurrent enrichment job.
//
// Every write is stamped with a monotonic mutation sequence number (shared
// with the memtable entries and the WAL) and mirrored into a bounded
// changelog ring, so derived state (the enrichment plans' hash builds and
// snapshots) can refresh incrementally via CurrentSeq()/ScanDelta() instead
// of re-scanning the whole dataset per computing-job invocation.
//
// Thread safety: all public methods are safe for concurrent use
// (shared_mutex; writers exclusive, readers shared). UpsertBatch validates
// and coerces its records before taking the lock, then applies the whole
// batch under one exclusive hold, so a reader sees none or all of the
// records it applied. A memtable flush or full-merge compaction runs inside
// the write that triggers it, under that write's exclusive hold. Neither
// copies records: the flush moves the memtable's entries into the new
// component, and the merge consumes the components it merges.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "adm/datatype.h"
#include "adm/value.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/btree_index.h"
#include "storage/component.h"
#include "storage/memtable.h"
#include "storage/rtree_index.h"
#include "storage/wal.h"

namespace idea::storage {

struct DatasetOptions {
  /// Memtable flush threshold.
  size_t memtable_bytes = 4u << 20;
  /// Full-merge compaction trigger (number of immutable components).
  size_t compaction_threshold = 8;
  /// Entries retained in the in-memory changelog ring behind ScanDelta().
  /// Once more than this many writes land since a reader's base sequence,
  /// the ring has wrapped and the reader must fall back to a full rebuild.
  /// 0 disables the changelog entirely.
  size_t changelog_capacity = 8192;
};

/// One committed mutation, as replayed to delta consumers (ScanDelta).
/// Inserts and upserts are both "upsert" here: consumers replace by key.
struct DatasetChange {
  uint64_t seqno = 0;
  bool tombstone = false;  // delete
  adm::Value key;          // primary key
  adm::Value record;       // post-coercion stored record; missing for deletes
};

struct DatasetStats {
  uint64_t inserts = 0;
  uint64_t upserts = 0;
  uint64_t deletes = 0;
  uint64_t point_lookups = 0;
  uint64_t scans = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t index_probes = 0;
  uint64_t delta_scans = 0;
  uint64_t delta_wraps = 0;  // ScanDelta calls lost to a wrapped changelog
};

class LsmDataset {
 public:
  LsmDataset(std::string name, adm::Datatype datatype, std::string primary_key,
             DatasetOptions options = DatasetOptions());

  const std::string& name() const { return name_; }
  const adm::Datatype& datatype() const { return datatype_; }
  const std::string& primary_key() const { return primary_key_; }

  /// Validates against the datatype (coercing extended types), then inserts.
  /// Fails with AlreadyExists if the key is live.
  Status Insert(adm::Value record);

  /// Insert-or-replace (the paper's UPSERT).
  Status Upsert(adm::Value record);

  /// Upserts `records` in order under one exclusive lock hold, validating
  /// them before the lock is taken. Stops at the first record that fails
  /// validation or its write and returns that status; `*applied` receives
  /// the number of records stored before it (all of them on success). The
  /// records are consumed: on return their contents are unspecified.
  Status UpsertBatch(std::span<adm::Value> records, size_t* applied);

  /// Deletes by primary key; NotFound when absent.
  Status Delete(const adm::Value& key);

  /// Point lookup by primary key.
  Result<adm::Value> Get(const adm::Value& key) const;

  /// Consistent snapshot of all live records (key order). When `seq_out` is
  /// non-null it receives the mutation sequence the snapshot is current
  /// through, read atomically with the scan.
  std::shared_ptr<const std::vector<adm::Value>> Scan(uint64_t* seq_out = nullptr) const;

  size_t LiveRecordCount() const;

  /// Monotonic mutation sequence number: the seqno of the latest committed
  /// insert/upsert/delete (0 before the first write). Every write advances it
  /// by exactly one, so seq deltas count mutations.
  uint64_t CurrentSeq() const;

  /// Appends all committed changes with seqno in (from_seq, to_seq] to `out`,
  /// oldest first. Fails with ResourceExhausted when the bounded changelog ring no
  /// longer reaches back to `from_seq` (the ring wrapped) — callers must then
  /// rebuild their derived state from a full Scan().
  Status ScanDelta(uint64_t from_seq, uint64_t to_seq,
                   std::vector<DatasetChange>* out) const;

  /// Creates a secondary index over `field` ("btree" or "rtree") and builds
  /// it from existing records.
  Status CreateIndex(const std::string& index_name, const std::string& field,
                     const std::string& kind);
  bool HasIndexOn(const std::string& field, bool spatial) const;
  /// "btree", "rtree", or "" when no index exists on the field.
  std::string IndexKindOn(const std::string& field) const;

  /// Live index probes (see the paper's index nested-loop discussion).
  Status ProbeIndexEquals(const std::string& field, const adm::Value& key,
                          std::vector<adm::Value>* out) const;
  Status ProbeIndexMbr(const std::string& field, const adm::Rectangle& query,
                       std::vector<adm::Value>* out) const;

  /// Forces a memtable flush (testing / shutdown).
  Status FlushMemTable();
  /// Group-commits the WAL; storage jobs call this once per stored batch.
  Status FlushWal();

  /// The WAL's full contents, oldest first (crash recovery reads the
  /// survivor's log through this).
  Result<std::vector<WalRecord>> ReadWal() const;

  /// Crash recovery: replays a WAL (typically another instance's, read via
  /// ReadWal after a crash) into this dataset. Inserts and upserts both
  /// replay as Upserts and deletes ignore NotFound, so replay is idempotent
  /// on the primary key: applying a log — or a suffix of one — more than
  /// once converges to the same live set.
  Status ReplayWalRecords(const std::vector<WalRecord>& records);

  DatasetStats stats() const;
  WalStats wal_stats() const;
  size_t ComponentCount() const;

 private:
  struct IndexSlot {
    std::string name;
    std::unique_ptr<BTreeIndex> btree;
    std::unique_ptr<RTreeIndex> rtree;
  };

  // All Locked* helpers require mu_ held exclusively.
  Status WriteLocked(WalRecordType type, adm::Value record);
  const RecordEntry* FindEntryLocked(const adm::Value& key) const;
  void IndexInsertLocked(const adm::Value& record);
  void IndexRemoveLocked(const adm::Value& record);
  Status MaybeFlushLocked();
  void FlushLocked();
  Result<adm::Value> ExtractKey(const adm::Value& record) const;

  std::string name_;
  adm::Datatype datatype_;
  std::string primary_key_;
  DatasetOptions options_;

  mutable std::shared_mutex mu_;
  MemTable memtable_;
  std::vector<SortedComponent> components_;              // oldest first
  std::unordered_map<std::string, IndexSlot> indexes_;  // by field
  // Never null. Kept a heap object, as it was before every dataset got a
  // log: an inline member was shown neither faster nor slower on
  // perfbench's enrich_fresh (EXPERIMENTS.md, "Telemetry is read when asked").
  std::unique_ptr<Wal> wal_ = std::make_unique<Wal>();
  uint64_t next_seqno_ = 1;
  // Bounded changelog ring behind ScanDelta (newest at the back).
  // `changelog_evicted_through_` is the highest seqno dropped off the front;
  // a delta from any base >= that mark is still fully covered by the ring.
  std::deque<DatasetChange> changelog_;
  uint64_t changelog_evicted_through_ = 0;
  struct AtomicStats {
    std::atomic<uint64_t> inserts{0}, upserts{0}, deletes{0}, point_lookups{0},
        scans{0}, flushes{0}, compactions{0}, index_probes{0}, delta_scans{0},
        delta_wraps{0};
  };
  mutable AtomicStats stats_;

  // idea.lsm.<dataset>.* registry mirrors (fetched once at construction).
  struct LsmMetrics {
    obs::Counter* writes = nullptr;  // inserts + upserts + deletes
    obs::Counter* flushes = nullptr;
    obs::Counter* compactions = nullptr;
    obs::Counter* changelog_evictions = nullptr;
    obs::Histogram* flush_us = nullptr;
    obs::Histogram* compact_us = nullptr;
  };
  LsmMetrics metrics_;
};

}  // namespace idea::storage
