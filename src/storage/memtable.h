// In-memory LSM component: the mutable head of a dataset's LSM tree.
// Updates to a dataset "activate the in-memory component of its LSM
// structure" (paper §7.3), adding merge/locking cost to every subsequent
// reader — the effect behind Figure 27's initial throughput drop.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "adm/value.h"
#include "common/status.h"

namespace idea::storage {

/// One versioned record slot (newest version wins; tombstones mask deletes).
struct RecordEntry {
  uint64_t seqno = 0;
  bool tombstone = false;
  adm::Value record;
};

/// A key with its entry: the row type of sorted LSM runs.
using KeyedEntry = std::pair<adm::Value, RecordEntry>;

/// Sorted mutable run. Not internally synchronized: LsmDataset guards it.
class MemTable {
 public:
  /// Inserts or replaces the entry for `key`.
  void Put(adm::Value key, RecordEntry entry);

  /// nullptr when the key is absent (a tombstone entry is still returned).
  const RecordEntry* Get(const adm::Value& key) const;

  size_t ApproximateBytes() const { return bytes_; }
  bool empty() const { return entries_.empty(); }

  /// Moves every entry out in key order (no record is copied) and leaves the
  /// table empty: the flush path.
  std::vector<KeyedEntry> TakeEntries();

  /// Key-ordered iteration.
  const std::map<adm::Value, RecordEntry>& entries() const { return entries_; }

 private:
  std::map<adm::Value, RecordEntry> entries_;
  size_t bytes_ = 0;
};

}  // namespace idea::storage
