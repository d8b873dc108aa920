// Immutable sorted LSM component ("disk component"): a frozen, key-ordered
// run produced by flushing a memtable or merging older components. A
// component owns its rows outright: flushes move memtable entries in and
// merges move rows out of the runs they consume, so no record is copied on
// the way down the tree.
#pragma once

#include <vector>

#include "adm/value.h"
#include "storage/memtable.h"

namespace idea::storage {

class SortedComponent {
 public:
  /// Takes rows that must already be strictly sorted by key (asserted in
  /// debug builds).
  explicit SortedComponent(std::vector<KeyedEntry> rows);

  SortedComponent(SortedComponent&&) = default;
  SortedComponent& operator=(SortedComponent&&) = default;
  SortedComponent(const SortedComponent&) = delete;
  SortedComponent& operator=(const SortedComponent&) = delete;

  /// K-way merges runs (index 0 = oldest) into one, consuming them: each
  /// key keeps only its newest version, and tombstones are kept (a newer
  /// merge may still need them to mask a version elsewhere).
  static SortedComponent Merge(std::vector<SortedComponent> oldest_first);

  /// Binary-search point lookup; nullptr when absent.
  const RecordEntry* Get(const adm::Value& key) const;

  const std::vector<KeyedEntry>& rows() const { return rows_; }

 private:
  std::vector<KeyedEntry> rows_;
};

}  // namespace idea::storage
