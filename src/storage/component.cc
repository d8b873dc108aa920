#include "storage/component.h"

#include <algorithm>
#include <cassert>

namespace idea::storage {

SortedComponent::SortedComponent(std::vector<KeyedEntry> rows) : rows_(std::move(rows)) {
  for (size_t i = 0; i + 1 < rows_.size(); ++i) {
    assert(adm::Value::Compare(rows_[i].first, rows_[i + 1].first) < 0 &&
           "component rows must be strictly key-sorted");
  }
}

SortedComponent SortedComponent::Merge(std::vector<SortedComponent> oldest_first) {
  // One cursor per run on a heap ordered by key, then newest run first, so
  // rows come off it in key order with each key's newest version first.
  // The older versions that follow it are dropped. A row is compared before
  // it is moved out, and its cursor has moved past it before the heap
  // compares that cursor again.
  struct Cursor {
    std::vector<KeyedEntry>* rows;
    size_t pos;
    size_t run;  // higher = newer
    const adm::Value& key() const { return (*rows)[pos].first; }
  };
  auto after = [](const Cursor& a, const Cursor& b) {
    int c = adm::Value::Compare(a.key(), b.key());
    return c != 0 ? c > 0 : a.run < b.run;
  };
  std::vector<Cursor> heap;
  size_t total = 0;
  for (size_t r = 0; r < oldest_first.size(); ++r) {
    std::vector<KeyedEntry>& rows = oldest_first[r].rows_;
    total += rows.size();
    if (!rows.empty()) heap.push_back(Cursor{&rows, 0, r});
  }
  std::make_heap(heap.begin(), heap.end(), after);
  std::vector<KeyedEntry> merged;
  merged.reserve(total);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Cursor& c = heap.back();
    KeyedEntry& row = (*c.rows)[c.pos];
    if (merged.empty() || adm::Value::Compare(row.first, merged.back().first) != 0) {
      merged.push_back(std::move(row));
    }
    if (++c.pos < c.rows->size()) {
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
  return SortedComponent(std::move(merged));
}

const RecordEntry* SortedComponent::Get(const adm::Value& key) const {
  auto it = std::lower_bound(
      rows_.begin(), rows_.end(), key, [](const KeyedEntry& row, const adm::Value& k) {
        return adm::Value::Compare(row.first, k) < 0;
      });
  if (it == rows_.end() || adm::Value::Compare(it->first, key) != 0) return nullptr;
  return &it->second;
}

}  // namespace idea::storage
