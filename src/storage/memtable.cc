#include "storage/memtable.h"

namespace idea::storage {

void MemTable::Put(adm::Value key, RecordEntry entry) {
  const size_t key_bytes = key.EstimateSize();
  const size_t add = key_bytes + entry.record.EstimateSize() + 48;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= key_bytes + it->second.record.EstimateSize() + 48;
    it->second = std::move(entry);
  } else {
    entries_.emplace(std::move(key), std::move(entry));
  }
  bytes_ += add;
}

const RecordEntry* MemTable::Get(const adm::Value& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<KeyedEntry> MemTable::TakeEntries() {
  std::vector<KeyedEntry> rows;
  rows.reserve(entries_.size());
  while (!entries_.empty()) {
    auto node = entries_.extract(entries_.begin());
    rows.emplace_back(std::move(node.key()), std::move(node.mapped()));
  }
  bytes_ = 0;
  return rows;
}

}  // namespace idea::storage
