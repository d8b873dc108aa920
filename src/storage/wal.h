// Write-ahead log with group flush. Insert/upsert paths append; a write is
// durable only after Flush(). The paper leans on exactly this property: "the
// evaluation of an insert job ... will have to wait for the storage log to be
// flushed to finish properly" (§5.2), which is why the computing job is
// decoupled from the storage job.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "adm/value.h"
#include "common/status.h"

namespace idea::storage {

enum class WalRecordType : uint8_t { kInsert = 1, kUpsert = 2, kDelete = 3 };

struct WalRecord {
  WalRecordType type;
  uint64_t seqno;
  adm::Value key;
  adm::Value record;  // unused for deletes
};

struct WalStats {
  uint64_t appends = 0;
  uint64_t flushes = 0;
  uint64_t bytes_written = 0;
  uint64_t unflushed_bytes = 0;
};

/// Append-only log. Every dataset's log lives in memory, which keeps every
/// logged byte for the dataset's lifetime; ReadAll() reads that copy. File
/// mode (OpenFile, reached only from tests) also writes the records to a file
/// and Flush() calls std::ofstream::flush(), which hands the bytes to the OS
/// but does not fdatasync them, so a flushed record is not crash-durable.
class Wal {
 public:
  /// In-memory log.
  Wal() = default;
  /// File-backed log at `path` (truncated).
  static Result<std::unique_ptr<Wal>> OpenFile(const std::string& path);

  Status Append(const WalRecord& rec);
  /// Makes all appended records durable. Group-commit point.
  Status Flush();

  WalStats stats() const;

  /// Replays every record appended so far (both modes). Used by recovery
  /// tests to verify the encoding round-trips.
  Result<std::vector<WalRecord>> ReadAll() const;

 private:
  mutable std::mutex mu_;
  std::vector<uint8_t> buffer_;  // the whole log, in both modes
  std::unique_ptr<std::ofstream> file_;
  std::string path_;
  WalStats stats_;
};

}  // namespace idea::storage
