#include "storage/wal.h"

#include "adm/serde.h"
#include "common/bytes.h"
#include "common/fault_injection.h"
#include "obs/metrics.h"

namespace idea::storage {

namespace {

// All WAL instances share the process-wide idea.wal.* series; per-dataset
// breakdown lives in idea.lsm.<dataset>.*.
struct WalMetrics {
  obs::Counter* appends;
  obs::Counter* bytes;
  obs::Histogram* append_us;
  obs::Histogram* flush_us;
};

const WalMetrics& Metrics() {
  static WalMetrics m = [] {
    obs::Scope scope(&obs::MetricsRegistry::Default(), "idea.wal");
    return WalMetrics{scope.Counter("appends"), scope.Counter("bytes_written"),
                      scope.Histogram("append_us"), scope.Histogram("flush_us")};
  }();
  return m;
}

}  // namespace

Result<std::unique_ptr<Wal>> Wal::OpenFile(const std::string& path) {
  auto wal = std::make_unique<Wal>();
  wal->file_ = std::make_unique<std::ofstream>(path, std::ios::binary | std::ios::trunc);
  if (!wal->file_->good()) {
    return Status::Internal("cannot open WAL file '" + path + "'");
  }
  wal->path_ = path;
  return wal;
}

Status Wal::Append(const WalRecord& rec) {
  // Injected log-device failure: nothing reaches the log, the write fails.
  IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("wal.append"));
  const WalMetrics& metrics = Metrics();
  obs::ScopedLatency timer(metrics.append_us);
  ByteBuffer buf;
  buf.PutU8(static_cast<uint8_t>(rec.type));
  buf.PutVarint64(rec.seqno);
  adm::SerializeValue(rec.key, &buf);
  if (rec.type != WalRecordType::kDelete) {
    adm::SerializeValue(rec.record, &buf);
  }
  metrics.appends->Increment();
  metrics.bytes->Add(buf.size() + 4);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.appends;
  stats_.bytes_written += buf.size() + 4;
  stats_.unflushed_bytes += buf.size() + 4;
  ByteBuffer framed;
  framed.PutFixed32(static_cast<uint32_t>(buf.size()));
  framed.PutBytes(buf.data(), buf.size());
  if (file_ != nullptr) {
    file_->write(reinterpret_cast<const char*>(framed.data()),
                 static_cast<std::streamsize>(framed.size()));
    if (!file_->good()) return Status::Internal("WAL write failed");
  }
  buffer_.insert(buffer_.end(), framed.data(), framed.data() + framed.size());
  return Status::OK();
}

Status Wal::Flush() {
  // Injected group-commit failure: appended records stay unflushed.
  IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("wal.flush"));
  obs::ScopedLatency timer(Metrics().flush_us);
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    file_->flush();
    if (!file_->good()) return Status::Internal("WAL flush failed");
  }
  ++stats_.flushes;
  stats_.unflushed_bytes = 0;
  return Status::OK();
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<std::vector<WalRecord>> Wal::ReadAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WalRecord> out;
  ByteReader reader(buffer_);
  while (!reader.AtEnd()) {
    uint32_t len;
    IDEA_RETURN_NOT_OK(reader.GetFixed32(&len));
    if (len > reader.remaining()) return Status::Corruption("truncated WAL record");
    WalRecord rec;
    uint8_t type;
    IDEA_RETURN_NOT_OK(reader.GetU8(&type));
    if (type < 1 || type > 3) return Status::Corruption("bad WAL record type");
    rec.type = static_cast<WalRecordType>(type);
    IDEA_RETURN_NOT_OK(reader.GetVarint64(&rec.seqno));
    IDEA_ASSIGN_OR_RETURN(rec.key, adm::DeserializeValue(&reader));
    if (rec.type != WalRecordType::kDelete) {
      IDEA_ASSIGN_OR_RETURN(rec.record, adm::DeserializeValue(&reader));
    }
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace idea::storage
