// Frames: the unit of data movement in the runtime. As in Hyracks, records
// flow between jobs in byte frames holding multiple serialized records.
// FrameView / RecordView iterate the serialized records in place, so a
// consumer decodes one record at a time without copying the payload.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "adm/value.h"
#include "common/bytes.h"
#include "common/status.h"

namespace idea::runtime {

class FrameView;
class RecordView;

class Frame {
 public:
  /// Serializes and appends one record.
  void Append(const adm::Value& record);

  /// Deserializes all records in the frame (appends to `out`).
  Status Decode(std::vector<adm::Value>* out) const;

  /// Pre-sizes the frame for an expected record count / payload size.
  void Reserve(size_t records, size_t bytes) {
    offsets_.reserve(records);
    buf_.Reserve(bytes);
  }

  size_t record_count() const { return offsets_.size(); }
  size_t byte_size() const { return buf_.size(); }
  bool empty() const { return offsets_.empty(); }

  /// Pipeline-trace id of the batch this frame belongs to (obs::Tracer);
  /// 0 = untraced. Carried across the computing-job/storage-job boundary so
  /// the storage job appends its spans to the originating batch's timeline.
  uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(uint64_t id) { trace_id_ = id; }

  /// At-least-once bookkeeping (HA feeds): the intake lease the frame's
  /// source batch was pulled under (0 = unleased) and the intake partition
  /// it came from. The storage job acks (origin_partition, lease_id) back to
  /// the intake holder after the frame's WAL group-commit.
  uint64_t lease_id() const { return lease_id_; }
  void set_lease_id(uint64_t id) { lease_id_ = id; }
  size_t origin_partition() const { return origin_partition_; }
  void set_origin_partition(size_t p) { origin_partition_ = p; }

  /// Builds a frame from a record span.
  static Frame FromRecords(const std::vector<adm::Value>& records);

 private:
  friend class FrameView;
  friend class RecordView;

  ByteBuffer buf_;
  std::vector<uint32_t> offsets_;  // start offset of each record
  uint64_t trace_id_ = 0;
  uint64_t lease_id_ = 0;
  size_t origin_partition_ = 0;
};

/// Cursor over one serialized record inside a Frame. Cheap to construct and
/// copy; borrows the frame, which must outlive the view.
class RecordView {
 public:
  /// Raw serialized bytes of the record (the frame wire encoding).
  std::span<const uint8_t> raw() const {
    return {frame_->buf_.data() + begin_, end_ - begin_};
  }

  /// Materializes the full record.
  Result<adm::Value> Decode() const;

 private:
  friend class FrameView;
  RecordView(const Frame* frame, size_t index);

  const Frame* frame_;
  uint32_t begin_;  // record byte range in the frame payload
  uint32_t end_;
};

/// Zero-copy iteration over a frame's records.
class FrameView {
 public:
  explicit FrameView(const Frame& frame) : frame_(&frame) {}

  size_t size() const { return frame_->record_count(); }
  RecordView operator[](size_t i) const { return RecordView(frame_, i); }

 private:
  const Frame* frame_;
};

/// Splits `records` into frames of at most `target_bytes` (at least one
/// record per frame).
std::vector<Frame> FrameRecords(const std::vector<adm::Value>& records,
                                size_t target_bytes);

}  // namespace idea::runtime
