#include "runtime/frame.h"

#include "adm/serde.h"

namespace idea::runtime {

void Frame::Append(const adm::Value& record) {
  offsets_.push_back(static_cast<uint32_t>(buf_.size()));
  adm::SerializeValue(record, &buf_);
}

Status Frame::Decode(std::vector<adm::Value>* out) const {
  out->reserve(out->size() + offsets_.size());
  ByteReader reader(buf_.data(), buf_.size());
  for (size_t i = 0; i < offsets_.size(); ++i) {
    IDEA_ASSIGN_OR_RETURN(adm::Value v, adm::DeserializeValue(&reader));
    out->push_back(std::move(v));
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes in frame");
  return Status::OK();
}

Frame Frame::FromRecords(const std::vector<adm::Value>& records) {
  Frame f;
  if (records.empty()) return f;
  // The first record's serialized size seeds the byte-capacity estimate for
  // the batch (records of one feed are near-uniform), so the payload vector
  // grows once instead of log2(n) times.
  f.Reserve(records.size(), 0);
  f.Append(records.front());
  f.Reserve(records.size(), f.byte_size() * records.size());
  for (size_t i = 1; i < records.size(); ++i) f.Append(records[i]);
  return f;
}

RecordView::RecordView(const Frame* frame, size_t index) : frame_(frame) {
  begin_ = frame->offsets_[index];
  end_ = index + 1 < frame->offsets_.size()
             ? frame->offsets_[index + 1]
             : static_cast<uint32_t>(frame->buf_.size());
}

Result<adm::Value> RecordView::Decode() const {
  ByteReader reader(frame_->buf_.data() + begin_, end_ - begin_);
  IDEA_ASSIGN_OR_RETURN(adm::Value v, adm::DeserializeValue(&reader));
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes in record");
  return v;
}

std::vector<Frame> FrameRecords(const std::vector<adm::Value>& records,
                                size_t target_bytes) {
  std::vector<Frame> out;
  Frame cur;
  cur.Reserve(0, target_bytes);
  for (const auto& r : records) {
    cur.Append(r);
    if (cur.byte_size() >= target_bytes) {
      out.push_back(std::move(cur));
      cur = Frame();
      cur.Reserve(0, target_bytes);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

}  // namespace idea::runtime
