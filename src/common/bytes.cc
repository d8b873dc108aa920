#include "common/bytes.h"

namespace idea {

void ByteBuffer::PutFixed32(uint32_t v) {
  for (int i = 0; i < 4; ++i) data_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteBuffer::PutFixed64(uint64_t v) {
  for (int i = 0; i < 8; ++i) data_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteBuffer::PutVarint64(uint64_t v) {
  while (v >= 0x80) {
    data_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  data_.push_back(static_cast<uint8_t>(v));
}

void ByteBuffer::PutString(const std::string& s) {
  PutVarint64(s.size());
  PutBytes(s.data(), s.size());
}

void ByteBuffer::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(bits);
}

Status ByteReader::GetU8(uint8_t* out) {
  if (pos_ + 1 > size_) return Status::Corruption("byte reader exhausted (u8)");
  *out = data_[pos_++];
  return Status::OK();
}

Status ByteReader::GetFixed32(uint32_t* out) {
  if (pos_ + 4 > size_) return Status::Corruption("byte reader exhausted (fixed32)");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status ByteReader::GetFixed64(uint64_t* out) {
  if (pos_ + 8 > size_) return Status::Corruption("byte reader exhausted (fixed64)");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status ByteReader::GetVarint64(uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= size_) return Status::Corruption("byte reader exhausted (varint)");
    if (shift >= 64) return Status::Corruption("varint64 too long");
    uint8_t b = data_[pos_++];
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  *out = v;
  return Status::OK();
}

Status ByteReader::GetString(std::string* out) {
  uint64_t len;
  IDEA_RETURN_NOT_OK(GetVarint64(&len));
  if (pos_ + len > size_) return Status::Corruption("byte reader exhausted (string)");
  out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::OK();
}

Status ByteReader::GetDouble(double* out) {
  uint64_t bits;
  IDEA_RETURN_NOT_OK(GetFixed64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace idea
