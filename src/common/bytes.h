// Growable byte buffer plus little-endian / varint codecs used by the ADM
// binary serializer, frames, and the write-ahead log.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace idea {

/// Append-only byte sink.
class ByteBuffer {
 public:
  void PutU8(uint8_t v) { data_.push_back(v); }
  void PutBytes(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    data_.insert(data_.end(), b, b + n);
  }
  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);
  void PutVarint64(uint64_t v);
  /// Length-prefixed (varint) string.
  void PutString(const std::string& s);
  void PutDouble(double v);

  const uint8_t* data() const { return data_.data(); }
  size_t size() const { return data_.size(); }
  void Reserve(size_t bytes) { data_.reserve(bytes); }
  void Clear() { data_.clear(); }
  std::vector<uint8_t> Release() { return std::move(data_); }
  const std::vector<uint8_t>& bytes() const { return data_; }

 private:
  std::vector<uint8_t> data_;
};

/// Non-owning sequential reader over a byte span. All Get* methods fail with
/// Corruption when the input is exhausted.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& v) : data_(v.data()), size_(v.size()) {}

  Status GetU8(uint8_t* out);
  Status GetFixed32(uint32_t* out);
  Status GetFixed64(uint64_t* out);
  Status GetVarint64(uint64_t* out);
  Status GetString(std::string* out);
  Status GetDouble(double* out);

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// ZigZag codec so that small negative int64s varint-encode compactly.
uint64_t ZigZagEncode(int64_t v);
int64_t ZigZagDecode(uint64_t v);

}  // namespace idea
