// Feed adapters: obtain/receive data from external sources as raw records
// (paper §2.3 — "an adapter, which obtains/receives data from an external
// data source as raw bytes"). Parsing happens downstream, in the computing
// jobs (the paper's static pipeline coupled it with the adapter instead).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace idea::feed {

class FeedAdapter {
 public:
  virtual ~FeedAdapter() = default;
  /// Produces the next raw record; false at end of stream.
  virtual bool Next(std::string* out) = 0;
  /// Asks the adapter to wind down (Next drains and then returns false).
  virtual void Stop() {}
  virtual std::string Describe() const = 0;
};

/// Pull-from-callback adapter (workload generators).
class GeneratorAdapter : public FeedAdapter {
 public:
  using Generator = std::function<bool(std::string*)>;
  explicit GeneratorAdapter(Generator gen) : gen_(std::move(gen)) {}
  bool Next(std::string* out) override {
    return !stopped_.load(std::memory_order_relaxed) && gen_(out);
  }
  void Stop() override { stopped_.store(true, std::memory_order_relaxed); }
  std::string Describe() const override { return "generator_adapter"; }

 private:
  Generator gen_;
  std::atomic<bool> stopped_{false};
};

/// Replays a shared record vector; each adapter instance takes a strided
/// slice (balanced-intake mode gives every node an adapter).
class VectorSliceAdapter : public FeedAdapter {
 public:
  VectorSliceAdapter(std::shared_ptr<const std::vector<std::string>> records,
                     size_t offset, size_t stride)
      : records_(std::move(records)), pos_(offset), stride_(stride) {}
  bool Next(std::string* out) override {
    if (stopped_.load(std::memory_order_relaxed) || pos_ >= records_->size()) {
      return false;
    }
    *out = (*records_)[pos_];
    pos_ += stride_;
    return true;
  }
  void Stop() override { stopped_.store(true, std::memory_order_relaxed); }
  std::string Describe() const override { return "vector_adapter"; }

 private:
  std::shared_ptr<const std::vector<std::string>> records_;
  size_t pos_;
  size_t stride_;
  std::atomic<bool> stopped_{false};
};

/// Reads newline-delimited records from a file.
class FileAdapter : public FeedAdapter {
 public:
  static Result<std::unique_ptr<FileAdapter>> Open(const std::string& path);
  bool Next(std::string* out) override;
  void Stop() override { stopped_.store(true, std::memory_order_relaxed); }
  std::string Describe() const override { return "file_adapter(" + path_ + ")"; }

 private:
  explicit FileAdapter(std::string path) : path_(std::move(path)) {}
  std::string path_;
  std::vector<std::string> lines_;
  size_t pos_ = 0;
  std::atomic<bool> stopped_{false};
};

/// The paper's socket_adapter (Figure 4): listens on a local TCP port and
/// receives newline-delimited records. One connection at a time.
class SocketAdapter : public FeedAdapter {
 public:
  /// Binds and listens on 127.0.0.1:`port` (port 0 picks a free port, see
  /// bound_port()).
  static Result<std::unique_ptr<SocketAdapter>> Listen(int port);
  ~SocketAdapter() override;

  bool Next(std::string* out) override;
  void Stop() override;
  int bound_port() const { return port_; }
  std::string Describe() const override {
    return "socket_adapter(127.0.0.1:" + std::to_string(port_) + ")";
  }

 private:
  SocketAdapter() = default;
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  int port_ = 0;
  std::string buffer_;
  bool connection_done_ = false;
  std::atomic<bool> stopped_{false};
};

}  // namespace idea::feed
