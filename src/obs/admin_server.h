#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"

namespace idea::obs {

struct HttpRequest {
  std::string method;
  std::string path;   ///< Decoded path without the query string.
  std::string query;  ///< Raw query string ("" when absent).
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct AdminServerOptions {
  /// Bind address. Loopback by default: the admin plane is an operator
  /// endpoint, not a public API.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
};

/// Embedded HTTP/1.1 admin server: plain POSIX sockets, a tiny GET-only
/// parser, and a route table filled in by the owner (Instance registers
/// /healthz, /metrics, /metrics.prom, /traces, /feeds, /flightrecorder).
/// One accept thread handles connections serially — admin traffic is a
/// human or a scraper, not a workload.
class AdminServer {
 public:
  explicit AdminServer(AdminServerOptions options = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers (or replaces) the handler for an exact path.
  void Handle(const std::string& path, HttpHandler handler);

  /// Binds, listens, and starts the accept thread. Idempotent.
  Status Start();
  /// Stops the accept thread and closes the listening socket. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound port (resolves port 0 to the kernel-assigned port); 0 if not
  /// running.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }
  const std::string& host() const { return options_.host; }
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  AdminServerOptions options_;

  mutable std::mutex handlers_mu_;
  std::map<std::string, HttpHandler> handlers_;

  std::mutex lifecycle_mu_;
  std::thread thread_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<uint16_t> port_{0};
  std::atomic<uint64_t> requests_{0};
};

/// Test/bench helper: blocking HTTP GET against a local AdminServer. Returns
/// the response body on 200, an error Status otherwise (the message carries
/// the HTTP status line for non-200s).
Result<std::string> HttpGet(const std::string& host, uint16_t port,
                            const std::string& path);

}  // namespace idea::obs
