#include "feed/adapter.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <fstream>

namespace idea::feed {

Result<std::unique_ptr<FileAdapter>> FileAdapter::Open(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Status::NotFound("cannot open feed file '" + path + "'");
  auto adapter = std::unique_ptr<FileAdapter>(new FileAdapter(path));
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) adapter->lines_.push_back(line);
  }
  return adapter;
}

bool FileAdapter::Next(std::string* out) {
  if (stopped_.load(std::memory_order_relaxed) || pos_ >= lines_.size()) return false;
  *out = lines_[pos_++];
  return true;
}

Result<std::unique_ptr<SocketAdapter>> SocketAdapter::Listen(int port) {
  auto adapter = std::unique_ptr<SocketAdapter>(new SocketAdapter());
  adapter->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (adapter->listen_fd_ < 0) {
    return Status::Internal("socket() failed: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(adapter->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(adapter->listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Status::Internal("bind() failed: " + std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(adapter->listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  adapter->port_ = ntohs(addr.sin_port);
  if (::listen(adapter->listen_fd_, 1) < 0) {
    return Status::Internal("listen() failed: " + std::string(std::strerror(errno)));
  }
  return adapter;
}

SocketAdapter::~SocketAdapter() {
  Stop();
  if (conn_fd_ >= 0) ::close(conn_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool SocketAdapter::Next(std::string* out) {
  while (!stopped_.load(std::memory_order_acquire)) {
    // Serve a buffered line if we have one.
    size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      *out = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (out->empty()) continue;
      return true;
    }
    if (conn_fd_ < 0) {
      if (connection_done_) return false;  // one connection per feed run
      conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
      if (conn_fd_ < 0) return false;  // listener closed by Stop()
    }
    char chunk[4096];
    ssize_t n = ::read(conn_fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      // Connection closed: flush any final unterminated record.
      ::close(conn_fd_);
      conn_fd_ = -1;
      connection_done_ = true;
      if (!buffer_.empty()) {
        *out = std::move(buffer_);
        buffer_.clear();
        return true;
      }
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  return false;
}

void SocketAdapter::Stop() {
  bool was = stopped_.exchange(true, std::memory_order_acq_rel);
  if (was) return;
  // Shut down sockets to unblock accept()/read().
  if (conn_fd_ >= 0) ::shutdown(conn_fd_, SHUT_RDWR);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

}  // namespace idea::feed
