#include "feed/feed.h"

#include <cstdlib>

#include "common/string_util.h"

namespace idea::feed {

Result<OnError> ParseOnError(const std::string& name) {
  std::string n = ToLowerAscii(name);
  for (char& c : n) {
    if (c == '_') c = '-';
  }
  if (n == "abort" || n == "fail") return OnError::kAbort;
  if (n == "skip" || n == "discard") return OnError::kSkip;
  if (n == "dead-letter" || n == "deadletter" || n == "dlq") {
    return OnError::kDeadLetter;
  }
  return Status::InvalidArgument(
      "unknown on-error policy '" + name + "' (want abort | skip | dead-letter)");
}

Result<AdapterFactory> MakeAdapterFactory(
    const std::map<std::string, std::string>& config) {
  auto get = [&](const std::string& key) -> std::string {
    auto it = config.find(key);
    return it == config.end() ? "" : it->second;
  };
  std::string adapter = ToLowerAscii(get("adapter-name"));
  if (adapter == "socket_adapter" || adapter == "socket") {
    std::string sockets = get("sockets");
    int port = 0;
    size_t colon = sockets.rfind(':');
    if (colon != std::string::npos) {
      port = std::atoi(sockets.c_str() + colon + 1);
    }
    int p = port;
    return AdapterFactory([p](size_t intake_index, size_t) -> Result<std::unique_ptr<FeedAdapter>> {
      if (intake_index != 0) {
        return Status::NotSupported(
            "socket_adapter binds a single port; use balanced_intake=false");
      }
      IDEA_ASSIGN_OR_RETURN(std::unique_ptr<SocketAdapter> s, SocketAdapter::Listen(p));
      return std::unique_ptr<FeedAdapter>(std::move(s));
    });
  }
  if (adapter == "localfs" || adapter == "file_adapter") {
    std::string path = get("path");
    return AdapterFactory([path](size_t intake_index, size_t) -> Result<std::unique_ptr<FeedAdapter>> {
      if (intake_index != 0) {
        return Status::NotSupported("file adapter runs on a single intake node");
      }
      IDEA_ASSIGN_OR_RETURN(std::unique_ptr<FileAdapter> f, FileAdapter::Open(path));
      return std::unique_ptr<FeedAdapter>(std::move(f));
    });
  }
  return Status::NotSupported("unknown adapter '" + adapter + "'");
}

AdapterFactory MakeVectorAdapterFactory(
    std::shared_ptr<const std::vector<std::string>> records) {
  return [records](size_t intake_index,
                   size_t intake_count) -> Result<std::unique_ptr<FeedAdapter>> {
    return std::unique_ptr<FeedAdapter>(
        std::make_unique<VectorSliceAdapter>(records, intake_index, intake_count));
  };
}

}  // namespace idea::feed
