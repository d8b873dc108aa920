#include "feed/udf.h"

namespace idea::feed {

Status UdfRegistry::RegisterSqlpp(sqlpp::SqlppFunctionDef def, bool or_replace) {
  std::lock_guard<std::mutex> lock(mu_);
  auto shared = std::make_shared<const sqlpp::SqlppFunctionDef>(std::move(def));
  auto it = sqlpp_.find(shared->name);
  if (it != sqlpp_.end()) {
    if (!or_replace) {
      return Status::AlreadyExists("function '" + shared->name + "' already exists");
    }
    it->second = std::move(shared);
    return Status::OK();
  }
  sqlpp_.emplace(shared->name, std::move(shared));
  return Status::OK();
}

Status UdfRegistry::DropSqlpp(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sqlpp_.erase(name) == 0) {
    return Status::NotFound("unknown function '" + name + "'");
  }
  return Status::OK();
}

Status UdfRegistry::RegisterNative(const std::string& qualified, NativeUdfFactory factory,
                                   bool stateful) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = native_.find(qualified);
  if (it != native_.end()) {
    return Status::AlreadyExists("native function '" + qualified + "' already exists");
  }
  NativeSlot slot;
  slot.factory = std::move(factory);
  slot.stateful = stateful;
  native_.emplace(qualified, std::move(slot));
  return Status::OK();
}

const sqlpp::SqlppFunctionDef* UdfRegistry::FindSqlppFunction(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sqlpp_.find(name);
  return it == sqlpp_.end() ? nullptr : it->second.get();
}

sqlpp::NativeFunctionHandle* UdfRegistry::FindNativeFunction(
    const std::string& qualified) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = native_.find(qualified);
  if (it == native_.end()) return nullptr;
  NativeSlot& slot = it->second;
  if (slot.shared_instance == nullptr) {
    slot.shared_instance = slot.factory();
    if (slot.shared_instance == nullptr) return nullptr;
  }
  if (!slot.shared_initialized) {
    if (!slot.shared_instance->Initialize("adhoc").ok()) return nullptr;
    slot.shared_initialized = true;
  }
  return slot.shared_instance.get();
}

std::shared_ptr<const sqlpp::SqlppFunctionDef> UdfRegistry::FindSqlppShared(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sqlpp_.find(name);
  return it == sqlpp_.end() ? nullptr : it->second;
}

Result<std::unique_ptr<NativeUdf>> UdfRegistry::CreateNativeInstance(
    const std::string& qualified, const std::string& node_id) const {
  NativeUdfFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = native_.find(qualified);
    if (it == native_.end()) {
      return Status::NotFound("unknown native function '" + qualified + "'");
    }
    factory = it->second.factory;
  }
  std::unique_ptr<NativeUdf> instance = factory();
  if (instance == nullptr) {
    return Status::Internal("native function factory for '" + qualified +
                            "' returned null");
  }
  IDEA_RETURN_NOT_OK(instance->Initialize(node_id));
  return instance;
}

bool UdfRegistry::HasNative(const std::string& qualified) const {
  std::lock_guard<std::mutex> lock(mu_);
  return native_.count(qualified) > 0;
}

bool UdfRegistry::IsNativeStateful(const std::string& qualified) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = native_.find(qualified);
  return it != native_.end() && it->second.stateful;
}

}  // namespace idea::feed
