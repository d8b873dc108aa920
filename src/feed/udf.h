// UDF framework: SQL++ function definitions and native ("Java"-analog) UDFs
// with explicit lifecycle — a native UDF's Initialize() loads resource files
// (Figure 7), and WHERE that initialization happens (once per pipeline vs.
// once per computing job) is precisely the static/dynamic difference the
// paper evaluates.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "sqlpp/evaluator.h"

namespace idea::feed {

/// A native UDF instance (C++ stand-in for the paper's Java UDFs).
class NativeUdf : public sqlpp::NativeFunctionHandle {
 public:
  /// Loads resources (keyword lists etc.); called once per owner lifecycle.
  virtual Status Initialize(const std::string& node_id) {
    (void)node_id;
    return Status::OK();
  }
  /// True when the UDF builds state from external resources during
  /// Initialize (paper §4.3.1).
  virtual bool stateful() const { return false; }
};

using NativeUdfFactory = std::function<std::unique_ptr<NativeUdf>()>;

/// Registry of SQL++ and native functions for one instance; doubles as the
/// evaluator's FunctionResolver.
class UdfRegistry : public sqlpp::FunctionResolver {
 public:
  Status RegisterSqlpp(sqlpp::SqlppFunctionDef def, bool or_replace);
  Status DropSqlpp(const std::string& name);
  /// `qualified`: "lib#name" or a bare name.
  Status RegisterNative(const std::string& qualified, NativeUdfFactory factory,
                        bool stateful);

  // sqlpp::FunctionResolver. FindNativeFunction returns a lazily created,
  // lazily initialized shared instance (ad-hoc query use).
  const sqlpp::SqlppFunctionDef* FindSqlppFunction(const std::string& name) const override;
  sqlpp::NativeFunctionHandle* FindNativeFunction(const std::string& qualified)
      const override;

  /// Shared (immutable) definition handle; nullptr when unknown.
  std::shared_ptr<const sqlpp::SqlppFunctionDef> FindSqlppShared(
      const std::string& name) const;

  /// Fresh native instance with controlled initialization (pipelines own and
  /// (re)initialize these explicitly).
  Result<std::unique_ptr<NativeUdf>> CreateNativeInstance(const std::string& qualified,
                                                          const std::string& node_id) const;

  bool HasNative(const std::string& qualified) const;
  bool IsNativeStateful(const std::string& qualified) const;

 private:
  struct NativeSlot {
    NativeUdfFactory factory;
    bool stateful = false;
    std::unique_ptr<NativeUdf> shared_instance;  // lazily built
    bool shared_initialized = false;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const sqlpp::SqlppFunctionDef>> sqlpp_;
  mutable std::map<std::string, NativeSlot> native_;
};

}  // namespace idea::feed
