// Tree-walking evaluator for the SQL++ subset, with pluggable dataset access
// paths. This is the engine behind UDF evaluation in computing jobs, INSERT
// ... SELECT statements, and ad-hoc analytical queries.
//
// Correlated reference-data subqueries inside enrichment UDFs are the hot
// path; the EnrichmentPlan (sqlpp/enrichment_plan.h) analyzes them and
// registers per-FROM-clause access paths (hash build+probe, B-tree / R-tree
// index nested loop) that this evaluator consults, falling back to snapshot
// scans. The WHERE predicate is always re-evaluated residually, so access
// paths only need to produce a candidate superset.
//
// Record-path performance: expressions that resolve to existing storage
// (variables, field/index chains, literals) evaluate through EvalRef, which
// returns borrowed pointers instead of deep-copying Value trees; comparisons,
// arithmetic, probe keys, and `alias.*` projections all go through it. UDF
// argument vectors and FROM candidate lists come from per-Evaluator pools
// (optionally backed by a batch adm::Arena via BeginBatch/EndBatch), and
// field accesses memoize the field's position per AST node, verified by name
// before use. All of this is allocation plumbing: results are bit-identical
// to naive recursive evaluation.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "adm/arena.h"
#include "adm/value.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "sqlpp/ast.h"

namespace idea::sqlpp {

/// Immutable snapshot of a dataset's records.
using Snapshot = std::shared_ptr<const std::vector<adm::Value>>;

/// Borrowed view over evaluated UDF arguments. Arguments outlive the call
/// they are passed to; callees must copy anything they retain.
using ArgView = std::span<const adm::Value>;

/// Probe interface over a secondary index (implemented by storage).
class IndexProbe {
 public:
  enum class Kind : uint8_t { kEquality, kSpatial };
  virtual ~IndexProbe() = default;
  virtual Kind kind() const = 0;
  /// Equality probe: appends records whose indexed field equals `key`.
  virtual Status ProbeEquals(const adm::Value& key, std::vector<adm::Value>* out) const {
    (void)key, (void)out;
    return Status::NotSupported("equality probe");
  }
  /// Spatial probe: appends records whose indexed geometry MBR-intersects
  /// `query` (callers re-check the exact predicate).
  virtual Status ProbeMbr(const adm::Rectangle& query,
                          std::vector<adm::Value>* out) const {
    (void)query, (void)out;
    return Status::NotSupported("spatial probe");
  }
};

/// One committed dataset mutation, as replayed into cached enrichment state
/// (inserts and updates are both upserts; consumers replace by primary key).
struct DatasetChange {
  bool tombstone = false;  // delete
  adm::Value key;          // primary key
  adm::Value record;       // full stored record; missing for deletes
};

/// Resolves dataset names to snapshots and (optionally) live index probes.
/// Implementations decide snapshot caching policy: the enrichment pipeline
/// refreshes snapshots once per computing job, which is exactly the paper's
/// batch-consistency model.
///
/// Accessors backed by a versioned store additionally expose a monotonic
/// per-dataset mutation sequence plus a bounded change feed, which lets
/// EnrichmentPlan keep its hash builds / snapshots across computing-job
/// invocations and refresh them from the delta instead of rebuilding. The
/// defaults report "unversioned", which disables delta refresh (every
/// Initialize() falls back to a full rebuild — the pre-incremental behaviour).
class DatasetAccessor {
 public:
  /// Sentinel sequence meaning "this accessor cannot version the dataset".
  static constexpr uint64_t kUnversioned = ~0ull;

  struct VersionedSnapshot {
    Snapshot snapshot;
    uint64_t seq = kUnversioned;  // sequence the snapshot is current through
  };

  virtual ~DatasetAccessor() = default;
  virtual bool HasDataset(const std::string& dataset) const = 0;
  virtual Result<Snapshot> GetSnapshot(const std::string& dataset) = 0;
  /// Snapshot plus the mutation sequence it is current through (kUnversioned
  /// when the accessor cannot version the dataset).
  virtual Result<VersionedSnapshot> GetVersionedSnapshot(const std::string& dataset) {
    IDEA_ASSIGN_OR_RETURN(Snapshot snap, GetSnapshot(dataset));
    return VersionedSnapshot{std::move(snap), kUnversioned};
  }
  /// Current mutation sequence of the dataset; kUnversioned when unsupported.
  /// Epoch-caching accessors pin the first read per epoch so every access
  /// path of a computing-job invocation refreshes to the same version.
  virtual uint64_t CurrentSeq(const std::string& dataset) {
    (void)dataset;
    return kUnversioned;
  }
  /// Appends the committed changes with sequence in (from_seq, to_seq],
  /// oldest first. Fails with ResourceExhausted when the underlying changelog no
  /// longer covers from_seq — callers must then rebuild from a full snapshot.
  virtual Status ScanDelta(const std::string& dataset, uint64_t from_seq,
                           uint64_t to_seq, std::vector<DatasetChange>* out) {
    (void)dataset, (void)from_seq, (void)to_seq, (void)out;
    return Status::NotSupported("dataset deltas");
  }
  /// Primary-key field of the dataset ("" when unknown; delta refresh needs
  /// it to key cached records).
  virtual std::string PrimaryKeyField(const std::string& dataset) const {
    (void)dataset;
    return "";
  }
  /// Live (non-snapshot) index probe; nullptr when no index exists on the
  /// field. Probing a live index observes concurrent updates mid-evaluation —
  /// the behaviour the paper measures for index nested-loop enrichment.
  virtual std::shared_ptr<IndexProbe> GetIndexProbe(const std::string& dataset,
                                                    const std::string& field) {
    (void)dataset, (void)field;
    return nullptr;
  }
};

/// An instantiated native ("Java") UDF ready to evaluate.
class NativeFunctionHandle {
 public:
  virtual ~NativeFunctionHandle() = default;
  /// `args` is a borrowed view; copy anything retained past the call.
  virtual Result<adm::Value> Evaluate(ArgView args) = 0;
};

/// A declared SQL++ function.
struct SqlppFunctionDef {
  std::string name;
  std::vector<std::string> params;
  std::shared_ptr<const SelectStatement> body;
};

/// Resolves user-defined functions by name.
class FunctionResolver {
 public:
  virtual ~FunctionResolver() = default;
  virtual const SqlppFunctionDef* FindSqlppFunction(const std::string& name) const = 0;
  /// `qualified` is "lib#name" for library functions or a bare name.
  virtual NativeFunctionHandle* FindNativeFunction(const std::string& qualified) const = 0;
};

class Evaluator;
class Env;

/// Candidate producer for one FROM clause, installed by the planner. The
/// returned pointers stay valid until the next GetCandidates call on the same
/// access path (single-threaded use per Evaluator).
class FromAccessPath {
 public:
  virtual ~FromAccessPath() = default;
  virtual Status GetCandidates(Evaluator* ev, Env* env,
                               std::vector<const adm::Value*>* out) = 0;
  /// A WHERE conjunct that is guaranteed true for every candidate this path
  /// emits (e.g. the equality a hash build+probe or a B-tree index probe
  /// selected candidates by), or
  /// nullptr. The evaluator skips re-evaluating it in the residual predicate.
  /// Only valid for paths whose candidate selection is exactly the conjunct's
  /// semantics — a superset prefilter (spatial MBR) must return nullptr.
  virtual const Expr* SatisfiedConjunct() const { return nullptr; }
  virtual std::string Describe() const = 0;
};

using AccessPathMap = std::unordered_map<const FromClause*, FromAccessPath*>;

/// Lexically scoped variable bindings. Bindings are borrowed pointers; names
/// are borrowed views into storage that outlives the scope (AST nodes,
/// function registries, materialized tuples). A handful of inline slots keeps
/// the common tuple scope malloc-free; BindOwned / Park lazily allocate a
/// value arena only for scopes that own temporaries.
class Env {
 public:
  explicit Env(const Env* parent = nullptr) : parent_(parent) {}
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  void Bind(std::string_view name, const adm::Value* v) {
    if (inline_count_ < kInlineSlots) {
      inline_[inline_count_++] = Slot{name, v};
      return;
    }
    overflow_.push_back(Slot{name, v});
  }
  const adm::Value* BindOwned(std::string_view name, adm::Value v) {
    const adm::Value* p = Park(std::move(v));
    Bind(name, p);
    return p;
  }
  /// Parks a temporary in the scope's arena without binding a name (e.g. a
  /// FROM-expression collection that is iterated in place).
  const adm::Value* Park(adm::Value v) {
    if (arena_ == nullptr) arena_ = std::make_unique<std::deque<adm::Value>>();
    arena_->push_back(std::move(v));
    return &arena_->back();
  }
  /// Innermost binding wins; nullptr when unbound.
  const adm::Value* Lookup(std::string_view name) const {
    for (const Env* e = this; e != nullptr; e = e->parent_) {
      for (size_t i = e->overflow_.size(); i-- > 0;) {
        if (e->overflow_[i].name == name) return e->overflow_[i].value;
      }
      for (size_t i = e->inline_count_; i-- > 0;) {
        if (e->inline_[i].name == name) return e->inline_[i].value;
      }
    }
    return nullptr;
  }

 private:
  struct Slot {
    std::string_view name;
    const adm::Value* value = nullptr;
  };
  static constexpr size_t kInlineSlots = 4;

  const Env* parent_;
  size_t inline_count_ = 0;
  std::array<Slot, kInlineSlots> inline_;
  std::vector<Slot> overflow_;
  std::unique_ptr<std::deque<adm::Value>> arena_;
};

/// Evaluation statistics (exposed for tests and plan diagnostics).
struct EvalStats {
  uint64_t tuples_scanned = 0;
  uint64_t index_probes = 0;
  uint64_t access_path_candidates = 0;
  uint64_t udf_calls = 0;
};

/// Optional registry sink mirroring EvalStats. Null pointers disable the
/// corresponding metric; the planner points these at idea.eval.<udf>.* so
/// evaluation cost is attributable per UDF across invocations.
struct EvalMetrics {
  obs::Counter* tuples_scanned = nullptr;
  obs::Counter* index_probes = nullptr;
  obs::Counter* ref_candidates = nullptr;  // access-path candidate records
  obs::Counter* udf_calls = nullptr;
  obs::Histogram* udf_eval_us = nullptr;  // per CallSqlppFunction body
};

struct EvalContext {
  DatasetAccessor* datasets = nullptr;
  const FunctionResolver* functions = nullptr;
  const AccessPathMap* access_paths = nullptr;
  EvalMetrics metrics;
  int max_recursion_depth = 24;
};

class Evaluator {
 public:
  explicit Evaluator(EvalContext ctx) : ctx_(ctx) {}

  /// Evaluates an expression under the given environment.
  Result<adm::Value> Eval(const Expr& e, Env* env);

  /// Pointer-returning fast path: variable references, field/index chains,
  /// and literals resolve to existing storage without copying; any other
  /// expression is materialized into `*scratch`. The returned pointer stays
  /// valid until `*scratch` is next written or the referenced env/storage
  /// dies, whichever comes first.
  Result<const adm::Value*> EvalRef(const Expr& e, Env* env, adm::Value* scratch);

  /// Evaluates a query block; returns the output rows.
  Result<adm::Array> EvalQuery(const SelectStatement& q, Env* env);

  /// Invokes a SQL++ UDF (binds parameters, evaluates the body). Returns the
  /// collection produced by the body's SELECT. `args` is borrowed and must
  /// outlive the call.
  Result<adm::Value> CallSqlppFunction(const SqlppFunctionDef& def, ArgView args,
                                       Env* env);

  /// Batch scope: while active, pooled evaluation scratch (argument vectors,
  /// aggregate item lists) is drawn from `arena` so a whole frame's worth of
  /// records shares one warmed-up allocation pool. Purely a lifetime
  /// optimization — results are bit-identical with or without a batch scope.
  void BeginBatch(adm::Arena* arena) { batch_arena_ = arena; }
  void EndBatch() { batch_arena_ = nullptr; }

  const EvalContext& context() const { return ctx_; }
  EvalStats& stats() { return stats_; }

 private:
  struct MaterializedTuple {
    std::vector<std::pair<std::string, adm::Value>> bindings;
  };
  struct GroupContext {
    const std::vector<GroupKey>* keys = nullptr;
    const std::vector<adm::Value>* key_values = nullptr;
    const std::vector<MaterializedTuple>* members = nullptr;
    const Env* base_env = nullptr;
  };

  Result<adm::Value> EvalBinary(const Expr& e, Env* env);
  Result<adm::Value> EvalFunctionCall(const Expr& e, Env* env);
  Result<adm::Value> EvalCase(const Expr& e, Env* env);
  Result<adm::Value> EvalIn(const Expr& e, Env* env);

  /// Streams joined tuples of the FROM clause through `emit`. Collects the
  /// variable names bound per tuple into `var_names` on the first tuple.
  Status ProduceTuples(const SelectStatement& q, Env* env,
                       const std::function<Status(Env*)>& emit);
  Status FromItemLoop(const SelectStatement& q, size_t item, Env* env,
                      const std::function<Status(Env*)>& emit);

  /// Evaluates WHERE + post-FROM LETs for the current tuple env; emits
  /// downstream when the predicate passes.
  Status EvalSelectOutput(const SelectStatement& q, Env* env, adm::Array* out);

  Result<adm::Value> EvalAggregateCall(const Expr& e, Env* env);

  /// Streaming fast path for implicit single-group aggregation (every output
  /// is exactly one aggregate call, no GROUP BY / HAVING / ORDER BY): folds
  /// aggregate arguments tuple-by-tuple instead of materializing the group's
  /// member tuples. Returns true and fills `out` when the shape applies.
  Result<bool> TryStreamingAggregate(const SelectStatement& q, Env* block_env,
                                     adm::Array* out);

  /// Top-level field lookup with a per-AST-node position memo; the memo is a
  /// hint verified against the field name, so stale entries only cost the
  /// fallback linear scan.
  const adm::Value* FindField(const adm::Value& obj, const Expr& e);

  /// Names every variable a tuple of `q` binds (FROM aliases + LETs).
  static std::vector<std::string> TupleVarNames(const SelectStatement& q);

  /// Loop-invariant WHERE hoisting: before a FROM item's candidate loop,
  /// function-call subexpressions of the WHERE clause that mention no FROM
  /// alias and no post-FROM LET are evaluated once against the outer env and
  /// pinned by AST node; EvalFunctionCall answers them from the pin for every
  /// candidate. Bit-identical: the pinned value is exactly what per-candidate
  /// evaluation would produce (its free variables only bind outer names), and
  /// an evaluation error here leaves the node unpinned so the per-candidate
  /// path surfaces (or short-circuits past) it as before.
  void PinInvariantWhereSubexprs(const SelectStatement& q, Env* env);
  struct PinnedExpr {
    const Expr* expr = nullptr;
    int depth = 0;  // UDF recursion depth: a recursive re-entry of the same
                    // body must not see the outer call's pins
    adm::Value value;
  };
  struct PinScope {
    Evaluator* ev;
    size_t mark;
    ~PinScope() { ev->pinned_.resize(mark); }
  };

  /// Residual-WHERE evaluation that treats access-path-satisfied conjuncts
  /// (see FromAccessPath::SatisfiedConjunct) as already-true. AND nodes are
  /// decomposed with the exact short-circuit/unknown/type semantics of
  /// EvalBinary so the result is bit-identical to a plain Eval of the WHERE.
  Result<adm::Value> EvalWhereResidual(const Expr& e, Env* env);
  struct SatisfiedConjunct {
    const Expr* expr = nullptr;
    int depth = 0;  // same re-entrancy guard as PinnedExpr::depth
  };
  struct SatisfiedScope {
    Evaluator* ev;
    size_t mark;
    ~SatisfiedScope() { ev->satisfied_.resize(mark); }
  };

  // Pooled scratch vectors, LIFO by recursion depth (deques keep addresses
  // stable while nested calls grow the pool). When a batch arena is armed,
  // argument vectors come from it instead.
  std::vector<adm::Value>* AcquireValueVec();
  void ReleaseValueVec(std::vector<adm::Value>* v);
  std::vector<const adm::Value*>* AcquireCandidateVec();
  void ReleaseCandidateVec();

  // RAII so pooled scratch is returned on every exit path.
  struct ValueVecLease {
    Evaluator* ev;
    std::vector<adm::Value>* vec;
    ~ValueVecLease() { ev->ReleaseValueVec(vec); }
  };
  struct CandidateVecLease {
    Evaluator* ev;
    ~CandidateVecLease() { ev->ReleaseCandidateVec(); }
  };

  void CountScannedTuple() {
    ++stats_.tuples_scanned;
    if (ctx_.metrics.tuples_scanned != nullptr) ctx_.metrics.tuples_scanned->Increment();
  }

  EvalContext ctx_;
  EvalStats stats_;
  std::vector<GroupContext> group_stack_;
  int depth_ = 0;

  adm::Arena* batch_arena_ = nullptr;
  std::deque<std::vector<adm::Value>> value_vec_pool_;
  size_t value_vec_depth_ = 0;
  std::deque<std::vector<const adm::Value*>> candidate_pool_;
  size_t candidate_depth_ = 0;
  std::vector<std::pair<const Expr*, uint32_t>> field_pos_;  // field-position memo
  std::vector<PinnedExpr> pinned_;  // candidate-loop invariants (stack)
  std::vector<SatisfiedConjunct> satisfied_;  // path-guaranteed WHERE conjuncts
  // Per-query hoistability analysis, computed once per SelectStatement.
  std::unordered_map<const SelectStatement*, std::vector<const Expr*>> hoistable_;
};

/// True when the expression tree contains an aggregate function call
/// (not descending into subqueries).
bool ContainsAggregate(const Expr& e);

}  // namespace idea::sqlpp
