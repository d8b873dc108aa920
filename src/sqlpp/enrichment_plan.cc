#include "sqlpp/enrichment_plan.h"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

#include "adm/spatial.h"
#include "common/string_util.h"
#include "common/virtual_clock.h"

namespace idea::sqlpp {

using adm::Value;

const char* AccessPathKindName(AccessPathKind k) {
  switch (k) {
    case AccessPathKind::kHashBuildProbe:
      return "hash-build-probe";
    case AccessPathKind::kIndexNestedLoopEq:
      return "index-nested-loop(btree)";
    case AccessPathKind::kIndexNestedLoopSpatial:
      return "index-nested-loop(rtree)";
    case AccessPathKind::kScan:
      return "scan(nested-loop)";
  }
  return "?";
}

/// Concrete per-FROM-item access path; doubles as the evaluator hook.
///
/// Intermediate state (the Model-2 "snapshot" / hash build) is cached across
/// Initialize() calls. In versioned mode records live in `by_pk`, a map keyed
/// by the reference dataset's primary key: map nodes have stable addresses,
/// so hash entries and emitted candidate pointers survive delta upserts and
/// deletes of *other* keys, and key-ordered iteration reproduces exactly the
/// record order of a full LSM scan (both sort by adm::Value's total order) —
/// which is what keeps delta-refreshed results bit-identical to a rebuild.
/// Unversioned accessors keep the original shared-snapshot representation
/// and always rebuild.
struct EnrichmentPlan::PathImpl : public FromAccessPath {
  AccessPathKind kind = AccessPathKind::kScan;
  const FromClause* from = nullptr;
  std::string dataset;
  std::string ref_field;             // key/geometry field of the reference dataset
  const Expr* probe_expr = nullptr;  // borrowed from the plan-owned body AST
  /// The WHERE equality conjunct a hash build+probe or a B-tree index probe
  /// selects candidates by. Candidate selection (Value::Compare on a
  /// non-unknown probe key against build keys, or index keys, that skip
  /// unknowns) is exactly the conjunct's `=` semantics, so the evaluator may
  /// treat it as true for every emitted candidate.
  const Expr* satisfied_conjunct = nullptr;
  /// Spatial probes matched from spatial_intersect(create_circle(ref.field, R),
  /// <outer>) expand the outer geometry's MBR by R before the R-tree search.
  double mbr_expand = 0;
  DatasetAccessor* datasets = nullptr;
  PlanStats* stats = nullptr;
  const PlanConfig* config = nullptr;

  /// One hash-table slot: the build-side key, the owning record, and (in
  /// versioned mode) its primary key, which orders entries within a bucket so
  /// delta-applied buckets match the pk-ordered full build.
  struct HashEntry {
    Value key;
    const Value* pk;  // nullptr in unversioned (snapshot) mode
    const Value* rec;
  };

  // Cached intermediate state (survives across Initialize() calls).
  Snapshot snapshot;             // unversioned mode: shared epoch snapshot
  std::map<Value, Value> by_pk;  // versioned mode: records keyed by primary key
  std::unordered_map<uint64_t, std::vector<HashEntry>> hash;
  bool versioned = false;
  uint64_t base_seq = DatasetAccessor::kUnversioned;  // state current through
  std::string pk_field;
  std::shared_ptr<IndexProbe> index;
  std::vector<Value> scratch;  // owns index-probe results between calls

  /// Delta-aware probe memo (index nested loops only). Keyed by the probe key
  /// (B-tree) or the expanded query MBR (R-tree); entries own deep copies of
  /// the live-probe results. Validity is tied to the reference dataset's
  /// mutation sequence: every GetCandidates compares CurrentSeq against the
  /// memo's sequence and drops the memo when it moved, so a hit is
  /// bit-identical to the live probe it replaced (paper §7.3's mid-job update
  /// visibility is preserved). Unversioned accessors disable the memo —
  /// without a sequence there is no way to observe invalidation.
  struct ProbeCacheEntry {
    Value key;
    std::vector<Value> records;
  };
  std::unordered_map<uint64_t, std::vector<ProbeCacheEntry>> probe_cache;
  uint64_t probe_cache_seq = DatasetAccessor::kUnversioned;
  size_t probe_cache_bytes = 0;

  void DropProbeCache() {
    probe_cache.clear();
    probe_cache_bytes = 0;
    probe_cache_seq = DatasetAccessor::kUnversioned;
  }

  /// True when the memo may serve/accept entries at the dataset's current
  /// sequence (dropping any entries from an older one).
  bool ProbeCacheReady() {
    if (!config->enable_probe_cache) return false;
    uint64_t cur = datasets->CurrentSeq(dataset);
    if (cur == DatasetAccessor::kUnversioned) {
      if (!probe_cache.empty()) DropProbeCache();
      return false;
    }
    if (cur != probe_cache_seq) {
      DropProbeCache();
      probe_cache_seq = cur;
    }
    return true;
  }

  /// Memoized results for `key`, or nullptr on miss. The returned records
  /// have stable addresses: bucket growth and map rehash move the entry
  /// objects but not the vectors' element storage.
  const std::vector<Value>* ProbeCacheLookup(const Value& key) const {
    auto it = probe_cache.find(Value::Hash(key));
    if (it == probe_cache.end()) return nullptr;
    for (const ProbeCacheEntry& e : it->second) {
      if (Value::Compare(e.key, key) == 0) return &e.records;
    }
    return nullptr;
  }

  /// Memoizes one probe's results; a no-op once the byte budget is reached
  /// (under skew the hot keys are cached first, which is where the win is).
  void ProbeCacheInsert(const Value& key, const std::vector<Value>& records) {
    size_t bytes = key.EstimateSize() + 48;
    for (const Value& r : records) bytes += r.EstimateSize();
    if (probe_cache_bytes + bytes > config->probe_cache_max_bytes) return;
    probe_cache_bytes += bytes;
    probe_cache[Value::Hash(key)].push_back(ProbeCacheEntry{key, records});
  }

  void InsertHashEntry(const Value& pk, const Value& rec) {
    const Value& key = rec.GetFieldOrMissing(ref_field);
    if (key.IsUnknown()) return;
    std::vector<HashEntry>& bucket = hash[Value::Hash(key)];
    auto pos = bucket.begin();
    while (pos != bucket.end() && Value::Compare(*pos->pk, pk) < 0) ++pos;
    bucket.insert(pos, HashEntry{key, &pk, &rec});
  }

  void RemoveHashEntry(const Value& pk, const Value& rec) {
    const Value& key = rec.GetFieldOrMissing(ref_field);
    if (key.IsUnknown()) return;
    auto it = hash.find(Value::Hash(key));
    if (it == hash.end()) return;
    std::vector<HashEntry>& bucket = it->second;
    for (auto e = bucket.begin(); e != bucket.end(); ++e) {
      if (e->pk != nullptr && Value::Compare(*e->pk, pk) == 0) {
        bucket.erase(e);
        break;
      }
    }
    if (bucket.empty()) hash.erase(it);
  }

  Status FullRebuild() {
    hash.clear();
    snapshot.reset();
    by_pk.clear();
    versioned = false;
    base_seq = DatasetAccessor::kUnversioned;
    IDEA_ASSIGN_OR_RETURN(DatasetAccessor::VersionedSnapshot vs,
                          datasets->GetVersionedSnapshot(dataset));
    pk_field = datasets->PrimaryKeyField(dataset);
    if (config->enable_delta_refresh && vs.seq != DatasetAccessor::kUnversioned &&
        !pk_field.empty()) {
      versioned = true;
      for (const Value& rec : *vs.snapshot) {
        const Value* pk = rec.GetField(pk_field);
        if (pk == nullptr || pk->IsUnknown()) {
          versioned = false;  // un-keyable record: revert to snapshot mode
          by_pk.clear();
          break;
        }
        by_pk.emplace(*pk, rec);
      }
      if (versioned) base_seq = vs.seq;
    }
    if (!versioned) snapshot = std::move(vs.snapshot);
    if (kind == AccessPathKind::kHashBuildProbe) {
      if (versioned) {
        // pk-ascending iteration appends in bucket order == full-scan order.
        for (const auto& [pk, rec] : by_pk) InsertHashEntry(pk, rec);
      } else {
        for (const Value& rec : *snapshot) {
          const Value& key = rec.GetFieldOrMissing(ref_field);
          if (key.IsUnknown()) continue;
          hash[Value::Hash(key)].push_back(HashEntry{key, nullptr, &rec});
        }
      }
    }
    return Status::OK();
  }

  /// Replays one committed mutation into the cached state. Upserts replace in
  /// place (map-node address survives, so live hash entries of other records
  /// stay valid); hash entries of the touched record are re-keyed.
  void ApplyChange(DatasetChange change) {
    const bool is_hash = kind == AccessPathKind::kHashBuildProbe;
    auto it = by_pk.find(change.key);
    if (change.tombstone) {
      if (it == by_pk.end()) return;  // delete already reflected in the base
      if (is_hash) RemoveHashEntry(it->first, it->second);
      by_pk.erase(it);
      return;
    }
    if (it != by_pk.end()) {
      if (is_hash) RemoveHashEntry(it->first, it->second);
      it->second = std::move(change.record);
      if (is_hash) InsertHashEntry(it->first, it->second);
    } else {
      auto [nit, inserted] = by_pk.emplace(std::move(change.key), std::move(change.record));
      (void)inserted;
      if (is_hash) InsertHashEntry(nit->first, nit->second);
    }
  }

  /// The three-way refresh (paper update-sensitivity preserved in all cases):
  /// no-op when the reference sequence is unchanged, delta apply when the
  /// changelog covers the gap and the delta is small, full rebuild otherwise.
  Result<RefreshKind> Refresh() {
    if (kind == AccessPathKind::kIndexNestedLoopEq ||
        kind == AccessPathKind::kIndexNestedLoopSpatial) {
      // Index nested loops probe the live index; there is no cached state to
      // refresh, only the (O(1)) re-resolution of the probe handle. The probe
      // memo is per-invocation: drop it here rather than trusting a sequence
      // across a handle re-resolution (a dropped-and-recreated dataset could
      // reuse a sequence number).
      DropProbeCache();
      index = datasets->GetIndexProbe(dataset, ref_field);
      if (index == nullptr) {
        return Status::Internal("planned index on " + dataset + "." + ref_field +
                                " disappeared");
      }
      return RefreshKind::kNoop;
    }
    if (config->enable_delta_refresh && versioned) {
      uint64_t cur = datasets->CurrentSeq(dataset);
      if (cur == base_seq) return RefreshKind::kNoop;
      if (cur != DatasetAccessor::kUnversioned && cur > base_seq) {
        std::vector<DatasetChange> changes;
        Status st = datasets->ScanDelta(dataset, base_seq, cur, &changes);
        size_t fit = std::max<size_t>(
            64, static_cast<size_t>(static_cast<double>(by_pk.size()) *
                                    config->max_delta_fraction));
        if (st.ok() && changes.size() <= fit) {
          for (DatasetChange& c : changes) ApplyChange(std::move(c));
          base_seq = cur;
          stats->delta_records_applied += changes.size();
          return RefreshKind::kDelta;
        }
        // Wrapped changelog ring or oversized delta: fall through to rebuild.
      }
      // cur < base_seq means the dataset was dropped and re-created: rebuild.
    }
    IDEA_RETURN_NOT_OK(FullRebuild());
    return RefreshKind::kFull;
  }

  /// One index probe = three accounting sinks (plan stats, evaluator stats,
  /// the idea.eval.<udf>.index_probes counter); bump them together so no
  /// access path can miss one.
  void CountIndexProbe(Evaluator* ev) {
    ++stats->index_probes;
    ++ev->stats().index_probes;
    if (ev->context().metrics.index_probes != nullptr) {
      ev->context().metrics.index_probes->Increment();
    }
  }

  Status GetCandidates(Evaluator* ev, Env* env,
                       std::vector<const Value*>* out) override {
    switch (kind) {
      case AccessPathKind::kScan: {
        if (versioned) {
          // pk-ordered iteration == full-scan record order (bit-identical).
          out->reserve(out->size() + by_pk.size());
          for (const auto& [pk, rec] : by_pk) out->push_back(&rec);
        } else {
          out->reserve(out->size() + snapshot->size());
          for (const Value& rec : *snapshot) out->push_back(&rec);
        }
        return Status::OK();
      }
      case AccessPathKind::kHashBuildProbe: {
        Value key_scratch;
        IDEA_ASSIGN_OR_RETURN(const Value* key,
                              ev->EvalRef(*probe_expr, env, &key_scratch));
        if (key->IsUnknown()) return Status::OK();
        auto it = hash.find(Value::Hash(*key));
        if (it == hash.end()) return Status::OK();
        for (const HashEntry& e : it->second) {
          if (Value::Compare(e.key, *key) == 0) out->push_back(e.rec);
        }
        return Status::OK();
      }
      case AccessPathKind::kIndexNestedLoopEq: {
        Value key_scratch;
        IDEA_ASSIGN_OR_RETURN(const Value* key,
                              ev->EvalRef(*probe_expr, env, &key_scratch));
        if (key->IsUnknown()) return Status::OK();
        const bool memo = ProbeCacheReady();
        if (memo) {
          if (const std::vector<Value>* hit = ProbeCacheLookup(*key)) {
            ++stats->probe_cache_hits;
            out->reserve(out->size() + hit->size());
            for (const Value& rec : *hit) out->push_back(&rec);
            return Status::OK();
          }
        }
        scratch.clear();
        IDEA_RETURN_NOT_OK(index->ProbeEquals(*key, &scratch));
        CountIndexProbe(ev);
        if (memo) {
          ++stats->probe_cache_misses;
          ProbeCacheInsert(*key, scratch);
        }
        for (const Value& rec : scratch) out->push_back(&rec);
        return Status::OK();
      }
      case AccessPathKind::kIndexNestedLoopSpatial: {
        Value geom_scratch;
        IDEA_ASSIGN_OR_RETURN(const Value* geom,
                              ev->EvalRef(*probe_expr, env, &geom_scratch));
        adm::Rectangle mbr;
        if (!adm::ValueMbr(*geom, &mbr)) return Status::OK();
        if (mbr_expand > 0) {
          mbr.lo.x -= mbr_expand;
          mbr.lo.y -= mbr_expand;
          mbr.hi.x += mbr_expand;
          mbr.hi.y += mbr_expand;
        }
        const bool memo = ProbeCacheReady();
        Value mbr_key;
        if (memo) {
          mbr_key = Value::MakeRectangle(mbr);
          if (const std::vector<Value>* hit = ProbeCacheLookup(mbr_key)) {
            ++stats->probe_cache_hits;
            out->reserve(out->size() + hit->size());
            for (const Value& rec : *hit) out->push_back(&rec);
            return Status::OK();
          }
        }
        scratch.clear();
        IDEA_RETURN_NOT_OK(index->ProbeMbr(mbr, &scratch));
        CountIndexProbe(ev);
        if (memo) {
          ++stats->probe_cache_misses;
          ProbeCacheInsert(mbr_key, scratch);
        }
        for (const Value& rec : scratch) out->push_back(&rec);
        return Status::OK();
      }
    }
    return Status::Internal("unreachable access-path kind");
  }

  const Expr* SatisfiedConjunct() const override {
    return kind == AccessPathKind::kHashBuildProbe ||
                   kind == AccessPathKind::kIndexNestedLoopEq
               ? satisfied_conjunct
               : nullptr;
  }

  std::string Describe() const override {
    return StringPrintf("%s on %s.%s", AccessPathKindName(kind), dataset.c_str(),
                        ref_field.c_str());
  }
};

namespace {

// True when every free variable of `e` is in `avail`.
bool UsesOnly(const Expr& e, const std::set<std::string>& avail) {
  std::set<std::string> free;
  CollectFreeVars(e, avail, &free);
  return free.empty();
}

/// A usable probe found in a block's WHERE conjuncts for a FROM item.
struct ProbeMatch {
  bool found = false;
  bool spatial = false;
  std::string field;
  const Expr* probe = nullptr;
  const Expr* conjunct = nullptr;  // the whole matched WHERE conjunct
  double expand = 0;
};

// Matches `fc.alias.field` or `create_circle(fc.alias.field, <numeric lit>)`.
bool MatchRefGeometry(const Expr& e, const std::string& alias, std::string* field,
                      double* expand) {
  if (IsFieldOfVar(e, alias, field)) {
    *expand = 0;
    return true;
  }
  if (e.kind == ExprKind::kFunctionCall && e.fn_library.empty() &&
      ToLowerAscii(e.fn_name) == "create_circle" && e.args.size() == 2 &&
      IsFieldOfVar(*e.args[0], alias, field) &&
      e.args[1]->kind == ExprKind::kLiteral && e.args[1]->literal.IsNumeric()) {
    *expand = e.args[1]->literal.AsNumber();
    return true;
  }
  return false;
}

ProbeMatch FindProbe(const SelectStatement& q, const FromClause& fc,
                     const std::set<std::string>& avail) {
  ProbeMatch out;
  std::vector<const Expr*> conjuncts;
  if (q.where != nullptr) SplitConjuncts(*q.where, &conjuncts);
  ProbeMatch spatial;  // remembered; equality wins when both exist
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq) {
      std::string field;
      if (IsFieldOfVar(*c->left, fc.alias, &field) && UsesOnly(*c->right, avail)) {
        out.found = true;
        out.field = field;
        out.probe = c->right.get();
        out.conjunct = c;
        return out;
      }
      if (IsFieldOfVar(*c->right, fc.alias, &field) && UsesOnly(*c->left, avail)) {
        out.found = true;
        out.field = field;
        out.probe = c->left.get();
        out.conjunct = c;
        return out;
      }
    }
    if (!spatial.found && c->kind == ExprKind::kFunctionCall && c->fn_library.empty() &&
        ToLowerAscii(c->fn_name) == "spatial_intersect" && c->args.size() == 2) {
      std::string field;
      double expand = 0;
      if (MatchRefGeometry(*c->args[0], fc.alias, &field, &expand) &&
          UsesOnly(*c->args[1], avail)) {
        spatial = ProbeMatch{true, true, field, c->args[1].get(), nullptr, expand};
      } else if (MatchRefGeometry(*c->args[1], fc.alias, &field, &expand) &&
                 UsesOnly(*c->args[0], avail)) {
        spatial = ProbeMatch{true, true, field, c->args[0].get(), nullptr, expand};
      }
    }
  }
  return spatial;
}

struct PlannedPath {
  const FromClause* from;
  AccessPathKind kind;
  std::string field;
  const Expr* probe;
  const Expr* conjunct;  // equality-probe-satisfied WHERE conjunct (else nullptr)
  double expand;
};

/// Walks the (plan-owned, mutable) body: greedily reorders FROM items so
/// probe-able joins run innermost-first (comma joins are commutative — the
/// WHERE predicate is conjunctive over the cross product), then records an
/// access-path choice for every reference-dataset FROM item.
struct Planner {
  DatasetAccessor* datasets;
  const PlanConfig* config;
  std::vector<PlannedPath> planned;

  bool IsPlannableDataset(const FromClause& fc, const std::set<std::string>& bound) {
    return fc.source == FromClause::Source::kDataset &&
           bound.find(fc.dataset) == bound.end() && datasets->HasDataset(fc.dataset);
  }

  void VisitExpr(Expr* e, const std::set<std::string>& bound) {
    if (e->subquery != nullptr) {
      if (e->kind == ExprKind::kIn && e->left != nullptr) VisitExpr(e->left.get(), bound);
      VisitBlock(e->subquery.get(), bound);
      return;
    }
    auto walk = [&](ExprPtr& p) {
      if (p != nullptr) VisitExpr(p.get(), bound);
    };
    walk(e->base);
    walk(e->index);
    walk(e->left);
    walk(e->right);
    for (auto& a : e->args) walk(a);
    walk(e->case_operand);
    for (auto& arm : e->case_arms) {
      walk(arm.when);
      walk(arm.then);
    }
    walk(e->case_else);
    for (auto& [n, f] : e->object_fields) {
      (void)n;
      walk(f);
    }
    for (auto& el : e->elements) walk(el);
  }

  void ReorderFrom(SelectStatement* q, const std::set<std::string>& bound) {
    if (q->from.size() < 2) return;
    std::vector<FromClause> remaining;
    remaining.swap(q->from);
    std::set<std::string> avail = bound;
    while (!remaining.empty()) {
      // Prefer: equality probe > spatial probe > non-dataset item > first.
      size_t pick = remaining.size();
      int best_rank = -1;
      for (size_t i = 0; i < remaining.size(); ++i) {
        int rank;
        if (!IsPlannableDataset(remaining[i], avail)) {
          rank = 1;
        } else {
          ProbeMatch m = FindProbe(*q, remaining[i], avail);
          rank = !m.found ? 0 : (m.spatial ? 2 : 3);
        }
        if (rank > best_rank) {
          best_rank = rank;
          pick = i;
        }
        if (rank == 3) break;  // first equality probe wins outright
      }
      avail.insert(remaining[pick].alias);
      q->from.push_back(std::move(remaining[pick]));
      remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pick));
    }
  }

  void VisitBlock(SelectStatement* q, std::set<std::string> bound) {
    for (auto& let : q->lets) {
      if (!let.pre_from) continue;
      VisitExpr(let.expr.get(), bound);
      bound.insert(let.name);
    }
    ReorderFrom(q, bound);

    std::set<std::string> avail = bound;
    for (auto& f : q->from) {
      if (f.expr != nullptr) VisitExpr(f.expr.get(), avail);
      if (IsPlannableDataset(f, avail) && bound.find(f.dataset) == bound.end()) {
        PlanFromItem(*q, f, avail);
      }
      avail.insert(f.alias);
    }
    std::set<std::string> all = avail;
    for (auto& let : q->lets) {
      if (let.pre_from) continue;
      VisitExpr(let.expr.get(), all);
      all.insert(let.name);
    }
    if (q->where != nullptr) VisitExpr(q->where.get(), all);
    for (auto& g : q->group_by) {
      VisitExpr(g.expr.get(), all);
      if (!g.alias.empty()) all.insert(g.alias);
    }
    for (auto& let : q->group_lets) {
      VisitExpr(let.expr.get(), all);
      all.insert(let.name);
    }
    if (q->having != nullptr) VisitExpr(q->having.get(), all);
    for (auto& o : q->order_by) VisitExpr(o.expr.get(), all);
    if (q->select_value != nullptr) VisitExpr(q->select_value.get(), all);
    for (auto& p : q->projections) {
      if (p.expr != nullptr) VisitExpr(p.expr.get(), all);
    }
  }

  void PlanFromItem(const SelectStatement& q, const FromClause& fc,
                    const std::set<std::string>& avail) {
    ProbeMatch m = FindProbe(q, fc, avail);
    AccessPathKind kind = AccessPathKind::kScan;
    std::string field;
    const Expr* probe = nullptr;
    const Expr* conjunct = nullptr;
    double expand = 0;
    if (fc.hints.skip_index) {
      kind = AccessPathKind::kScan;
    } else if (m.found && !m.spatial) {
      field = m.field;
      probe = m.probe;
      auto idx = datasets->GetIndexProbe(fc.dataset, m.field);
      bool use_index = idx != nullptr && idx->kind() == IndexProbe::Kind::kEquality &&
                       (config->prefer_index || fc.hints.force_index);
      kind = use_index ? AccessPathKind::kIndexNestedLoopEq
                       : AccessPathKind::kHashBuildProbe;
      conjunct = m.conjunct;
    } else if (m.found && m.spatial) {
      auto idx = datasets->GetIndexProbe(fc.dataset, m.field);
      if (idx != nullptr && idx->kind() == IndexProbe::Kind::kSpatial &&
          (config->prefer_index || fc.hints.force_index)) {
        kind = AccessPathKind::kIndexNestedLoopSpatial;
        field = m.field;
        probe = m.probe;
        expand = m.expand;
      }
    }
    planned.push_back(PlannedPath{&fc, kind, field, probe, conjunct, expand});
  }
};

}  // namespace

Result<std::unique_ptr<EnrichmentPlan>> EnrichmentPlan::Compile(
    std::shared_ptr<const SqlppFunctionDef> def, DatasetAccessor* datasets,
    const FunctionResolver* functions, const PlanConfig& config) {
  if (def == nullptr || def->body == nullptr) {
    return Status::InvalidArgument("cannot compile a null function definition");
  }
  if (def->params.size() != 1) {
    return Status::NotSupported("enrichment UDFs take exactly one record argument");
  }
  auto plan = std::unique_ptr<EnrichmentPlan>(new EnrichmentPlan());
  // The plan owns a private clone of the body: the join-order rewrite below
  // must not mutate the registry's shared definition.
  auto owned = std::make_shared<SqlppFunctionDef>();
  owned->name = def->name;
  owned->params = def->params;
  owned->body = std::shared_ptr<const SelectStatement>(def->body->Clone());
  plan->source_def_ = std::move(def);
  plan->def_ = std::move(owned);
  plan->datasets_ = datasets;
  plan->functions_ = functions;
  plan->config_ = config;
  plan->analysis_ = AnalyzeFunctionBody(*plan->def_->body, plan->def_->params);

  Planner planner{datasets, &config, {}};
  std::set<std::string> bound(plan->def_->params.begin(), plan->def_->params.end());
  planner.VisitBlock(const_cast<SelectStatement*>(plan->def_->body.get()), bound);

  for (auto& p : planner.planned) {
    auto path = std::make_unique<PathImpl>();
    path->kind = p.kind;
    path->from = p.from;
    path->dataset = p.from->dataset;
    path->ref_field = p.field;
    path->probe_expr = p.probe;
    path->satisfied_conjunct = p.conjunct;
    path->mbr_expand = p.expand;
    path->datasets = datasets;
    path->stats = &plan->stats_;
    path->config = &plan->config_;  // plan-owned copy; outlives the path
    plan->path_map_[p.from] = path.get();
    plan->choices_.push_back(AccessPathChoice{
        p.kind, p.from->dataset, p.field, p.probe != nullptr ? p.probe->ToString() : ""});
    plan->paths_.push_back(std::move(path));
  }

  EvalContext ctx;
  ctx.datasets = datasets;
  ctx.functions = functions;
  ctx.access_paths = &plan->path_map_;
  // Per-UDF metric scope: every plan (and fork) of the same function shares
  // the idea.eval.<udf>.* series.
  obs::Scope scope(&obs::MetricsRegistry::Default(), "idea.eval." + plan->def_->name);
  ctx.metrics.tuples_scanned = scope.Counter("tuples_scanned");
  ctx.metrics.index_probes = scope.Counter("index_probes");
  ctx.metrics.ref_candidates = scope.Counter("ref_candidates");
  ctx.metrics.udf_calls = scope.Counter("udf_calls");
  ctx.metrics.udf_eval_us = scope.Histogram("udf_eval_us");
  plan->init_us_ = scope.Histogram("init_us");
  plan->records_metric_ = scope.Counter("records_enriched");
  // idea.plan.<udf>.* refresh-path observability: how often Initialize() hit
  // each refresh route and what each one cost.
  obs::Scope plan_scope(&obs::MetricsRegistry::Default(),
                        "idea.plan." + plan->def_->name);
  plan->noop_refreshes_metric_ = plan_scope.Counter("noop_refreshes");
  plan->delta_refreshes_metric_ = plan_scope.Counter("delta_refreshes");
  plan->full_rebuilds_metric_ = plan_scope.Counter("full_rebuilds");
  plan->delta_records_metric_ = plan_scope.Counter("delta_records_applied");
  plan->refresh_noop_us_ = plan_scope.Histogram("refresh_noop_us");
  plan->refresh_delta_us_ = plan_scope.Histogram("refresh_delta_us");
  plan->refresh_full_us_ = plan_scope.Histogram("refresh_full_us");
  plan->evaluator_ = std::make_unique<Evaluator>(ctx);
  return plan;
}

EnrichmentPlan::~EnrichmentPlan() = default;

Status EnrichmentPlan::Initialize() {
  WallTimer timer;
  timer.Start();
  const uint64_t delta_before = stats_.delta_records_applied;
  bool any_full = false;
  bool any_delta = false;
  for (auto& path : paths_) {
    IDEA_ASSIGN_OR_RETURN(RefreshKind kind, path->Refresh());
    any_full |= kind == RefreshKind::kFull;
    any_delta |= kind == RefreshKind::kDelta;
  }
  stats_.last_init_micros = timer.ElapsedMicros();
  ++stats_.initializations;
  if (init_us_ != nullptr) init_us_->Record(stats_.last_init_micros);
  // The invocation's overall cost class is its most expensive path refresh.
  stats_.last_refresh = any_full    ? RefreshKind::kFull
                        : any_delta ? RefreshKind::kDelta
                                    : RefreshKind::kNoop;
  switch (stats_.last_refresh) {
    case RefreshKind::kNoop:
      ++stats_.noop_refreshes;
      if (noop_refreshes_metric_ != nullptr) noop_refreshes_metric_->Increment();
      if (refresh_noop_us_ != nullptr) refresh_noop_us_->Record(stats_.last_init_micros);
      break;
    case RefreshKind::kDelta:
      ++stats_.delta_refreshes;
      if (delta_refreshes_metric_ != nullptr) delta_refreshes_metric_->Increment();
      if (refresh_delta_us_ != nullptr) {
        refresh_delta_us_->Record(stats_.last_init_micros);
      }
      break;
    case RefreshKind::kFull:
      ++stats_.full_rebuilds;
      if (full_rebuilds_metric_ != nullptr) full_rebuilds_metric_->Increment();
      if (refresh_full_us_ != nullptr) refresh_full_us_->Record(stats_.last_init_micros);
      break;
  }
  if (delta_records_metric_ != nullptr &&
      stats_.delta_records_applied > delta_before) {
    delta_records_metric_->Add(stats_.delta_records_applied - delta_before);
  }
  initialized_ = true;
  return Status::OK();
}

Result<adm::Value> EnrichmentPlan::EnrichOne(const adm::Value& record) {
  if (!initialized_) {
    return Status::Internal("EnrichmentPlan::Initialize() must run before EnrichOne");
  }
  Env root;
  IDEA_ASSIGN_OR_RETURN(
      Value result,
      evaluator_->CallSqlppFunction(*def_, ArgView(&record, 1), &root));
  if (records_metric_ != nullptr) records_metric_->Increment();
  // A SQL++ function returns the collection its SELECT produces; an
  // enrichment body emits one row per input record, which we unwrap.
  if (result.IsArray()) {
    adm::Array& rows = result.MutableArray();
    if (rows.size() == 1) return std::move(rows[0]);
    if (rows.empty()) return Value::MakeNull();
  }
  return result;
}

Status EnrichmentPlan::EnrichBatch(const std::vector<adm::Value>& batch,
                                   adm::Array* out) {
  out->reserve(out->size() + batch.size());
  for (const auto& rec : batch) {
    IDEA_ASSIGN_OR_RETURN(adm::Value v, EnrichOne(rec));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

std::unique_ptr<EnrichmentPlan> EnrichmentPlan::Fork() const {
  auto r = Compile(source_def_, datasets_, functions_, config_);
  return r.ok() ? std::move(r).value() : nullptr;
}

std::string EnrichmentPlan::Explain() const {
  std::string out = "EnrichmentPlan for " + def_->name + " (";
  out += analysis_.stateful ? "stateful" : "stateless";
  out += ")\n";
  for (const auto& c : choices_) {
    out += StringPrintf("  %-28s %s.%s", AccessPathKindName(c.kind), c.dataset.c_str(),
                        c.ref_field.c_str());
    if (!c.probe.empty()) out += "  probe: " + c.probe;
    out += "\n";
  }
  return out;
}

}  // namespace idea::sqlpp
