#include "sqlpp/evaluator.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <set>

#include "adm/temporal.h"
#include "common/string_util.h"
#include "sqlpp/analyzer.h"
#include "sqlpp/functions.h"

namespace idea::sqlpp {

using adm::Value;

namespace {

// Sentinel used to unwind tuple production once LIMIT rows are collected.
const char kLimitReached[] = "__limit_reached__";

bool IsLimitSentinel(const Status& s) {
  return s.code() == StatusCode::kAborted && s.message() == kLimitReached;
}

// Strict SQL++ WHERE semantics: only boolean TRUE passes.
bool Truthy(const Value& v) { return v.IsBool() && v.AsBool(); }

std::string DerivedProjectionName(const Expr& e, size_t index) {
  if (e.kind == ExprKind::kFieldAccess) return e.field;
  if (e.kind == ExprKind::kVarRef) return e.var;
  std::string name = "$";
  name += std::to_string(index + 1);
  return name;
}

// Shared MISSING instance for EvalRef results that have no storage of their
// own (absent fields, out-of-range indexes).
const Value& MissingValue() {
  static const Value v = Value::MakeMissing();
  return v;
}

}  // namespace

bool ContainsAggregate(const Expr& e) {
  if (e.kind == ExprKind::kSubquery || e.kind == ExprKind::kExists) return false;
  if (e.kind == ExprKind::kFunctionCall && e.fn_library.empty() &&
      FunctionRegistry::IsAggregate(ToLowerAscii(e.fn_name))) {
    return true;
  }
  auto check = [](const ExprPtr& p) { return p != nullptr && ContainsAggregate(*p); };
  if (check(e.base) || check(e.index) || check(e.left) || check(e.right)) return true;
  for (const auto& a : e.args) {
    if (check(a)) return true;
  }
  if (check(e.case_operand) || check(e.case_else)) return true;
  for (const auto& arm : e.case_arms) {
    if (check(arm.when) || check(arm.then)) return true;
  }
  for (const auto& [n, f] : e.object_fields) {
    (void)n;
    if (check(f)) return true;
  }
  for (const auto& el : e.elements) {
    if (check(el)) return true;
  }
  return false;
}

std::vector<Value>* Evaluator::AcquireValueVec() {
  if (value_vec_depth_ == value_vec_pool_.size()) value_vec_pool_.emplace_back();
  std::vector<Value>* v = &value_vec_pool_[value_vec_depth_++];
  v->clear();
  return v;
}

void Evaluator::ReleaseValueVec(std::vector<Value>* v) {
  v->clear();  // drop held values eagerly; capacity is retained
  --value_vec_depth_;
}

std::vector<const Value*>* Evaluator::AcquireCandidateVec() {
  if (candidate_depth_ == candidate_pool_.size()) candidate_pool_.emplace_back();
  std::vector<const Value*>* v = &candidate_pool_[candidate_depth_++];
  v->clear();
  return v;
}

void Evaluator::ReleaseCandidateVec() { --candidate_depth_; }

const Value* Evaluator::FindField(const Value& obj, const Expr& e) {
  const adm::Fields& fields = obj.AsObject();
  uint32_t* hint = nullptr;
  for (auto& p : field_pos_) {
    if (p.first == &e) {
      hint = &p.second;
      break;
    }
  }
  if (hint == nullptr && field_pos_.size() < 64) {
    field_pos_.emplace_back(&e, 0);
    hint = &field_pos_.back().second;
  }
  if (hint != nullptr && *hint < fields.size() && fields[*hint].first == e.field) {
    return &fields[*hint].second;
  }
  for (uint32_t i = 0; i < fields.size(); ++i) {
    if (fields[i].first == e.field) {
      if (hint != nullptr) *hint = i;
      return &fields[i].second;
    }
  }
  return nullptr;
}

Result<const Value*> Evaluator::EvalRef(const Expr& e, Env* env, Value* scratch) {
  // Inside a grouped context, an expression structurally equal to a grouping
  // key evaluates to the group's key value (SQL++ key visibility).
  if (!group_stack_.empty() && group_stack_.back().keys != nullptr) {
    const GroupContext& g = group_stack_.back();
    for (size_t i = 0; i < g.keys->size(); ++i) {
      if (Expr::Equals(e, *(*g.keys)[i].expr)) return &(*g.key_values)[i];
    }
  }
  switch (e.kind) {
    case ExprKind::kLiteral:
      return &e.literal;
    case ExprKind::kVarRef: {
      const Value* v = env->Lookup(e.var);
      if (v == nullptr) {
        return Status::InvalidArgument("unbound variable '" + e.var + "'");
      }
      return v;
    }
    case ExprKind::kFieldAccess: {
      IDEA_ASSIGN_OR_RETURN(const Value* base, EvalRef(*e.base, env, scratch));
      if (!base->IsObject()) return &MissingValue();
      const Value* f = FindField(*base, e);
      return f != nullptr ? f : &MissingValue();
    }
    case ExprKind::kIndexAccess: {
      IDEA_ASSIGN_OR_RETURN(const Value* base, EvalRef(*e.base, env, scratch));
      Value idx_scratch;
      IDEA_ASSIGN_OR_RETURN(const Value* idx, EvalRef(*e.index, env, &idx_scratch));
      if (!base->IsArray() || !idx->IsInt()) return &MissingValue();
      int64_t i = idx->AsInt();
      if (i < 0 || static_cast<size_t>(i) >= base->AsArray().size()) {
        return &MissingValue();
      }
      return &base->AsArray()[static_cast<size_t>(i)];
    }
    default: {
      auto r = Eval(e, env);
      if (!r.ok()) return r.status();
      *scratch = std::move(r).value();
      return scratch;
    }
  }
}

Result<Value> Evaluator::Eval(const Expr& e, Env* env) {
  // Inside a grouped context, an expression structurally equal to a grouping
  // key evaluates to the group's key value (SQL++ key visibility).
  if (!group_stack_.empty() && group_stack_.back().keys != nullptr) {
    const GroupContext& g = group_stack_.back();
    for (size_t i = 0; i < g.keys->size(); ++i) {
      if (Expr::Equals(e, *(*g.keys)[i].expr)) return (*g.key_values)[i];
    }
  }
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kVarRef: {
      const Value* v = env->Lookup(e.var);
      if (v == nullptr) {
        return Status::InvalidArgument("unbound variable '" + e.var + "'");
      }
      return *v;
    }
    case ExprKind::kFieldAccess:
    case ExprKind::kIndexAccess: {
      // Resolve through the borrowed-pointer path so only the accessed
      // subtree is copied, never the base object.
      Value scratch;
      IDEA_ASSIGN_OR_RETURN(const Value* p, EvalRef(e, env, &scratch));
      if (p == &scratch) return scratch;
      return *p;
    }
    case ExprKind::kUnary: {
      IDEA_ASSIGN_OR_RETURN(Value v, Eval(*e.left, env));
      if (e.unary_op == UnaryOp::kNot) {
        if (v.IsUnknown()) return Value::MakeNull();
        if (!v.IsBool()) return Status::TypeMismatch("NOT over non-boolean");
        return Value::MakeBool(!v.AsBool());
      }
      if (v.IsUnknown()) return Value::MakeNull();
      if (v.IsInt()) return Value::MakeInt(-v.AsInt());
      if (v.IsDouble()) return Value::MakeDouble(-v.AsDouble());
      return Status::TypeMismatch("negation over non-number");
    }
    case ExprKind::kBinary:
      return EvalBinary(e, env);
    case ExprKind::kFunctionCall:
      return EvalFunctionCall(e, env);
    case ExprKind::kCase:
      return EvalCase(e, env);
    case ExprKind::kSubquery: {
      IDEA_ASSIGN_OR_RETURN(adm::Array rows, EvalQuery(*e.subquery, env));
      return Value::MakeArray(std::move(rows));
    }
    case ExprKind::kExists: {
      IDEA_ASSIGN_OR_RETURN(adm::Array rows, EvalQuery(*e.subquery, env));
      return Value::MakeBool(!rows.empty());
    }
    case ExprKind::kIn:
      return EvalIn(e, env);
    case ExprKind::kObjectConstructor: {
      adm::Fields fields;
      for (const auto& [name, fe] : e.object_fields) {
        IDEA_ASSIGN_OR_RETURN(Value v, Eval(*fe, env));
        if (v.IsMissing()) continue;
        fields.emplace_back(name, std::move(v));
      }
      return Value::MakeObject(std::move(fields));
    }
    case ExprKind::kArrayConstructor: {
      adm::Array elems;
      elems.reserve(e.elements.size());
      for (const auto& el : e.elements) {
        IDEA_ASSIGN_OR_RETURN(Value v, Eval(*el, env));
        elems.push_back(std::move(v));
      }
      return Value::MakeArray(std::move(elems));
    }
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is only valid inside count(*)");
  }
  return Status::Internal("unhandled expression kind");
}

Result<Value> Evaluator::EvalBinary(const Expr& e, Env* env) {
  const BinaryOp op = e.binary_op;
  // Three-valued AND/OR with short-circuiting.
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    Value l_scratch;
    IDEA_ASSIGN_OR_RETURN(const Value* lp, EvalRef(*e.left, env, &l_scratch));
    const Value& l = *lp;
    bool is_and = op == BinaryOp::kAnd;
    if (l.IsBool() && l.AsBool() != is_and) return l;  // false AND / true OR
    Value r_scratch;
    IDEA_ASSIGN_OR_RETURN(const Value* rp, EvalRef(*e.right, env, &r_scratch));
    const Value& r = *rp;
    if (r.IsBool() && r.AsBool() != is_and) return r;
    if (l.IsUnknown() || r.IsUnknown()) return Value::MakeNull();
    if (!l.IsBool() || !r.IsBool()) {
      return Status::TypeMismatch(std::string(BinaryOpName(op)) + " over non-booleans");
    }
    return Value::MakeBool(is_and ? (l.AsBool() && r.AsBool())
                                  : (l.AsBool() || r.AsBool()));
  }
  Value l_scratch;
  IDEA_ASSIGN_OR_RETURN(const Value* lp, EvalRef(*e.left, env, &l_scratch));
  Value r_scratch;
  IDEA_ASSIGN_OR_RETURN(const Value* rp, EvalRef(*e.right, env, &r_scratch));
  const Value& l = *lp;
  const Value& r = *rp;
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNeq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (l.IsUnknown() || r.IsUnknown()) return Value::MakeNull();
      int c;
      if (l.IsInt() && r.IsInt()) {
        // Scalar fast path; identical ordering to Value::Compare.
        int64_t a = l.AsInt(), b = r.AsInt();
        c = a < b ? -1 : (a == b ? 0 : 1);
      } else {
        c = Value::Compare(l, r);
      }
      switch (op) {
        case BinaryOp::kEq:
          return Value::MakeBool(c == 0);
        case BinaryOp::kNeq:
          return Value::MakeBool(c != 0);
        case BinaryOp::kLt:
          return Value::MakeBool(c < 0);
        case BinaryOp::kLe:
          return Value::MakeBool(c <= 0);
        case BinaryOp::kGt:
          return Value::MakeBool(c > 0);
        default:
          return Value::MakeBool(c >= 0);
      }
    }
    case BinaryOp::kAdd: {
      if (l.IsUnknown() || r.IsUnknown()) return Value::MakeNull();
      if (l.IsInt() && r.IsInt()) return Value::MakeInt(l.AsInt() + r.AsInt());
      if (l.IsNumeric() && r.IsNumeric()) {
        return Value::MakeDouble(l.AsNumber() + r.AsNumber());
      }
      if (l.IsDateTime() && r.IsDuration()) {
        return Value::MakeDateTime(adm::AddDuration(l.AsDateTime(), r.AsDuration()));
      }
      if (l.IsDuration() && r.IsDateTime()) {
        return Value::MakeDateTime(adm::AddDuration(r.AsDateTime(), l.AsDuration()));
      }
      if (l.IsDuration() && r.IsDuration()) {
        return Value::MakeDuration(adm::Duration{l.AsDuration().months + r.AsDuration().months,
                                                 l.AsDuration().millis + r.AsDuration().millis});
      }
      if (l.IsString() && r.IsString()) {
        return Value::MakeString(l.AsString() + r.AsString());
      }
      return Status::TypeMismatch("invalid operands to '+'");
    }
    case BinaryOp::kSub: {
      if (l.IsUnknown() || r.IsUnknown()) return Value::MakeNull();
      if (l.IsInt() && r.IsInt()) return Value::MakeInt(l.AsInt() - r.AsInt());
      if (l.IsNumeric() && r.IsNumeric()) {
        return Value::MakeDouble(l.AsNumber() - r.AsNumber());
      }
      if (l.IsDateTime() && r.IsDuration()) {
        adm::Duration neg{-r.AsDuration().months, -r.AsDuration().millis};
        return Value::MakeDateTime(adm::AddDuration(l.AsDateTime(), neg));
      }
      if (l.IsDateTime() && r.IsDateTime()) {
        return Value::MakeDuration(
            adm::Duration{0, l.AsDateTime().epoch_ms - r.AsDateTime().epoch_ms});
      }
      return Status::TypeMismatch("invalid operands to '-'");
    }
    case BinaryOp::kMul: {
      if (l.IsUnknown() || r.IsUnknown()) return Value::MakeNull();
      if (l.IsInt() && r.IsInt()) return Value::MakeInt(l.AsInt() * r.AsInt());
      if (l.IsNumeric() && r.IsNumeric()) {
        return Value::MakeDouble(l.AsNumber() * r.AsNumber());
      }
      return Status::TypeMismatch("invalid operands to '*'");
    }
    case BinaryOp::kDiv: {
      if (l.IsUnknown() || r.IsUnknown()) return Value::MakeNull();
      if (!l.IsNumeric() || !r.IsNumeric()) {
        return Status::TypeMismatch("invalid operands to '/'");
      }
      if (r.AsNumber() == 0) return Value::MakeNull();
      return Value::MakeDouble(l.AsNumber() / r.AsNumber());
    }
    case BinaryOp::kConcat: {
      if (l.IsUnknown() || r.IsUnknown()) return Value::MakeNull();
      if (!l.IsString() || !r.IsString()) {
        return Status::TypeMismatch("'||' expects strings");
      }
      return Value::MakeString(l.AsString() + r.AsString());
    }
    default:
      return Status::Internal("unhandled binary op");
  }
}

Result<Value> Evaluator::EvalCase(const Expr& e, Env* env) {
  if (e.case_operand != nullptr) {
    Value operand_scratch;
    IDEA_ASSIGN_OR_RETURN(const Value* operand,
                          EvalRef(*e.case_operand, env, &operand_scratch));
    for (const auto& arm : e.case_arms) {
      Value when_scratch;
      IDEA_ASSIGN_OR_RETURN(const Value* when, EvalRef(*arm.when, env, &when_scratch));
      if (!operand->IsUnknown() && !when->IsUnknown() &&
          Value::Compare(*operand, *when) == 0) {
        return Eval(*arm.then, env);
      }
    }
  } else {
    for (const auto& arm : e.case_arms) {
      Value when_scratch;
      IDEA_ASSIGN_OR_RETURN(const Value* when, EvalRef(*arm.when, env, &when_scratch));
      if (Truthy(*when)) return Eval(*arm.then, env);
    }
  }
  if (e.case_else != nullptr) return Eval(*e.case_else, env);
  return Value::MakeNull();
}

Result<Value> Evaluator::EvalIn(const Expr& e, Env* env) {
  Value left_scratch;
  IDEA_ASSIGN_OR_RETURN(const Value* left, EvalRef(*e.left, env, &left_scratch));
  if (left->IsUnknown()) return Value::MakeNull();
  Value coll_scratch;
  const Value* coll;
  if (e.subquery != nullptr) {
    IDEA_ASSIGN_OR_RETURN(adm::Array rows, EvalQuery(*e.subquery, env));
    coll_scratch = Value::MakeArray(std::move(rows));
    coll = &coll_scratch;
  } else {
    IDEA_ASSIGN_OR_RETURN(coll, EvalRef(*e.right, env, &coll_scratch));
  }
  if (coll->IsUnknown()) return Value::MakeNull();
  if (!coll->IsArray()) return Status::TypeMismatch("IN expects a collection");
  for (const Value& v : coll->AsArray()) {
    if (!v.IsUnknown() && Value::Compare(*left, v) == 0) return Value::MakeBool(true);
  }
  return Value::MakeBool(false);
}

Result<Value> Evaluator::EvalAggregateCall(const Expr& e, Env* env) {
  std::string name = ToLowerAscii(e.fn_name);
  if (group_stack_.empty() || group_stack_.back().members == nullptr) {
    // Outside a grouped context an aggregate applies to an array argument.
    if (e.args.size() == 1 && e.args[0]->kind != ExprKind::kStar) {
      IDEA_ASSIGN_OR_RETURN(Value arg, Eval(*e.args[0], env));
      if (arg.IsArray()) return ApplyAggregate(name, arg.AsArray());
      if (arg.IsUnknown()) return Value::MakeNull();
    }
    return Status::InvalidArgument("aggregate '" + name +
                                   "' used outside a grouped context");
  }
  GroupContext group = group_stack_.back();
  if (e.args.size() != 1) {
    return Status::InvalidArgument("aggregate '" + name + "' expects one argument");
  }
  // count(*): count members directly.
  if (e.args[0]->kind == ExprKind::kStar) {
    if (name != "count") {
      return Status::InvalidArgument("'*' is only valid inside count(*)");
    }
    return Value::MakeInt(static_cast<int64_t>(group.members->size()));
  }
  // Evaluate the argument once per member, with group semantics disabled so
  // member fields resolve normally.
  group_stack_.pop_back();
  std::vector<Value>* items = AcquireValueVec();
  ValueVecLease lease{this, items};
  items->reserve(group.members->size());
  Status st = Status::OK();
  for (const MaterializedTuple& tuple : *group.members) {
    Env member_env(group.base_env);
    for (const auto& [n, v] : tuple.bindings) member_env.Bind(n, &v);
    auto r = Eval(*e.args[0], &member_env);
    if (!r.ok()) {
      st = r.status();
      break;
    }
    items->push_back(std::move(r).value());
  }
  group_stack_.push_back(group);
  if (!st.ok()) return st;
  return ApplyAggregate(name, *items);
}

Result<Value> Evaluator::EvalFunctionCall(const Expr& e, Env* env) {
  // Candidate-loop invariants pinned by FromItemLoop resolve without
  // re-evaluation (pointer identity: one AST node per call site).
  for (const PinnedExpr& p : pinned_) {
    if (p.expr == &e && p.depth == depth_) return p.value;
  }
  if (e.fn_library.empty() && FunctionRegistry::IsAggregate(ToLowerAscii(e.fn_name))) {
    return EvalAggregateCall(e, env);
  }
  std::vector<Value>* args = AcquireValueVec();
  ValueVecLease lease{this, args};
  args->reserve(e.args.size());
  for (const auto& a : e.args) {
    IDEA_ASSIGN_OR_RETURN(Value v, Eval(*a, env));
    args->push_back(std::move(v));
  }
  if (e.fn_library.empty()) {
    if (BuiltinFn fn = FunctionRegistry::Global().Find(ToLowerAscii(e.fn_name))) {
      return fn(*args);
    }
    if (ctx_.functions != nullptr) {
      if (const SqlppFunctionDef* def = ctx_.functions->FindSqlppFunction(e.fn_name)) {
        return CallSqlppFunction(*def, ArgView(*args), env);
      }
      if (NativeFunctionHandle* native = ctx_.functions->FindNativeFunction(e.fn_name)) {
        ++stats_.udf_calls;
        if (ctx_.metrics.udf_calls != nullptr) ctx_.metrics.udf_calls->Increment();
        return native->Evaluate(ArgView(*args));
      }
    }
    return Status::NotFound("unknown function '" + e.fn_name + "'");
  }
  if (ctx_.functions != nullptr) {
    std::string qualified = e.fn_library + "#" + e.fn_name;
    if (NativeFunctionHandle* native = ctx_.functions->FindNativeFunction(qualified)) {
      ++stats_.udf_calls;
      if (ctx_.metrics.udf_calls != nullptr) ctx_.metrics.udf_calls->Increment();
      return native->Evaluate(ArgView(*args));
    }
  }
  return Status::NotFound("unknown library function '" + e.fn_library + "#" + e.fn_name +
                          "'");
}

Result<Value> Evaluator::CallSqlppFunction(const SqlppFunctionDef& def, ArgView args,
                                           Env* env) {
  (void)env;  // SQL++ functions are closed over their parameters only.
  if (args.size() != def.params.size()) {
    return Status::InvalidArgument(StringPrintf("function %s expects %zu argument(s), got %zu",
                                                def.name.c_str(), def.params.size(),
                                                args.size()));
  }
  if (++depth_ > ctx_.max_recursion_depth) {
    --depth_;
    return Status::ResourceExhausted("maximum UDF recursion depth exceeded");
  }
  ++stats_.udf_calls;
  if (ctx_.metrics.udf_calls != nullptr) ctx_.metrics.udf_calls->Increment();
  // Parameters are borrowed from the caller's argument storage, which
  // outlives the call (see ArgView).
  Env fn_env;
  for (size_t i = 0; i < args.size(); ++i) fn_env.Bind(def.params[i], &args[i]);
  // A grouped caller context must not leak into the function body.
  std::vector<GroupContext> saved;
  saved.swap(group_stack_);
  double t0 = ctx_.metrics.udf_eval_us != nullptr ? obs::NowMicros() : 0;
  auto rows = EvalQuery(*def.body, &fn_env);
  if (ctx_.metrics.udf_eval_us != nullptr) {
    ctx_.metrics.udf_eval_us->Record(obs::NowMicros() - t0);
  }
  saved.swap(group_stack_);
  --depth_;
  if (!rows.ok()) return rows.status();
  return Value::MakeArray(std::move(rows).value());
}

namespace {

template <typename Fn>
void ForEachChild(const Expr& e, const Fn& fn) {
  if (e.base != nullptr) fn(*e.base);
  if (e.index != nullptr) fn(*e.index);
  if (e.left != nullptr) fn(*e.left);
  if (e.right != nullptr) fn(*e.right);
  for (const auto& a : e.args) {
    if (a != nullptr) fn(*a);
  }
  if (e.case_operand != nullptr) fn(*e.case_operand);
  for (const auto& arm : e.case_arms) {
    if (arm.when != nullptr) fn(*arm.when);
    if (arm.then != nullptr) fn(*arm.then);
  }
  if (e.case_else != nullptr) fn(*e.case_else);
  for (const auto& [name, fe] : e.object_fields) {
    if (fe != nullptr) fn(*fe);
  }
  for (const auto& el : e.elements) {
    if (el != nullptr) fn(*el);
  }
}

bool ContainsSubquery(const Expr& e) {
  if (e.subquery != nullptr) return true;
  bool found = false;
  ForEachChild(e, [&](const Expr& c) { found = found || ContainsSubquery(c); });
  return found;
}

// Maximal function-call subtrees of `e` whose free variables avoid every
// loop-bound name (and that embed no subquery — a subquery's evaluation cost
// and access-path interaction make it a poor hoist target).
void CollectHoistableCalls(const Expr& e, const std::set<std::string>& loop_vars,
                           std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kFunctionCall && !ContainsSubquery(e)) {
    std::set<std::string> free;
    CollectFreeVars(e, {}, &free);
    bool invariant = true;
    for (const std::string& v : free) {
      if (loop_vars.count(v) != 0) {
        invariant = false;
        break;
      }
    }
    if (invariant) {
      out->push_back(&e);
      return;
    }
  }
  ForEachChild(e, [&](const Expr& c) { CollectHoistableCalls(c, loop_vars, out); });
}

}  // namespace

void Evaluator::PinInvariantWhereSubexprs(const SelectStatement& q, Env* env) {
  auto it = hoistable_.find(&q);
  if (it == hoistable_.end()) {
    std::vector<const Expr*> found;
    std::set<std::string> loop_vars;
    for (const auto& f : q.from) loop_vars.insert(f.alias);
    for (const auto& l : q.lets) {
      if (!l.pre_from) loop_vars.insert(l.name);
    }
    CollectHoistableCalls(*q.where, loop_vars, &found);
    it = hoistable_.emplace(&q, std::move(found)).first;
  }
  for (const Expr* e : it->second) {
    auto r = Eval(*e, env);
    if (!r.ok()) continue;  // unpinned: per-candidate evaluation decides
    pinned_.push_back({e, depth_, std::move(r).value()});
  }
}

Result<Value> Evaluator::EvalWhereResidual(const Expr& e, Env* env) {
  // A conjunct the current access path guarantees (a hash build+probe or a
  // B-tree index probe selected the candidate by this exact equality)
  // evaluates to true by construction.
  for (const SatisfiedConjunct& s : satisfied_) {
    if (s.expr == &e && s.depth == depth_) return Value::MakeBool(true);
  }
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd) {
    // Mirror EvalBinary's three-valued AND exactly (short-circuit order,
    // unknown propagation, non-boolean type error) so skipping a satisfied
    // conjunct is the only difference from a plain Eval.
    IDEA_ASSIGN_OR_RETURN(Value l, EvalWhereResidual(*e.left, env));
    if (l.IsBool() && !l.AsBool()) return l;
    IDEA_ASSIGN_OR_RETURN(Value r, EvalWhereResidual(*e.right, env));
    if (r.IsBool() && !r.AsBool()) return r;
    if (l.IsUnknown() || r.IsUnknown()) return Value::MakeNull();
    if (!l.IsBool() || !r.IsBool()) {
      return Status::TypeMismatch(std::string(BinaryOpName(BinaryOp::kAnd)) +
                                  " over non-booleans");
    }
    return Value::MakeBool(l.AsBool() && r.AsBool());
  }
  return Eval(e, env);
}

std::vector<std::string> Evaluator::TupleVarNames(const SelectStatement& q) {
  std::vector<std::string> names;
  for (const auto& f : q.from) names.push_back(f.alias);
  for (const auto& l : q.lets) {
    if (!l.pre_from) names.push_back(l.name);
  }
  return names;
}

Status Evaluator::FromItemLoop(const SelectStatement& q, size_t item, Env* env,
                               const std::function<Status(Env*)>& emit) {
  if (item == q.from.size()) {
    // All FROM variables bound: post-FROM LETs, then WHERE.
    Env tuple_env(env);
    for (const auto& let : q.lets) {
      if (let.pre_from) continue;
      IDEA_ASSIGN_OR_RETURN(Value v, Eval(*let.expr, &tuple_env));
      tuple_env.BindOwned(let.name, std::move(v));
    }
    if (q.where != nullptr) {
      IDEA_ASSIGN_OR_RETURN(Value pass, satisfied_.empty()
                                            ? Eval(*q.where, &tuple_env)
                                            : EvalWhereResidual(*q.where, &tuple_env));
      if (!Truthy(pass)) return Status::OK();
    }
    return emit(&tuple_env);
  }
  const FromClause& fc = q.from[item];
  // Hoist loop-invariant WHERE work out of the candidate loop: the residual
  // predicate is re-evaluated per candidate, but its function-call
  // subexpressions that mention no loop-bound name are fixed for this tuple
  // (e.g. the probe-side circle of a spatial join, or a native string
  // normalization of the enriched record).
  PinScope pin_scope{this, pinned_.size()};
  if (item == 0 && q.where != nullptr) PinInvariantWhereSubexprs(q, env);
  // Planner-installed access path?
  if (ctx_.access_paths != nullptr) {
    auto it = ctx_.access_paths->find(&fc);
    if (it != ctx_.access_paths->end()) {
      std::vector<const Value*>* candidates = AcquireCandidateVec();
      CandidateVecLease lease{this};
      IDEA_RETURN_NOT_OK(it->second->GetCandidates(this, env, candidates));
      stats_.access_path_candidates += candidates->size();
      if (ctx_.metrics.ref_candidates != nullptr) {
        ctx_.metrics.ref_candidates->Add(candidates->size());
      }
      // Conjunct the path's candidate selection already guarantees: residual
      // WHERE evaluation treats it as true instead of re-proving it per
      // candidate (EvalWhereResidual).
      SatisfiedScope sat_scope{this, satisfied_.size()};
      if (const Expr* sc = it->second->SatisfiedConjunct();
          sc != nullptr && q.where != nullptr) {
        satisfied_.push_back({sc, depth_});
      }
      for (const Value* cand : *candidates) {
        Env child(env);
        child.Bind(fc.alias, cand);
        IDEA_RETURN_NOT_OK(FromItemLoop(q, item + 1, &child, emit));
      }
      return Status::OK();
    }
  }
  if (fc.source == FromClause::Source::kFeed) {
    return Status::NotSupported(
        "FEED is not an executable datasource: a continuous feed cannot be evaluated "
        "as a finite dataset (Model 3, paper §4.3.4); attach the UDF to a feed instead");
  }
  if (fc.source == FromClause::Source::kExpression) {
    Env child(env);
    IDEA_ASSIGN_OR_RETURN(Value coll, Eval(*fc.expr, &child));
    if (coll.IsUnknown()) return Status::OK();
    if (!coll.IsArray()) {
      return Status::TypeMismatch("FROM expression for '" + fc.alias +
                                  "' is not a collection");
    }
    const Value* owned = child.Park(std::move(coll));
    for (const Value& rec : owned->AsArray()) {
      Env iter(&child);
      iter.Bind(fc.alias, &rec);
      CountScannedTuple();
      IDEA_RETURN_NOT_OK(FromItemLoop(q, item + 1, &iter, emit));
    }
    return Status::OK();
  }
  // Dataset (or a variable bound to a collection: `FROM TweetsBatch tweet`).
  if (const Value* bound = env->Lookup(fc.dataset)) {
    if (!bound->IsArray()) {
      return Status::TypeMismatch("FROM variable '" + fc.dataset +
                                  "' is not a collection");
    }
    for (const Value& rec : bound->AsArray()) {
      Env iter(env);
      iter.Bind(fc.alias, &rec);
      CountScannedTuple();
      IDEA_RETURN_NOT_OK(FromItemLoop(q, item + 1, &iter, emit));
    }
    return Status::OK();
  }
  if (ctx_.datasets == nullptr || !ctx_.datasets->HasDataset(fc.dataset)) {
    return Status::NotFound("unknown dataset or collection '" + fc.dataset + "'");
  }
  IDEA_ASSIGN_OR_RETURN(Snapshot snap, ctx_.datasets->GetSnapshot(fc.dataset));
  for (const Value& rec : *snap) {
    Env iter(env);
    iter.Bind(fc.alias, &rec);
    CountScannedTuple();
    IDEA_RETURN_NOT_OK(FromItemLoop(q, item + 1, &iter, emit));
  }
  return Status::OK();
}

Status Evaluator::ProduceTuples(const SelectStatement& q, Env* env,
                                const std::function<Status(Env*)>& emit) {
  if (q.from.empty()) {
    Env tuple_env(env);
    for (const auto& let : q.lets) {
      if (let.pre_from) continue;
      IDEA_ASSIGN_OR_RETURN(Value v, Eval(*let.expr, &tuple_env));
      tuple_env.BindOwned(let.name, std::move(v));
    }
    if (q.where != nullptr) {
      IDEA_ASSIGN_OR_RETURN(Value pass, Eval(*q.where, &tuple_env));
      if (!Truthy(pass)) return Status::OK();
    }
    return emit(&tuple_env);
  }
  return FromItemLoop(q, 0, env, emit);
}

Status Evaluator::EvalSelectOutput(const SelectStatement& q, Env* env, Value* out) {
  if (q.select_value != nullptr) {
    IDEA_ASSIGN_OR_RETURN(*out, Eval(*q.select_value, env));
    return Status::OK();
  }
  adm::Fields fields;
  for (size_t i = 0; i < q.projections.size(); ++i) {
    const Projection& p = q.projections[i];
    if (p.star && p.expr == nullptr) {
      // Bare `SELECT *`: one field per FROM variable; a single FROM variable
      // spreads its object directly.
      if (q.from.size() == 1) {
        const Value* v = env->Lookup(q.from[0].alias);
        if (v != nullptr && v->IsObject()) {
          for (const auto& [n, fv] : v->AsObject()) fields.emplace_back(n, fv);
          continue;
        }
      }
      for (const auto& f : q.from) {
        const Value* v = env->Lookup(f.alias);
        if (v != nullptr) fields.emplace_back(f.alias, *v);
      }
      continue;
    }
    Value scratch;
    IDEA_ASSIGN_OR_RETURN(const Value* v, EvalRef(*p.expr, env, &scratch));
    if (p.star) {
      // `alias.*` spreads the object's fields without copying the object
      // itself first (the per-field copies below are the output's own).
      if (v->IsUnknown()) continue;
      if (!v->IsObject()) {
        return Status::TypeMismatch("'.*' applied to a non-object value");
      }
      for (const auto& [n, fv] : v->AsObject()) fields.emplace_back(n, fv);
      continue;
    }
    if (v->IsMissing()) continue;  // MISSING fields are omitted from output
    std::string name = p.alias.empty() ? DerivedProjectionName(*p.expr, i) : p.alias;
    if (v == &scratch) {
      fields.emplace_back(std::move(name), std::move(scratch));
    } else {
      fields.emplace_back(std::move(name), *v);
    }
  }
  *out = Value::MakeObject(std::move(fields));
  return Status::OK();
}

namespace {

// A literal, a variable, or a field/index chain over them. EvalRef resolves
// it without calling a function, scanning or touching EvalStats, and it can
// fail only on an unbound variable, which fails every row of a block alike
// (all rows bind the same names).
bool IsPath(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kVarRef:
      return true;
    case ExprKind::kFieldAccess:
      return IsPath(*e.base);
    case ExprKind::kIndexAccess:
      return IsPath(*e.base) && IsPath(*e.index);
    default:
      return false;
  }
}

// SELECT VALUE <path>, or a projection list of paths without `.*`.
bool OutputIsPaths(const SelectStatement& q) {
  if (q.select_value != nullptr) return IsPath(*q.select_value);
  for (const Projection& p : q.projections) {
    if (p.star || p.expr == nullptr || !IsPath(*p.expr)) return false;
  }
  return true;
}

}  // namespace

// Rows rank by (ORDER BY keys, arrival index). The index makes the order
// total, so the survivors, sorted, are exactly std::stable_sort's first k.
// Rows append until k are held; then they form a max-heap whose front is the
// worst survivor, and each later row either replaces it or is rejected,
// leaving its scratch row (key vector included) to the next row. Without
// LIMIT, k is unbounded and Finish sorts every row.
//
// A row's output is built in its tuple (or group) scope. A path output is
// built only for rows that enter the top k; any other output is built for
// every row, so its errors and EvalStats are those of evaluating all rows.
// With k = 0 nothing is deferred, so an unbound variable in a path output
// still fails the query; with k >= 1 the first row always enters, so it
// fails at the same row as building every output would.
class Evaluator::TopK {
 public:
  TopK(Evaluator* ev, const SelectStatement& q)
      : ev_(ev),
        q_(q),
        k_(q.limit >= 0 ? static_cast<size_t>(q.limit) : std::numeric_limits<size_t>::max()),
        defer_output_(k_ > 0 && OutputIsPaths(q)) {}

  Status Offer(Env* env) {
    scratch_.keys.resize(q_.order_by.size());
    for (size_t i = 0; i < q_.order_by.size(); ++i) {
      IDEA_ASSIGN_OR_RETURN(scratch_.keys[i], ev_->Eval(*q_.order_by[i].expr, env));
    }
    scratch_.arrival = arrivals_++;
    if (!defer_output_) IDEA_RETURN_NOT_OK(ev_->EvalSelectOutput(q_, env, &scratch_.value));
    const bool full = rows_.size() == k_;
    if (full && (k_ == 0 || !less_(scratch_, rows_.front()))) return Status::OK();
    if (defer_output_) IDEA_RETURN_NOT_OK(ev_->EvalSelectOutput(q_, env, &scratch_.value));
    if (!full) {
      rows_.push_back(std::move(scratch_));
      if (rows_.size() == k_) std::make_heap(rows_.begin(), rows_.end(), less_);
      return Status::OK();
    }
    std::pop_heap(rows_.begin(), rows_.end(), less_);
    std::swap(rows_.back(), scratch_);
    std::push_heap(rows_.begin(), rows_.end(), less_);
    return Status::OK();
  }

  adm::Array Finish() {
    std::sort(rows_.begin(), rows_.end(), less_);
    adm::Array out;
    out.reserve(rows_.size());
    for (Row& row : rows_) out.push_back(std::move(row.value));
    return out;
  }

 private:
  struct Row {
    std::vector<Value> keys;
    uint64_t arrival = 0;
    Value value;
  };
  struct RowLess {
    const std::vector<OrderKey>* order_by;
    bool operator()(const Row& a, const Row& b) const {
      for (size_t i = 0; i < a.keys.size(); ++i) {
        int c = Value::Compare(a.keys[i], b.keys[i]);
        if ((*order_by)[i].descending) c = -c;
        if (c != 0) return c < 0;
      }
      return a.arrival < b.arrival;
    }
  };

  Evaluator* ev_;
  const SelectStatement& q_;
  const size_t k_;
  const bool defer_output_;
  const RowLess less_{&q_.order_by};
  uint64_t arrivals_ = 0;
  Row scratch_;
  std::vector<Row> rows_;
};

Result<bool> Evaluator::TryStreamingAggregate(const SelectStatement& q, Env* block_env,
                                              adm::Array* out) {
  // Shape check: implicit single group (no GROUP BY) where every output
  // expression is exactly one aggregate call. HAVING / ORDER BY / GROUP-LETs
  // can reference the group in ways that need materialized members, so any of
  // them routes to the materializing path.
  if (!q.group_by.empty() || !q.group_lets.empty() || q.having != nullptr ||
      !q.order_by.empty()) {
    return false;
  }
  auto is_agg_call = [](const Expr* e) {
    return e != nullptr && e->kind == ExprKind::kFunctionCall && e->fn_library.empty() &&
           e->args.size() == 1 &&
           FunctionRegistry::IsAggregate(ToLowerAscii(e->fn_name));
  };
  std::vector<const Expr*> aggs;
  if (q.select_value != nullptr) {
    if (!is_agg_call(q.select_value.get())) return false;
    aggs.push_back(q.select_value.get());
  } else {
    if (q.projections.empty()) return false;
    for (const auto& p : q.projections) {
      if (p.star || !is_agg_call(p.expr.get())) return false;
      aggs.push_back(p.expr.get());
    }
  }

  // Fold aggregate arguments tuple-by-tuple: no MaterializedTuple deep
  // copies, no second pass over members. Matches EvalAggregateCall exactly:
  // count(*) counts tuples, everything else collects the evaluated argument
  // and applies the aggregate once at the end (empty input included — the
  // implicit group exists even with zero tuples).
  struct Acc {
    std::string name;
    bool star = false;
    int64_t count = 0;
    std::vector<Value>* items = nullptr;
  };
  std::vector<Acc> accs;
  accs.reserve(aggs.size());
  for (const Expr* a : aggs) {
    Acc acc;
    acc.name = ToLowerAscii(a->fn_name);
    acc.star = a->args[0]->kind == ExprKind::kStar;
    if (acc.star && acc.name != "count") {
      return Status::InvalidArgument("'*' is only valid inside count(*)");
    }
    accs.push_back(std::move(acc));
  }
  struct ItemsLease {
    Evaluator* ev;
    std::vector<Acc>* accs;
    ~ItemsLease() {
      for (auto it = accs->rbegin(); it != accs->rend(); ++it) {
        if (it->items != nullptr) ev->ReleaseValueVec(it->items);
      }
    }
  } lease{this, &accs};
  for (Acc& acc : accs) {
    if (!acc.star) acc.items = AcquireValueVec();
  }

  IDEA_RETURN_NOT_OK(ProduceTuples(q, block_env, [&](Env* tuple_env) -> Status {
    for (size_t j = 0; j < accs.size(); ++j) {
      Acc& acc = accs[j];
      if (acc.star) {
        ++acc.count;
        continue;
      }
      IDEA_ASSIGN_OR_RETURN(Value v, Eval(*aggs[j]->args[0], tuple_env));
      acc.items->push_back(std::move(v));
    }
    return Status::OK();
  }));

  std::vector<Value> results;
  results.reserve(accs.size());
  for (Acc& acc : accs) {
    if (acc.star) {
      results.push_back(Value::MakeInt(acc.count));
    } else {
      IDEA_ASSIGN_OR_RETURN(Value v, ApplyAggregate(acc.name, *acc.items));
      results.push_back(std::move(v));
    }
  }

  if (q.select_value != nullptr) {
    out->push_back(std::move(results[0]));
  } else {
    adm::Fields fields;
    for (size_t i = 0; i < q.projections.size(); ++i) {
      Value& v = results[i];
      if (v.IsMissing()) continue;
      std::string name = q.projections[i].alias.empty()
                             ? DerivedProjectionName(*q.projections[i].expr, i)
                             : q.projections[i].alias;
      fields.emplace_back(std::move(name), std::move(v));
    }
    out->push_back(Value::MakeObject(std::move(fields)));
  }
  if (q.limit >= 0 && out->size() > static_cast<size_t>(q.limit)) {
    out->resize(static_cast<size_t>(q.limit));
  }
  return true;
}

Result<adm::Array> Evaluator::EvalQuery(const SelectStatement& q, Env* env) {
  if (++depth_ > 4 * ctx_.max_recursion_depth) {
    --depth_;
    return Status::ResourceExhausted("maximum query nesting depth exceeded");
  }
  struct DepthGuard {
    int* d;
    ~DepthGuard() { --*d; }
  } guard{&depth_};

  Env block_env(env);
  for (const auto& let : q.lets) {
    if (!let.pre_from) continue;
    IDEA_ASSIGN_OR_RETURN(Value v, Eval(*let.expr, &block_env));
    block_env.BindOwned(let.name, std::move(v));
  }

  bool grouped = !q.group_by.empty();
  if (!grouped) {
    bool has_agg = (q.select_value != nullptr && ContainsAggregate(*q.select_value)) ||
                   (q.having != nullptr && ContainsAggregate(*q.having));
    for (const auto& p : q.projections) {
      if (p.expr != nullptr && ContainsAggregate(*p.expr)) has_agg = true;
    }
    for (const auto& o : q.order_by) {
      if (ContainsAggregate(*o.expr)) has_agg = true;
    }
    grouped = has_agg;  // implicit single-group aggregation
  }

  adm::Array out;

  if (!grouped && q.order_by.empty()) {
    Status st = ProduceTuples(q, &block_env, [&](Env* tuple_env) -> Status {
      Value row;
      IDEA_RETURN_NOT_OK(EvalSelectOutput(q, tuple_env, &row));
      out.push_back(std::move(row));
      if (q.limit >= 0 && out.size() >= static_cast<size_t>(q.limit)) {
        return Status::Aborted(kLimitReached);
      }
      return Status::OK();
    });
    if (!st.ok() && !IsLimitSentinel(st)) return st;
    return out;
  }

  if (!grouped) {
    // ORDER BY (and optional LIMIT) without grouping.
    TopK top(this, q);
    IDEA_RETURN_NOT_OK(ProduceTuples(
        q, &block_env, [&](Env* tuple_env) -> Status { return top.Offer(tuple_env); }));
    return top.Finish();
  }

  // Implicit single-group aggregation over pure aggregate outputs streams.
  if (q.group_by.empty()) {
    IDEA_ASSIGN_OR_RETURN(bool streamed, TryStreamingAggregate(q, &block_env, &out));
    if (streamed) return out;
  }

  // Grouped evaluation (explicit GROUP BY or implicit aggregation).
  const std::vector<std::string> var_names = TupleVarNames(q);
  struct Group {
    std::vector<Value> key_values;
    std::vector<MaterializedTuple> members;
  };
  std::vector<Group> groups;
  std::map<std::vector<Value>, size_t> group_index;  // Value::operator< total order

  IDEA_RETURN_NOT_OK(ProduceTuples(q, &block_env, [&](Env* tuple_env) -> Status {
    std::vector<Value> key;
    key.reserve(q.group_by.size());
    for (const auto& g : q.group_by) {
      IDEA_ASSIGN_OR_RETURN(Value k, Eval(*g.expr, tuple_env));
      key.push_back(std::move(k));
    }
    auto [it, inserted] = group_index.try_emplace(key, groups.size());
    if (inserted) {
      groups.push_back(Group{std::move(key), {}});
    }
    MaterializedTuple tuple;
    for (const auto& name : var_names) {
      const Value* v = tuple_env->Lookup(name);
      if (v != nullptr) tuple.bindings.emplace_back(name, *v);
    }
    groups[it->second].members.push_back(std::move(tuple));
    return Status::OK();
  }));

  // Implicit aggregation over an empty input still produces one (empty) group.
  if (groups.empty() && q.group_by.empty()) {
    groups.push_back(Group{{}, {}});
  }

  TopK top(this, q);
  for (const Group& g : groups) {
    Env group_env(&block_env);
    for (size_t i = 0; i < q.group_by.size(); ++i) {
      if (!q.group_by[i].alias.empty()) {
        group_env.Bind(q.group_by[i].alias, &g.key_values[i]);
      }
    }
    GroupContext gctx;
    gctx.keys = &q.group_by;
    gctx.key_values = &g.key_values;
    gctx.members = &g.members;
    gctx.base_env = &block_env;
    group_stack_.push_back(gctx);
    struct PopGuard {
      std::vector<GroupContext>* s;
      ~PopGuard() { s->pop_back(); }
    } pop_guard{&group_stack_};

    for (const auto& let : q.group_lets) {
      IDEA_ASSIGN_OR_RETURN(Value v, Eval(*let.expr, &group_env));
      group_env.BindOwned(let.name, std::move(v));
    }
    if (q.having != nullptr) {
      IDEA_ASSIGN_OR_RETURN(Value pass, Eval(*q.having, &group_env));
      if (!Truthy(pass)) continue;
    }
    IDEA_RETURN_NOT_OK(top.Offer(&group_env));
  }
  return top.Finish();
}

}  // namespace idea::sqlpp
