#include "sqlpp/ast.h"

#include "common/string_util.h"

namespace idea::sqlpp {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNeq:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kConcat:
      return "||";
  }
  return "?";
}

namespace {
bool PtrEquals(const ExprPtr& a, const ExprPtr& b) {
  if ((a == nullptr) != (b == nullptr)) return false;
  if (a == nullptr) return true;
  return Expr::Equals(*a, *b);
}
}  // namespace

bool Expr::Equals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::kLiteral:
      return a.literal == b.literal;
    case ExprKind::kVarRef:
      return a.var == b.var;
    case ExprKind::kFieldAccess:
      return a.field == b.field && PtrEquals(a.base, b.base);
    case ExprKind::kIndexAccess:
      return PtrEquals(a.base, b.base) && PtrEquals(a.index, b.index);
    case ExprKind::kUnary:
      return a.unary_op == b.unary_op && PtrEquals(a.left, b.left);
    case ExprKind::kBinary:
      return a.binary_op == b.binary_op && PtrEquals(a.left, b.left) &&
             PtrEquals(a.right, b.right);
    case ExprKind::kFunctionCall: {
      if (a.fn_library != b.fn_library || a.fn_name != b.fn_name ||
          a.args.size() != b.args.size())
        return false;
      for (size_t i = 0; i < a.args.size(); ++i) {
        if (!PtrEquals(a.args[i], b.args[i])) return false;
      }
      return true;
    }
    case ExprKind::kCase: {
      if (!PtrEquals(a.case_operand, b.case_operand) ||
          !PtrEquals(a.case_else, b.case_else) || a.case_arms.size() != b.case_arms.size())
        return false;
      for (size_t i = 0; i < a.case_arms.size(); ++i) {
        if (!PtrEquals(a.case_arms[i].when, b.case_arms[i].when) ||
            !PtrEquals(a.case_arms[i].then, b.case_arms[i].then))
          return false;
      }
      return true;
    }
    case ExprKind::kStar:
      return true;
    case ExprKind::kSubquery:
    case ExprKind::kExists:
    case ExprKind::kIn:
      // Subqueries compare by identity only (never needed structurally).
      return false;
    case ExprKind::kObjectConstructor: {
      if (a.object_fields.size() != b.object_fields.size()) return false;
      for (size_t i = 0; i < a.object_fields.size(); ++i) {
        if (a.object_fields[i].first != b.object_fields[i].first ||
            !PtrEquals(a.object_fields[i].second, b.object_fields[i].second))
          return false;
      }
      return true;
    }
    case ExprKind::kArrayConstructor: {
      if (a.elements.size() != b.elements.size()) return false;
      for (size_t i = 0; i < a.elements.size(); ++i) {
        if (!PtrEquals(a.elements[i], b.elements[i])) return false;
      }
      return true;
    }
  }
  return false;
}

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->literal = literal;
  out->var = var;
  out->field = field;
  out->unary_op = unary_op;
  out->binary_op = binary_op;
  out->fn_library = fn_library;
  out->fn_name = fn_name;
  if (base) out->base = base->Clone();
  if (index) out->index = index->Clone();
  if (left) out->left = left->Clone();
  if (right) out->right = right->Clone();
  for (const auto& a : args) out->args.push_back(a->Clone());
  if (case_operand) out->case_operand = case_operand->Clone();
  for (const auto& arm : case_arms) {
    out->case_arms.push_back(CaseArm{arm.when->Clone(), arm.then->Clone()});
  }
  if (case_else) out->case_else = case_else->Clone();
  if (subquery) out->subquery = subquery->Clone();
  for (const auto& [n, e] : object_fields) out->object_fields.emplace_back(n, e->Clone());
  for (const auto& e : elements) out->elements.push_back(e->Clone());
  return out;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kVarRef:
      return var;
    case ExprKind::kFieldAccess:
      return base->ToString() + "." + field;
    case ExprKind::kIndexAccess:
      return base->ToString() + "[" + index->ToString() + "]";
    case ExprKind::kUnary: {
      std::string s = unary_op == UnaryOp::kNot ? "NOT " : "-";
      s += left->ToString();
      return s;
    }
    case ExprKind::kBinary: {
      std::string s = "(";
      s += left->ToString();
      s += " ";
      s += BinaryOpName(binary_op);
      s += " ";
      s += right->ToString();
      return s + ")";
    }
    case ExprKind::kFunctionCall: {
      std::string s = fn_library.empty() ? fn_name : fn_library + "#" + fn_name;
      s += "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) s += ", ";
        s += args[i]->ToString();
      }
      return s + ")";
    }
    case ExprKind::kCase: {
      std::string s = "CASE";
      if (case_operand) {
        s += " ";
        s += case_operand->ToString();
      }
      for (const auto& arm : case_arms) {
        s += " WHEN ";
        s += arm.when->ToString();
        s += " THEN ";
        s += arm.then->ToString();
      }
      if (case_else) {
        s += " ELSE ";
        s += case_else->ToString();
      }
      return s + " END";
    }
    case ExprKind::kSubquery: {
      std::string s = "(";
      s += subquery->ToString();
      return s + ")";
    }
    case ExprKind::kExists: {
      std::string s = "EXISTS (";
      s += subquery->ToString();
      return s + ")";
    }
    case ExprKind::kIn: {
      std::string s = left->ToString() + " IN ";
      if (!subquery) return s + right->ToString();
      s += "(";
      s += subquery->ToString();
      return s + ")";
    }
    case ExprKind::kObjectConstructor: {
      std::string s = "{";
      for (size_t i = 0; i < object_fields.size(); ++i) {
        if (i) s += ", ";
        s += "\"" + object_fields[i].first + "\": " + object_fields[i].second->ToString();
      }
      return s + "}";
    }
    case ExprKind::kArrayConstructor: {
      std::string s = "[";
      for (size_t i = 0; i < elements.size(); ++i) {
        if (i) s += ", ";
        s += elements[i]->ToString();
      }
      return s + "]";
    }
    case ExprKind::kStar:
      return "*";
  }
  return "?";
}

ExprPtr MakeLiteral(adm::Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeVarRef(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kVarRef;
  e->var = std::move(name);
  return e;
}

ExprPtr MakeFieldAccess(ExprPtr base, std::string field) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFieldAccess;
  e->base = std::move(base);
  e->field = std::move(field);
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

std::unique_ptr<SelectStatement> SelectStatement::Clone() const {
  auto out = std::make_unique<SelectStatement>();
  for (const auto& f : from) {
    FromClause fc;
    fc.source = f.source;
    fc.dataset = f.dataset;
    if (f.expr) fc.expr = f.expr->Clone();
    fc.alias = f.alias;
    fc.hints = f.hints;
    out->from.push_back(std::move(fc));
  }
  for (const auto& l : lets) {
    out->lets.push_back(LetClause{l.name, l.expr->Clone(), l.pre_from});
  }
  if (where) out->where = where->Clone();
  for (const auto& g : group_by) out->group_by.push_back(GroupKey{g.expr->Clone(), g.alias});
  for (const auto& l : group_lets)
    out->group_lets.push_back(LetClause{l.name, l.expr->Clone()});
  if (having) out->having = having->Clone();
  for (const auto& o : order_by)
    out->order_by.push_back(OrderKey{o.expr->Clone(), o.descending});
  out->limit = limit;
  if (select_value) out->select_value = select_value->Clone();
  for (const auto& p : projections) {
    out->projections.push_back(Projection{p.expr->Clone(), p.alias, p.star});
  }
  return out;
}

std::string SelectStatement::ToString() const {
  std::string s = "SELECT ";
  if (select_value) {
    s += "VALUE ";
    s += select_value->ToString();
  } else {
    for (size_t i = 0; i < projections.size(); ++i) {
      if (i) s += ", ";
      s += projections[i].expr->ToString();
      if (projections[i].star) s += ".*";
      if (!projections[i].alias.empty()) s += " AS " + projections[i].alias;
    }
  }
  for (size_t i = 0; i < from.size(); ++i) {
    s += i == 0 ? " FROM " : ", ";
    const auto& f = from[i];
    if (f.source == FromClause::Source::kExpression) {
      s += f.expr->ToString();
    } else {
      if (f.source == FromClause::Source::kFeed) s += "FEED ";
      s += f.dataset;
    }
    s += " " + f.alias;
  }
  for (const auto& l : lets) s += " LET " + l.name + " = " + l.expr->ToString();
  if (where) {
    s += " WHERE ";
    s += where->ToString();
  }
  for (size_t i = 0; i < group_by.size(); ++i) {
    s += i == 0 ? " GROUP BY " : ", ";
    s += group_by[i].expr->ToString();
    if (!group_by[i].alias.empty()) s += " AS " + group_by[i].alias;
  }
  if (having) {
    s += " HAVING ";
    s += having->ToString();
  }
  for (size_t i = 0; i < order_by.size(); ++i) {
    s += i == 0 ? " ORDER BY " : ", ";
    s += order_by[i].expr->ToString();
    if (order_by[i].descending) s += " DESC";
  }
  if (limit >= 0) {
    s += " LIMIT ";
    s += std::to_string(limit);
  }
  return s;
}

}  // namespace idea::sqlpp
