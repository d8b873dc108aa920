// Abstract syntax for the SQL++ subset: expressions, query blocks, DDL and
// DML statements. Covers every statement that appears in the paper
// (Figures 1, 4, 6, 8-14, 18, 32-40).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"

namespace idea::sqlpp {

struct SelectStatement;

/// Expression node kinds.
enum class ExprKind : uint8_t {
  kLiteral,
  kVarRef,
  kFieldAccess,
  kIndexAccess,
  kUnary,
  kBinary,
  kFunctionCall,
  kCase,
  kSubquery,
  kExists,
  kIn,
  kObjectConstructor,
  kArrayConstructor,
  kStar,  // '*' inside count(*)
};

enum class UnaryOp : uint8_t { kNot, kNegate };

enum class BinaryOp : uint8_t {
  kAnd,
  kOr,
  kEq,
  kNeq,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kConcat,
};

const char* BinaryOpName(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// One WHEN/THEN arm of a CASE expression.
struct CaseArm {
  ExprPtr when;
  ExprPtr then;
};

/// A single expression node (tagged; unused members are empty).
struct Expr {
  ExprKind kind;

  // kLiteral
  adm::Value literal;
  // kVarRef
  std::string var;
  // kFieldAccess: base + field; kIndexAccess: base + index
  ExprPtr base;
  std::string field;
  ExprPtr index;
  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kAnd;
  ExprPtr left;
  ExprPtr right;
  // kFunctionCall: optionally library-qualified ("testlib#removeSpecial")
  std::string fn_library;
  std::string fn_name;
  std::vector<ExprPtr> args;
  // kCase
  ExprPtr case_operand;  // null for searched CASE
  std::vector<CaseArm> case_arms;
  ExprPtr case_else;
  // kSubquery / kExists / kIn (right side may be subquery or expression)
  std::unique_ptr<SelectStatement> subquery;
  // kObjectConstructor
  std::vector<std::pair<std::string, ExprPtr>> object_fields;
  // kArrayConstructor
  std::vector<ExprPtr> elements;

  /// Deep structural equality (used to match SELECT expressions against
  /// GROUP BY keys).
  static bool Equals(const Expr& a, const Expr& b);

  /// Deep copy.
  ExprPtr Clone() const;

  /// Rendering for diagnostics and plan explanations.
  std::string ToString() const;
};

ExprPtr MakeLiteral(adm::Value v);
ExprPtr MakeVarRef(std::string name);
ExprPtr MakeFieldAccess(ExprPtr base, std::string field);
ExprPtr MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r);

/// FROM-item hints recognized by the access-path chooser.
struct FromHints {
  bool skip_index = false;   // /*+ skip-index */ : forces a scan (naive) join
  bool force_index = false;  // /*+ indexnl */    : forces index nested loop
};

/// One FROM item: `FROM <source> [AS] <alias>`. The source is a dataset name,
/// a feed reference, or an arbitrary collection expression.
struct FromClause {
  enum class Source : uint8_t { kDataset, kFeed, kExpression };
  Source source = Source::kDataset;
  std::string dataset;  // kDataset / kFeed
  ExprPtr expr;         // kExpression
  std::string alias;
  FromHints hints;
};

/// `LET name = expr`. `pre_from` marks LETs that appeared before the FROM
/// clause textually (Figure 10's `LET TweetsBatch = ([...]) SELECT ... FROM
/// TweetsBatch t`); these are evaluated before FROM binding.
struct LetClause {
  std::string name;
  ExprPtr expr;
  bool pre_from = false;
};

/// One projection in a SELECT list: `expr [AS alias]` or `expr.*`.
struct Projection {
  ExprPtr expr;
  std::string alias;  // empty -> derived from expression
  bool star = false;  // `expr.*` (spread the object's fields)
};

struct GroupKey {
  ExprPtr expr;
  std::string alias;  // `GROUP BY e AS alias`; may be empty
};

struct OrderKey {
  ExprPtr expr;
  bool descending = false;
};

/// A SQL++ query block. `SELECT VALUE e` sets select_value; otherwise
/// `projections` build an output object. FROM may be empty (constant block,
/// as in UDF bodies: `{ LET ... SELECT t.*, flag }`).
struct SelectStatement {
  std::vector<FromClause> from;
  std::vector<LetClause> lets;
  ExprPtr where;
  std::vector<GroupKey> group_by;
  std::vector<LetClause> group_lets;  // LET after GROUP BY (not used by paper, kept simple)
  ExprPtr having;
  std::vector<OrderKey> order_by;
  int64_t limit = -1;  // -1 = unlimited
  ExprPtr select_value;
  std::vector<Projection> projections;

  std::unique_ptr<SelectStatement> Clone() const;
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind : uint8_t {
  kCreateType,
  kCreateDataset,
  kCreateIndex,
  kCreateFunction,
  kCreateFeed,
  kConnectFeed,
  kStartFeed,
  kStopFeed,
  kInsert,
  kUpsert,
  kQuery,
  kDropDataset,
  kDropFunction,
};

struct TypeFieldDecl {
  std::string name;
  std::string type_name;
  bool optional = false;
};

struct CreateTypeStatement {
  std::string name;
  bool open = true;
  std::vector<TypeFieldDecl> fields;
};

struct CreateDatasetStatement {
  std::string name;
  std::string type_name;
  std::string primary_key;
};

struct CreateIndexStatement {
  std::string name;
  std::string dataset;
  std::string field;
  std::string index_type;  // "btree" | "rtree"
};

struct CreateFunctionStatement {
  std::string name;
  std::vector<std::string> params;
  std::unique_ptr<SelectStatement> body;
  bool or_replace = false;
};

struct CreateFeedStatement {
  std::string name;
  std::map<std::string, std::string> config;  // WITH { "k": "v", ... }
};

struct ConnectFeedStatement {
  std::string feed;
  std::string dataset;
  std::string apply_function;  // empty when no UDF attached
};

struct FeedControlStatement {
  std::string feed;
};

/// INSERT/UPSERT INTO <dataset> ( <query or literal collection> ).
struct InsertStatement {
  std::string dataset;
  std::unique_ptr<SelectStatement> query;  // either query ...
  ExprPtr collection;                      // ... or a constant collection expr
  bool upsert = false;
};

struct DropStatement {
  std::string name;
  bool if_exists = false;
};

/// A parsed top-level statement (tagged union of the above).
struct Statement {
  StatementKind kind;
  CreateTypeStatement create_type;
  CreateDatasetStatement create_dataset;
  CreateIndexStatement create_index;
  CreateFunctionStatement create_function;
  CreateFeedStatement create_feed;
  ConnectFeedStatement connect_feed;
  FeedControlStatement feed_control;
  InsertStatement insert;
  std::unique_ptr<SelectStatement> query;
  DropStatement drop;
};

}  // namespace idea::sqlpp
