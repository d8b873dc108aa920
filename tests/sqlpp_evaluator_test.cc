#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "adm/json.h"
#include "common/rng.h"
#include "sqlpp/evaluator.h"
#include "sqlpp/parser.h"

namespace idea::sqlpp {
namespace {

using adm::Value;

/// In-memory dataset accessor for evaluator tests.
class MapAccessor : public DatasetAccessor {
 public:
  void Add(const std::string& name, std::vector<Value> records) {
    data_[name] = std::make_shared<std::vector<Value>>(std::move(records));
  }
  bool HasDataset(const std::string& dataset) const override {
    return data_.count(dataset) > 0;
  }
  Result<Snapshot> GetSnapshot(const std::string& dataset) override {
    auto it = data_.find(dataset);
    if (it == data_.end()) return Status::NotFound(dataset);
    return Snapshot(it->second);
  }

 private:
  std::map<std::string, std::shared_ptr<std::vector<Value>>> data_;
};

/// Minimal resolver exposing registered SQL++ functions.
class MapResolver : public FunctionResolver {
 public:
  void Register(SqlppFunctionDef def) { fns_[def.name] = std::move(def); }
  const SqlppFunctionDef* FindSqlppFunction(const std::string& name) const override {
    auto it = fns_.find(name);
    return it == fns_.end() ? nullptr : &it->second;
  }
  NativeFunctionHandle* FindNativeFunction(const std::string&) const override {
    return nullptr;
  }

 private:
  std::map<std::string, SqlppFunctionDef> fns_;
};

Value J(const std::string& json) {
  auto v = adm::ParseJson(json);
  EXPECT_TRUE(v.ok()) << json;
  return std::move(v).value();
}

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() {
    accessor_.Add("Nums", {J(R"({"id":1,"v":10,"g":"a"})"), J(R"({"id":2,"v":20,"g":"b"})"),
                           J(R"({"id":3,"v":30,"g":"a"})"), J(R"({"id":4,"v":40,"g":"b"})"),
                           J(R"({"id":5,"v":50,"g":"a"})")});
    accessor_.Add("Words", {J(R"({"country":"US","word":"bomb"})"),
                            J(R"({"country":"US","word":"attack"})"),
                            J(R"({"country":"FR","word":"siege"})")});
    ctx_.datasets = &accessor_;
    ctx_.functions = &resolver_;
  }

  Value EvalExpr(const std::string& text) {
    auto e = ParseExpression(text);
    EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
    Evaluator ev(ctx_);
    Env env;
    auto r = ev.Eval(**e, &env);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    return r.ok() ? std::move(r).value() : Value();
  }

  Status EvalExprStatus(const std::string& text) {
    auto e = ParseExpression(text);
    if (!e.ok()) return e.status();
    Evaluator ev(ctx_);
    Env env;
    auto r = ev.Eval(**e, &env);
    return r.ok() ? Status::OK() : r.status();
  }

  adm::Array Query(const std::string& text) {
    auto s = ParseStatement(text);
    EXPECT_TRUE(s.ok()) << text << ": " << s.status().ToString();
    EXPECT_EQ(s->kind, StatementKind::kQuery);
    Evaluator ev(ctx_);
    Env env;
    auto r = ev.EvalQuery(*s->query, &env);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    return r.ok() ? std::move(r).value() : adm::Array{};
  }

  MapAccessor accessor_;
  MapResolver resolver_;
  EvalContext ctx_;
};

TEST_F(EvaluatorTest, Arithmetic) {
  EXPECT_EQ(EvalExpr("1 + 2 * 3").AsInt(), 7);
  EXPECT_DOUBLE_EQ(EvalExpr("7 / 2").AsDouble(), 3.5);
  EXPECT_EQ(EvalExpr("-(3 - 5)").AsInt(), 2);
  EXPECT_DOUBLE_EQ(EvalExpr("1.5 + 1").AsDouble(), 2.5);
  EXPECT_EQ(EvalExpr("\"a\" || \"b\"").AsString(), "ab");
  EXPECT_TRUE(EvalExpr("1 / 0").IsNull());
}

TEST_F(EvaluatorTest, ThreeValuedLogic) {
  EXPECT_TRUE(EvalExpr("null AND true").IsNull());
  EXPECT_FALSE(EvalExpr("null AND false").AsBool());
  EXPECT_TRUE(EvalExpr("null OR true").AsBool());
  EXPECT_TRUE(EvalExpr("null OR false").IsNull());
  EXPECT_TRUE(EvalExpr("NOT null").IsNull());
  EXPECT_TRUE(EvalExpr("missing = 1").IsNull());
}

TEST_F(EvaluatorTest, Comparisons) {
  EXPECT_TRUE(EvalExpr("2 < 3").AsBool());
  EXPECT_TRUE(EvalExpr("2 = 2.0").AsBool());
  EXPECT_TRUE(EvalExpr("\"abc\" != \"abd\"").AsBool());
  EXPECT_FALSE(EvalExpr("1 = \"1\"").AsBool());
}

TEST_F(EvaluatorTest, CaseForms) {
  EXPECT_EQ(EvalExpr("CASE 2 WHEN 1 THEN \"a\" WHEN 2 THEN \"b\" ELSE \"c\" END").AsString(),
            "b");
  EXPECT_EQ(EvalExpr("CASE WHEN false THEN 1 ELSE 2 END").AsInt(), 2);
  EXPECT_TRUE(EvalExpr("CASE 9 WHEN 1 THEN 1 END").IsNull());
  EXPECT_EQ(EvalExpr("CASE 1 = 1 WHEN true THEN \"Red\" ELSE \"Green\" END").AsString(),
            "Red");
}

TEST_F(EvaluatorTest, FieldAndIndexAccess) {
  EXPECT_EQ(EvalExpr("{\"a\": {\"b\": 5}}.a.b").AsInt(), 5);
  EXPECT_TRUE(EvalExpr("{\"a\": 1}.zzz").IsMissing());
  EXPECT_EQ(EvalExpr("[10, 20, 30][1]").AsInt(), 20);
  EXPECT_TRUE(EvalExpr("[10][5]").IsMissing());
  EXPECT_TRUE(EvalExpr("5 . foo").IsMissing());
}

TEST_F(EvaluatorTest, BuiltinFunctions) {
  EXPECT_TRUE(EvalExpr("contains(\"hello world\", \"world\")").AsBool());
  EXPECT_EQ(EvalExpr("edit_distance(\"kitten\", \"sitting\")").AsInt(), 3);
  EXPECT_TRUE(EvalExpr(
                  "spatial_intersect(create_point(1.0, 1.0), "
                  "create_circle(create_point(0.0, 0.0), 2.0))")
                  .AsBool());
  EXPECT_EQ(EvalExpr("lower(\"ABC\")").AsString(), "abc");
  EXPECT_TRUE(EvalExpr("is_missing(missing)").AsBool());
  EXPECT_EQ(EvalExprStatus("no_such_fn(1)").code(), StatusCode::kNotFound);
}

TEST_F(EvaluatorTest, DatetimeArithmetic) {
  Value v = EvalExpr("datetime(\"2018-11-15T00:00:00Z\") + duration(\"P2M\")");
  ASSERT_TRUE(v.IsDateTime());
  EXPECT_TRUE(
      EvalExpr("datetime(\"2019-01-01\") < datetime(\"2018-11-15\") + duration(\"P2M\")")
          .AsBool());
}

TEST_F(EvaluatorTest, UnboundVariableIsError) {
  EXPECT_EQ(EvalExprStatus("nope").code(), StatusCode::kInvalidArgument);
}

TEST_F(EvaluatorTest, SelectValueScan) {
  adm::Array rows = Query("SELECT VALUE n.v FROM Nums n;");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].AsInt(), 10);
}

TEST_F(EvaluatorTest, WhereFilters) {
  adm::Array rows = Query("SELECT VALUE n.id FROM Nums n WHERE n.v > 25;");
  ASSERT_EQ(rows.size(), 3u);
}

TEST_F(EvaluatorTest, ProjectionNamingRules) {
  adm::Array rows = Query("SELECT n.v, n.v * 2 AS twice, n.v + 1 FROM Nums n LIMIT 1;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetField("v")->AsInt(), 10);
  EXPECT_EQ(rows[0].GetField("twice")->AsInt(), 20);
  EXPECT_EQ(rows[0].GetField("$3")->AsInt(), 11);
}

TEST_F(EvaluatorTest, StarSpread) {
  adm::Array rows = Query("SELECT n.*, n.v + 1 AS next FROM Nums n WHERE n.id = 1;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetField("id")->AsInt(), 1);
  EXPECT_EQ(rows[0].GetField("next")->AsInt(), 11);
}

TEST_F(EvaluatorTest, OrderByAndLimit) {
  adm::Array rows = Query("SELECT VALUE n.v FROM Nums n ORDER BY n.v DESC LIMIT 2;");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].AsInt(), 50);
  EXPECT_EQ(rows[1].AsInt(), 40);
}

TEST_F(EvaluatorTest, NanEqualsOnlyNan) {
  EXPECT_FALSE(EvalExpr("sqrt(-1) = 5").AsBool());
  EXPECT_TRUE(EvalExpr("sqrt(-1) = sqrt(-4)").AsBool());
  EXPECT_TRUE(EvalExpr("sqrt(-1) > 1000000").AsBool());
}

// sqrt(v) is NaN for the negative v, and NaN sorts after every number.
class NanKeyTest : public EvaluatorTest {
 protected:
  NanKeyTest() {
    std::vector<Value> nums;
    for (int64_t v : {9, -1, 1, -4, 4, 16, -9, 0, 25}) {
      nums.push_back(Value::MakeObject({{"v", Value::MakeInt(v)}}));
    }
    accessor_.Add("Nums", std::move(nums));
  }
};

TEST_F(NanKeyTest, OrderByPutsNanKeysLastInArrivalOrder) {
  adm::Array rows = Query("SELECT VALUE n.v FROM Nums n ORDER BY sqrt(n.v);");
  std::vector<int64_t> got;
  for (const Value& r : rows) got.push_back(r.AsInt());
  EXPECT_EQ(got, (std::vector<int64_t>{0, 1, 4, 9, 16, 25, -1, -4, -9}));
}

TEST_F(NanKeyTest, GroupByKeepsNanKeysInTheirOwnGroup) {
  adm::Array rows = Query("SELECT k, count(*) AS c FROM Nums n GROUP BY sqrt(n.v) AS k;");
  ASSERT_EQ(rows.size(), 7u);
  std::map<std::string, int64_t> counts;
  for (const Value& r : rows) {
    double k = r.GetField("k")->AsDouble();
    counts[std::isnan(k) ? "nan" : std::to_string(k)] = r.GetField("c")->AsInt();
  }
  EXPECT_EQ(counts[std::to_string(3.0)], 1);
  EXPECT_EQ(counts["nan"], 3);
}

// ORDER BY ... LIMIT against a reference computed here: std::stable_sort
// over the seeded records, cut to the LIMIT. Keys mix ints, doubles (NaN
// included), strings, null and missing, with many duplicates.
class OrderByReferenceTest : public EvaluatorTest,
                             public ::testing::WithParamInterface<uint64_t> {
 protected:
  static constexpr size_t kRows = 60;
  static constexpr int64_t kNoLimit = -1;

  OrderByReferenceTest() {
    Rng rng(GetParam());
    for (size_t i = 0; i < kRows; ++i) {
      adm::Fields f;
      f.emplace_back("id", Value::MakeInt(static_cast<int64_t>(i)));
      Value a = RandomKey(&rng);
      if (!a.IsMissing()) f.emplace_back("a", std::move(a));
      if (rng.NextBool(0.8)) f.emplace_back("b", Value::MakeInt(rng.NextInRange(0, 2)));
      f.emplace_back("g", rng.NextBool(0.2) ? Value::MakeInt(rng.NextInRange(0, 1))
                                            : Value::MakeString(rng.NextAlpha(1)));
      records_.push_back(Value::MakeObject(std::move(f)));
    }
    accessor_.Add("R", records_);
  }

  static Value RandomKey(Rng* rng) {
    switch (rng->NextBelow(6)) {
      case 0:
        return Value::MakeInt(rng->NextInRange(0, 3));
      case 1: {
        const double d[] = {0.5, 1.0, 2.0, std::numeric_limits<double>::quiet_NaN()};
        return Value::MakeDouble(d[rng->NextBelow(4)]);
      }
      case 2:
        return Value::MakeString(rng->NextBool(0.5) ? "x" : "y");
      case 3:
        return Value::MakeNull();
      case 4:
        return Value::MakeMissing();
      default:
        return Value::MakeInt(1);  // ties with 1, 1.0 and other 1s
    }
  }

  static std::string WithLimit(const std::string& query, int64_t limit) {
    return limit == kNoLimit ? query + ";" : query + " LIMIT " + std::to_string(limit) + ";";
  }

  // Indexes into `keys` in stable_sort order of the key vectors, cut to
  // `limit`.
  static std::vector<size_t> Reference(const std::vector<std::vector<Value>>& keys,
                                       const std::vector<bool>& descending, int64_t limit) {
    std::vector<size_t> order(keys.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      for (size_t i = 0; i < descending.size(); ++i) {
        int c = Value::Compare(keys[x][i], keys[y][i]);
        if (descending[i]) c = -c;
        if (c != 0) return c < 0;
      }
      return false;
    });
    if (limit != kNoLimit) order.resize(std::min(order.size(), static_cast<size_t>(limit)));
    return order;
  }

  // Record indexes ordered by the named fields (missing when absent).
  std::vector<size_t> RecordOrder(const std::vector<std::string>& fields,
                                  const std::vector<bool>& descending, int64_t limit) const {
    std::vector<std::vector<Value>> keys;
    for (const Value& r : records_) {
      keys.emplace_back();
      for (const std::string& f : fields) keys.back().push_back(r.GetFieldOrMissing(f));
    }
    return Reference(keys, descending, limit);
  }

  const Value& Field(size_t record, const std::string& name) const {
    return records_[record].GetFieldOrMissing(name);
  }

  void ExpectRows(const std::string& query, const adm::Array& expected) {
    adm::Array rows = Query(query);
    EXPECT_EQ(Value::MakeArray(rows).ToString(), Value::MakeArray(expected).ToString())
        << query;
  }

  std::vector<int64_t> Limits() const {
    return {kNoLimit, 0, 1, 3, static_cast<int64_t>(kRows), static_cast<int64_t>(kRows) + 5};
  }

  std::vector<Value> records_;
};

TEST_P(OrderByReferenceTest, PathValueOneKey) {
  for (bool desc : {false, true}) {
    for (int64_t limit : Limits()) {
      adm::Array expected;
      for (size_t i : RecordOrder({"a"}, {desc}, limit)) expected.push_back(Field(i, "id"));
      ExpectRows(WithLimit(std::string("SELECT VALUE r.id FROM R r ORDER BY r.a") +
                               (desc ? " DESC" : ""),
                           limit),
                 expected);
    }
  }
}

TEST_P(OrderByReferenceTest, ProjectionListTwoKeys) {
  for (int64_t limit : Limits()) {
    adm::Array expected;
    for (size_t i : RecordOrder({"b", "a"}, {true, false}, limit)) {
      adm::Fields f;
      f.emplace_back("id", Field(i, "id"));
      if (!Field(i, "a").IsMissing()) f.emplace_back("k", Field(i, "a"));
      expected.push_back(Value::MakeObject(std::move(f)));
    }
    ExpectRows(WithLimit("SELECT r.id, r.a AS k FROM R r ORDER BY r.b DESC, r.a", limit),
               expected);
  }
}

TEST_P(OrderByReferenceTest, NonPathOutputTwoKeys) {
  for (int64_t limit : Limits()) {
    adm::Array expected;
    for (size_t i : RecordOrder({"a", "b"}, {false, true}, limit)) {
      expected.push_back(Value::MakeInt(Field(i, "id").AsInt() * 10));
    }
    ExpectRows(WithLimit("SELECT VALUE r.id * 10 FROM R r ORDER BY r.a, r.b DESC", limit),
               expected);
  }
}

TEST_P(OrderByReferenceTest, GroupedOrderByCount) {
  // Groups in first-appearance order, as the evaluator forms them.
  std::vector<Value> group_keys;
  std::vector<std::vector<Value>> counts;
  for (size_t i = 0; i < kRows; ++i) {
    const Value& g = Field(i, "g");
    size_t j = 0;
    while (j < group_keys.size() && Value::Compare(group_keys[j], g) != 0) ++j;
    if (j == group_keys.size()) {
      group_keys.push_back(g);
      counts.push_back({Value::MakeInt(0)});
    }
    counts[j][0] = Value::MakeInt(counts[j][0].AsInt() + 1);
  }
  for (bool desc : {false, true}) {
    for (int64_t limit : Limits()) {
      adm::Array keys_only, with_counts;
      for (size_t j : Reference(counts, {desc}, limit)) {
        keys_only.push_back(group_keys[j]);
        with_counts.push_back(Value::MakeObject({{"g", group_keys[j]}, {"c", counts[j][0]}}));
      }
      std::string order = std::string(" GROUP BY r.g ORDER BY count(*)") + (desc ? " DESC" : "");
      ExpectRows(WithLimit("SELECT VALUE r.g FROM R r" + order, limit), keys_only);
      ExpectRows(WithLimit("SELECT r.g, count(*) AS c FROM R r" + order, limit), with_counts);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderByReferenceTest, ::testing::Values(1, 2, 3, 4, 5));

TEST_F(EvaluatorTest, OrderByLimitFailsOnAnErrorOutsideTheTopK) {
  // Only the last record's output errors (int + string), and it sorts last.
  std::vector<Value> recs;
  for (int64_t i = 0; i < 10; ++i) {
    recs.push_back(Value::MakeObject(
        {{"id", Value::MakeInt(i)}, {"s", i == 9 ? Value::MakeString("x") : Value::MakeInt(1)}}));
  }
  accessor_.Add("R", std::move(recs));
  for (const char* query : {"SELECT VALUE r.id + r.s FROM R r ORDER BY r.id LIMIT 3;",
                            "SELECT VALUE r.id + r.s FROM R r ORDER BY r.id LIMIT 0;",
                            "SELECT VALUE r.id FROM R r ORDER BY r.id + r.s LIMIT 3;"}) {
    auto s = ParseStatement(query);
    ASSERT_TRUE(s.ok()) << query;
    Evaluator ev(ctx_);
    Env env;
    auto r = ev.EvalQuery(*s->query, &env);
    ASSERT_FALSE(r.ok()) << query;
    EXPECT_EQ(r.status().code(), StatusCode::kTypeMismatch) << query;
  }
  EXPECT_EQ(Query("SELECT VALUE r.id FROM R r ORDER BY r.id LIMIT 3;").size(), 3u);
}

TEST_F(EvaluatorTest, GroupByWithAggregates) {
  adm::Array rows =
      Query("SELECT n.g AS g, count(*) AS c, sum(n.v) AS s FROM Nums n GROUP BY n.g "
            "ORDER BY n.g;");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].GetField("g")->AsString(), "a");
  EXPECT_EQ(rows[0].GetField("c")->AsInt(), 3);
  EXPECT_EQ(rows[0].GetField("s")->AsInt(), 90);
  EXPECT_EQ(rows[1].GetField("c")->AsInt(), 2);
}

TEST_F(EvaluatorTest, GroupKeyStructuralMatchInSelect) {
  // SELECT n.g (no alias) must resolve to the grouping key.
  adm::Array rows = Query("SELECT n.g, count(*) AS c FROM Nums n GROUP BY n.g ORDER BY n.g;");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].GetField("g")->AsString(), "a");
}

TEST_F(EvaluatorTest, GroupByAliasBinding) {
  adm::Array rows =
      Query("SELECT grp, count(*) AS c FROM Nums n GROUP BY n.g AS grp ORDER BY grp;");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].GetField("grp")->AsString(), "b");
}

TEST_F(EvaluatorTest, ImplicitAggregationWithoutGroupBy) {
  adm::Array rows = Query("SELECT sum(n.v) AS total, count(*) AS c FROM Nums n;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetField("total")->AsInt(), 150);
  EXPECT_EQ(rows[0].GetField("c")->AsInt(), 5);
}

TEST_F(EvaluatorTest, ImplicitAggregationOverEmptyInput) {
  adm::Array rows = Query("SELECT count(*) AS c FROM Nums n WHERE n.v > 999;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetField("c")->AsInt(), 0);
}

TEST_F(EvaluatorTest, OrderByAggregate) {
  adm::Array rows =
      Query("SELECT VALUE n.g FROM Nums n GROUP BY n.g ORDER BY count(n) DESC LIMIT 1;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].AsString(), "a");
}

TEST_F(EvaluatorTest, HavingFiltersGroups) {
  adm::Array rows =
      Query("SELECT VALUE n.g FROM Nums n GROUP BY n.g HAVING count(*) > 2;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].AsString(), "a");
}

TEST_F(EvaluatorTest, JoinTwoDatasets) {
  accessor_.Add("Pairs", {J(R"({"g":"a","label":"alpha"})"), J(R"({"g":"b","label":"beta"})")});
  adm::Array rows = Query(
      "SELECT n.id AS id, p.label AS label FROM Nums n, Pairs p WHERE n.g = p.g "
      "ORDER BY n.id;");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].GetField("label")->AsString(), "alpha");
  EXPECT_EQ(rows[1].GetField("label")->AsString(), "beta");
}

TEST_F(EvaluatorTest, ExistsAndIn) {
  EXPECT_TRUE(
      EvalExpr("EXISTS(SELECT w FROM Words w WHERE w.country = \"US\")").AsBool());
  EXPECT_FALSE(
      EvalExpr("EXISTS(SELECT w FROM Words w WHERE w.country = \"XX\")").AsBool());
  EXPECT_TRUE(EvalExpr("\"FR\" IN (SELECT VALUE w.country FROM Words w)").AsBool());
  EXPECT_TRUE(EvalExpr("2 IN [1, 2, 3]").AsBool());
  EXPECT_FALSE(EvalExpr("9 IN [1, 2, 3]").AsBool());
}

TEST_F(EvaluatorTest, CorrelatedSubquery) {
  adm::Array rows = Query(
      "SELECT VALUE (SELECT VALUE w.word FROM Words w WHERE w.country = n.g) "
      "FROM Nums n WHERE n.id = 1;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].AsArray().size(), 0u);  // "a" is no country
}

TEST_F(EvaluatorTest, FromBoundVariable) {
  adm::Array rows = Query(
      "LET batch = ([{\"x\": 1}, {\"x\": 2}]) SELECT VALUE b.x FROM batch b;");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].AsInt(), 2);
}

TEST_F(EvaluatorTest, FeedDatasourceIsRejected) {
  auto s = ParseStatement("SELECT VALUE t FROM FEED Tweets t;");
  ASSERT_TRUE(s.ok());
  Evaluator ev(ctx_);
  Env env;
  auto r = ev.EvalQuery(*s->query, &env);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
}

TEST_F(EvaluatorTest, SqlppUdfCallReturnsCollection) {
  auto fn = ParseStatement(
      "CREATE FUNCTION flag(t) { LET f = CASE t.v > 25 WHEN true THEN \"hi\" ELSE "
      "\"lo\" END SELECT t.*, f };");
  ASSERT_TRUE(fn.ok());
  SqlppFunctionDef def;
  def.name = "flag";
  def.params = fn->create_function.params;
  def.body = std::shared_ptr<const SelectStatement>(std::move(fn->create_function.body));
  resolver_.Register(std::move(def));
  adm::Array rows = Query("SELECT VALUE flag(n)[0].f FROM Nums n ORDER BY n.id;");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].AsString(), "lo");
  EXPECT_EQ(rows[4].AsString(), "hi");
}

TEST_F(EvaluatorTest, MissingProjectionFieldOmitted) {
  adm::Array rows = Query("SELECT n.nope AS gone, n.id AS id FROM Nums n LIMIT 1;");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetField("gone"), nullptr);
  EXPECT_NE(rows[0].GetField("id"), nullptr);
}

TEST_F(EvaluatorTest, LimitWithoutOrderStopsEarly) {
  Evaluator ev(ctx_);
  Env env;
  auto s = ParseStatement("SELECT VALUE n.id FROM Nums n LIMIT 2;");
  ASSERT_TRUE(s.ok());
  auto r = ev.EvalQuery(*s->query, &env);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  // Early exit: not all 5 records were scanned.
  EXPECT_LT(ev.stats().tuples_scanned, 5u);
}

}  // namespace
}  // namespace idea::sqlpp
