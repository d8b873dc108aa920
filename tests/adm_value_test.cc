#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "adm/value.h"
#include "common/rng.h"

namespace idea::adm {
namespace {

TEST(ValueTest, DefaultIsMissing) {
  Value v;
  EXPECT_TRUE(v.IsMissing());
  EXPECT_TRUE(v.IsUnknown());
}

TEST(ValueTest, ConstructorsAndAccessors) {
  EXPECT_TRUE(Value::MakeNull().IsNull());
  EXPECT_EQ(Value::MakeBool(true).AsBool(), true);
  EXPECT_EQ(Value::MakeInt(-5).AsInt(), -5);
  EXPECT_EQ(Value::MakeDouble(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::MakeString("hi").AsString(), "hi");
  EXPECT_EQ(Value::MakeDateTime({123}).AsDateTime().epoch_ms, 123);
  EXPECT_EQ(Value::MakeDuration({2, 500}).AsDuration().months, 2);
  EXPECT_EQ(Value::MakePoint({1, 2}).AsPoint().y, 2);
}

TEST(ValueTest, NumericWidening) {
  EXPECT_DOUBLE_EQ(Value::MakeInt(3).AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(Value::MakeDouble(3.5).AsNumber(), 3.5);
}

TEST(ValueTest, ObjectFieldOperations) {
  Value obj = Value::MakeObject({{"a", Value::MakeInt(1)}});
  EXPECT_EQ(obj.GetField("a")->AsInt(), 1);
  EXPECT_EQ(obj.GetField("b"), nullptr);
  EXPECT_TRUE(obj.GetFieldOrMissing("b").IsMissing());
  obj.SetField("b", Value::MakeString("x"));
  EXPECT_EQ(obj.GetField("b")->AsString(), "x");
  obj.SetField("a", Value::MakeInt(2));  // replace keeps position
  EXPECT_EQ(obj.AsObject()[0].first, "a");
  EXPECT_EQ(obj.GetField("a")->AsInt(), 2);
  obj.RemoveField("a");
  EXPECT_EQ(obj.GetField("a"), nullptr);
  EXPECT_EQ(obj.FieldCount(), 1u);
}

TEST(ValueTest, FieldAccessOnNonObjectIsNull) {
  Value i = Value::MakeInt(1);
  EXPECT_EQ(i.GetField("x"), nullptr);
  EXPECT_TRUE(i.GetFieldOrMissing("x").IsMissing());
}

TEST(ValueCompareTest, CrossTypeNumericEquality) {
  EXPECT_EQ(Value::Compare(Value::MakeInt(5), Value::MakeDouble(5.0)), 0);
  EXPECT_LT(Value::Compare(Value::MakeInt(5), Value::MakeDouble(5.5)), 0);
  EXPECT_GT(Value::Compare(Value::MakeDouble(6.0), Value::MakeInt(5)), 0);
}

TEST(ValueCompareTest, TypeTagOrderForDistinctTypes) {
  // MISSING < NULL < bool < numbers < string ...
  EXPECT_LT(Value::Compare(Value::MakeMissing(), Value::MakeNull()), 0);
  EXPECT_LT(Value::Compare(Value::MakeNull(), Value::MakeBool(false)), 0);
  EXPECT_LT(Value::Compare(Value::MakeBool(true), Value::MakeInt(0)), 0);
  EXPECT_LT(Value::Compare(Value::MakeInt(999), Value::MakeString("")), 0);
}

TEST(ValueCompareTest, ArraysCompareLexicographically) {
  Value a = Value::MakeArray({Value::MakeInt(1), Value::MakeInt(2)});
  Value b = Value::MakeArray({Value::MakeInt(1), Value::MakeInt(3)});
  Value c = Value::MakeArray({Value::MakeInt(1)});
  EXPECT_LT(Value::Compare(a, b), 0);
  EXPECT_GT(Value::Compare(a, c), 0);
  EXPECT_EQ(Value::Compare(a, a), 0);
}

Value RandomValue(Rng* rng, int depth = 0);

Value RandomScalar(Rng* rng) {
  switch (rng->NextBelow(8)) {
    case 0:
      return Value::MakeNull();
    case 1:
      return Value::MakeBool(rng->NextBool(0.5));
    case 2:
      return Value::MakeInt(rng->NextInRange(-1000000, 1000000));
    case 3:
      return Value::MakeDouble(rng->NextDouble() * 100 - 50);
    case 4:
      return Value::MakeString(rng->NextAlpha(rng->NextBelow(12)));
    case 5:
      return Value::MakeDateTime({rng->NextInRange(-1000000, 1000000)});
    case 6:
      return Value::MakePoint({rng->NextDouble() * 10, rng->NextDouble() * 10});
    default:
      return Value::MakeDuration(
          {static_cast<int32_t>(rng->NextInRange(-50, 50)), rng->NextInRange(-9999, 9999)});
  }
}

Value RandomValue(Rng* rng, int depth) {
  if (depth < 2 && rng->NextBool(0.35)) {
    if (rng->NextBool(0.5)) {
      Array arr;
      size_t n = rng->NextBelow(4);
      for (size_t i = 0; i < n; ++i) arr.push_back(RandomValue(rng, depth + 1));
      return Value::MakeArray(std::move(arr));
    }
    Fields fields;
    size_t n = rng->NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      std::string name = "f";
      name += std::to_string(i);
      fields.emplace_back(std::move(name), RandomValue(rng, depth + 1));
    }
    return Value::MakeObject(std::move(fields));
  }
  return RandomScalar(rng);
}

class ValueOrderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueOrderProperty, TotalOrderInvariants) {
  Rng rng(GetParam());
  std::vector<Value> values;
  for (int i = 0; i < 24; ++i) values.push_back(RandomValue(&rng));
  for (const Value& a : values) {
    EXPECT_EQ(Value::Compare(a, a), 0);  // reflexive equality
    for (const Value& b : values) {
      int ab = Value::Compare(a, b);
      int ba = Value::Compare(b, a);
      EXPECT_EQ(ab, -ba) << a.ToString() << " vs " << b.ToString();  // antisymmetry
      if (ab == 0) {
        // Hash consistency with equality.
        EXPECT_EQ(Value::Hash(a), Value::Hash(b));
      }
      for (const Value& c : values) {
        // Transitivity on the <= relation.
        if (ab <= 0 && Value::Compare(b, c) <= 0) {
          EXPECT_LE(Value::Compare(a, c), 0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueOrderProperty, ::testing::Values(1, 2, 3, 4, 5));

TEST(ValueHashTest, IntAndDoubleCollideWhenEqual) {
  EXPECT_EQ(Value::Hash(Value::MakeInt(42)), Value::Hash(Value::MakeDouble(42.0)));
}

const double kInf = std::numeric_limits<double>::infinity();
const double kNan = std::numeric_limits<double>::quiet_NaN();
// NaNs with other sign and payload bits than kNan.
const double kNegNan = std::copysign(kNan, -1.0);
const double kPayloadNan = std::bit_cast<double>(uint64_t{0x7ff8000000000123});

// Checks that `values` are ordered by a strict weak order under Compare and
// that Hash agrees with its equality.
void ExpectStrictWeakOrder(const std::vector<Value>& values) {
  auto lt = [](const Value& a, const Value& b) { return Value::Compare(a, b) < 0; };
  auto eq = [](const Value& a, const Value& b) { return Value::Compare(a, b) == 0; };
  for (const Value& a : values) {
    EXPECT_FALSE(lt(a, a)) << a.ToString();  // irreflexive
    for (const Value& b : values) {
      EXPECT_EQ(lt(a, b), Value::Compare(b, a) > 0) << a.ToString() << " vs " << b.ToString();
      if (eq(a, b)) {
        EXPECT_EQ(Value::Hash(a), Value::Hash(b)) << a.ToString() << " vs " << b.ToString();
      }
      for (const Value& c : values) {
        if (lt(a, b) && lt(b, c)) {
          EXPECT_TRUE(lt(a, c)) << a.ToString() << " < " << b.ToString() << " < "
                                << c.ToString();
        }
        if (eq(a, b) && eq(b, c)) {
          EXPECT_TRUE(eq(a, c)) << a.ToString() << " = " << b.ToString() << " = "
                                << c.ToString();
        }
      }
    }
  }
}

TEST(ValueCompareTest, StrictWeakOrderOverNumericEdgeCases) {
  const int64_t two53 = int64_t{1} << 53;
  std::vector<Value> numbers;
  for (int64_t i : {std::numeric_limits<int64_t>::min(), -two53 - 1, -two53, int64_t{-5},
                    int64_t{0}, int64_t{1}, int64_t{5}, two53, two53 + 1,
                    std::numeric_limits<int64_t>::max()}) {
    numbers.push_back(Value::MakeInt(i));
  }
  // 2^53 + 1 and INT64_MAX round to neighbouring doubles when widened.
  for (double d : {-kInf, -1e300, -9223372036854775808.0, -9007199254740992.0, -5.5, -5.0,
                   -0.0, 0.0, 0.5, 1.0, 5.0, 9007199254740992.0, 9223372036854775808.0, 1e300,
                   kInf, kNan, kNegNan, kPayloadNan}) {
    numbers.push_back(Value::MakeDouble(d));
  }
  ExpectStrictWeakOrder(numbers);

  std::vector<Value> points;
  for (double x : {-0.0, 0.0, 1.0, kInf, kNan, kNegNan}) {
    for (double y : {0.0, -0.0, kNan, kPayloadNan}) points.push_back(Value::MakePoint({x, y}));
  }
  ExpectStrictWeakOrder(points);
}

TEST(ValueCompareTest, NanEqualsNanAndSortsAboveEveryNumber) {
  for (double d : {kNan, kNegNan, kPayloadNan}) {
    Value nan = Value::MakeDouble(d);
    EXPECT_EQ(Value::Compare(nan, Value::MakeDouble(kNan)), 0);
    EXPECT_GT(Value::Compare(nan, Value::MakeDouble(kInf)), 0);
    EXPECT_GT(Value::Compare(nan, Value::MakeInt(std::numeric_limits<int64_t>::max())), 0);
    EXPECT_LT(Value::Compare(Value::MakeInt(5), nan), 0);
    EXPECT_LT(Value::Compare(nan, Value::MakeString("")), 0);  // type tag order still holds
  }
}

TEST(ValueHashTest, DoublesOutsideInt64RangeAndNans) {
  // Each of these lies outside int64's range; hashing must not cast it.
  for (double d : {1e300, -1e300, kInf, -kInf}) {
    EXPECT_NE(Value::Hash(Value::MakeDouble(d)), Value::Hash(Value::MakeDouble(-d)));
  }
  EXPECT_EQ(Value::Hash(Value::MakeDouble(kNan)), Value::Hash(Value::MakeDouble(kNegNan)));
  EXPECT_EQ(Value::Hash(Value::MakeDouble(kNan)), Value::Hash(Value::MakeDouble(kPayloadNan)));
  EXPECT_EQ(Value::Hash(Value::MakeInt(5)), Value::Hash(Value::MakeDouble(5.0)));
  EXPECT_EQ(Value::Hash(Value::MakeInt(0)), Value::Hash(Value::MakeDouble(-0.0)));
  // 9.1e18 is exact as a double and still inside int64's range.
  EXPECT_EQ(Value::Hash(Value::MakeInt(9100000000000000000)),
            Value::Hash(Value::MakeDouble(9.1e18)));
}

TEST(ValueTest, EstimateSizeGrowsWithContent) {
  Value small = Value::MakeString("a");
  Value big = Value::MakeString(std::string(1000, 'a'));
  EXPECT_GT(big.EstimateSize(), small.EstimateSize());
  Value nested = Value::MakeObject({{"x", big}});
  EXPECT_GT(nested.EstimateSize(), big.EstimateSize());
}

}  // namespace
}  // namespace idea::adm
