#include <gtest/gtest.h>

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

TEST(ValueTest, EstimateSizeGrowsWithContent) {
  Value small = Value::MakeString("a");
  Value big = Value::MakeString(std::string(1000, 'a'));
  EXPECT_GT(big.EstimateSize(), small.EstimateSize());
  Value nested = Value::MakeObject({{"x", big}});
  EXPECT_GT(nested.EstimateSize(), big.EstimateSize());
}

}  // namespace
}  // namespace idea::adm
