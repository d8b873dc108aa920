#include <gtest/gtest.h>

#include "adm/serde.h"
#include "common/rng.h"

namespace idea::adm {
namespace {

void ExpectRoundTrip(const Value& v) {
  auto bytes = SerializeToBytes(v);
  auto back = DeserializeFromBytes(bytes);
  ASSERT_TRUE(back.ok()) << v.ToString() << ": " << back.status().ToString();
  EXPECT_EQ(*back, v) << v.ToString();
}

TEST(SerdeTest, AllScalarTypes) {
  ExpectRoundTrip(Value::MakeMissing());
  ExpectRoundTrip(Value::MakeNull());
  ExpectRoundTrip(Value::MakeBool(true));
  ExpectRoundTrip(Value::MakeBool(false));
  ExpectRoundTrip(Value::MakeInt(0));
  ExpectRoundTrip(Value::MakeInt(-123456789));
  ExpectRoundTrip(Value::MakeInt(INT64_MAX));
  ExpectRoundTrip(Value::MakeInt(INT64_MIN));
  ExpectRoundTrip(Value::MakeDouble(3.14159));
  ExpectRoundTrip(Value::MakeDouble(-0.0));
  ExpectRoundTrip(Value::MakeString(""));
  ExpectRoundTrip(Value::MakeString(std::string("a\0b", 3)));
  ExpectRoundTrip(Value::MakeDateTime({-9999999}));
  ExpectRoundTrip(Value::MakeDuration({-3, 12345}));
  ExpectRoundTrip(Value::MakePoint({1.25, -2.5}));
  ExpectRoundTrip(Value::MakeRectangle({{0, 0}, {5, 5}}));
  ExpectRoundTrip(Value::MakeCircle({{1, 1}, 2.5}));
}

TEST(SerdeTest, NestedValues) {
  Value v = Value::MakeObject({
      {"arr", Value::MakeArray({Value::MakeInt(1), Value::MakeNull(),
                                Value::MakeArray({Value::MakeString("deep")})})},
      {"obj", Value::MakeObject({{"p", Value::MakePoint({7, 8})}})},
  });
  ExpectRoundTrip(v);
}

TEST(SerdeTest, TruncationIsCorruption) {
  auto bytes = SerializeToBytes(Value::MakeString("hello world"));
  for (size_t cut = 1; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> partial(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    auto r = DeserializeFromBytes(partial);
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
  }
}

TEST(SerdeTest, BadTagIsCorruption) {
  std::vector<uint8_t> bytes = {0xFF};
  EXPECT_FALSE(DeserializeFromBytes(bytes).ok());
}

TEST(SerdeTest, TrailingBytesRejected) {
  auto bytes = SerializeToBytes(Value::MakeInt(7));
  bytes.push_back(0);
  EXPECT_FALSE(DeserializeFromBytes(bytes).ok());
}

TEST(SerdeTest, HugeDeclaredArrayLengthRejected) {
  // Tag kArray + varint length far exceeding the remaining bytes must fail
  // cleanly instead of attempting a giant allocation.
  std::vector<uint8_t> bytes = {static_cast<uint8_t>(ValueType::kArray), 0xFF, 0xFF,
                                0xFF, 0x7F};
  EXPECT_FALSE(DeserializeFromBytes(bytes).ok());
}

Value RandomValue(Rng* rng, int depth = 0) {
  if (depth < 3 && rng->NextBool(0.4)) {
    if (rng->NextBool(0.5)) {
      Array arr;
      size_t n = rng->NextBelow(5);
      for (size_t i = 0; i < n; ++i) arr.push_back(RandomValue(rng, depth + 1));
      return Value::MakeArray(std::move(arr));
    }
    Fields fields;
    size_t n = rng->NextBelow(5);
    for (size_t i = 0; i < n; ++i) {
      std::string name = "k";
      name += std::to_string(i);
      fields.emplace_back(std::move(name), RandomValue(rng, depth + 1));
    }
    return Value::MakeObject(std::move(fields));
  }
  switch (rng->NextBelow(10)) {
    case 0:
      return Value::MakeMissing();
    case 1:
      return Value::MakeNull();
    case 2:
      return Value::MakeBool(rng->NextBool(0.5));
    case 3:
      return Value::MakeInt(static_cast<int64_t>(rng->Next()));
    case 4:
      return Value::MakeDouble(rng->NextDouble() * 1e9);
    case 5:
      return Value::MakeString(rng->NextAlpha(rng->NextBelow(20)));
    case 6:
      return Value::MakeDateTime({static_cast<int64_t>(rng->Next() >> 20)});
    case 7:
      return Value::MakePoint({rng->NextDouble(), rng->NextDouble()});
    case 8:
      return Value::MakeRectangle(
          {{rng->NextDouble(), rng->NextDouble()}, {rng->NextDouble(), rng->NextDouble()}});
    default:
      return Value::MakeCircle({{rng->NextDouble(), rng->NextDouble()}, rng->NextDouble()});
  }
}

class SerdeRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdeRoundTripProperty, RandomValuesRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) ExpectRoundTrip(RandomValue(&rng));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeRoundTripProperty,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace idea::adm
