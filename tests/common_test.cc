#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/virtual_clock.h"

namespace idea {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kTypeMismatch); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Doubled(Result<int> in) {
  IDEA_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_FALSE(Doubled(Status::Aborted("no")).ok());
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  ByteBuffer buf;
  buf.PutVarint64(GetParam());
  ByteReader reader(buf.data(), buf.size());
  uint64_t out;
  ASSERT_TRUE(reader.GetVarint64(&out).ok());
  EXPECT_EQ(out, GetParam());
  EXPECT_TRUE(reader.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Values, VarintRoundTrip,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull, 16383ull,
                                           16384ull, 1ull << 32, (1ull << 63),
                                           ~0ull));

TEST(BytesTest, MixedRoundTrip) {
  ByteBuffer buf;
  buf.PutU8(7);
  buf.PutFixed32(0xDEADBEEF);
  buf.PutFixed64(0x0123456789ABCDEFull);
  buf.PutString("hello world");
  buf.PutDouble(3.25);
  ByteReader r(buf.data(), buf.size());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  std::string s;
  double d;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetFixed32(&u32).ok());
  ASSERT_TRUE(r.GetFixed64(&u64).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(s, "hello world");
  EXPECT_EQ(d, 3.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, ExhaustionIsCorruption) {
  ByteBuffer buf;
  buf.PutU8(1);
  ByteReader r(buf.data(), buf.size());
  uint64_t u64;
  EXPECT_EQ(r.GetFixed64(&u64).code(), StatusCode::kCorruption);
}

TEST(BytesTest, ZigZag) {
  const std::vector<int64_t> cases = {0,  1, -1, 63, -64, int64_t{1} << 40,
                                      -(int64_t{1} << 40), INT64_MAX, INT64_MIN};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // Small magnitudes encode small.
  EXPECT_LT(ZigZagEncode(-1), 3u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  auto parts = SplitString("a||b|", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, RemoveNonAlpha) {
  EXPECT_EQ(RemoveNonAlpha("@ab_12Cd!"), "abCd");
  EXPECT_EQ(RemoveNonAlpha("1234"), "");
}

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", "abc"), 0);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("", "abcd"), 4);
}

TEST(EditDistanceTest, SymmetryProperty) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    std::string a = rng.NextAlpha(rng.NextBelow(12));
    std::string b = rng.NextAlpha(rng.NextBelow(12));
    EXPECT_EQ(EditDistance(a, b), EditDistance(b, a));
  }
}

TEST(EditDistanceTest, BoundedEarlyExitAgreesWithinBound) {
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    std::string a = rng.NextAlpha(4 + rng.NextBelow(8));
    std::string b = rng.NextAlpha(4 + rng.NextBelow(8));
    int exact = EditDistance(a, b);
    int bounded = EditDistance(a, b, 4);
    if (exact <= 4) {
      EXPECT_EQ(bounded, exact);
    } else {
      EXPECT_GT(bounded, 4);
    }
  }
}

TEST(StringUtilTest, TrimAndCase) {
  EXPECT_EQ(Trim("  x \n"), "x");
  EXPECT_EQ(ToLowerAscii("AbC"), "abc");
  EXPECT_TRUE(EqualsIgnoreCase("SeLeCt", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringUtilTest, StringPrintfFormats) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%05zu", static_cast<size_t>(42)), "00042");
}

TEST(TimersTest, MeasurePositiveTime) {
  ThreadCpuTimer cpu;
  cpu.Start();
  volatile uint64_t x = 0;
  for (int i = 0; i < 2000000; ++i) x = x + static_cast<uint64_t>(i);
  EXPECT_GT(cpu.ElapsedMicros(), 0.0);
  WallTimer wall;
  wall.Start();
  EXPECT_GE(wall.ElapsedMicros(), 0.0);
}

}  // namespace
}  // namespace idea
