#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

namespace idea::common {
namespace {

/// Every test arms points on the process-wide injector, so each one cleans up
/// behind itself to keep the suite order-independent.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Default().DisarmAll();
    FaultInjector::Default().Reseed(0);
  }
};

TEST_F(FaultInjectionTest, DisarmedPointIsTransparent) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(IDEA_FAULT_HIT("fi.disarmed").ok());
  }
  // A disarmed hit is not even counted — the guard short-circuits before the
  // point's bookkeeping.
  EXPECT_EQ(FaultInjector::Default().GetStats("fi.disarmed").hits, 0u);
  EXPECT_FALSE(FaultInjector::Default().GetStats("fi.disarmed").armed);
}

TEST_F(FaultInjectionTest, AlwaysTriggerFiresEveryHit) {
  FaultInjector::Default().Arm("fi.always", FaultSpec::Always(StatusCode::kInternal));
  for (int i = 0; i < 5; ++i) {
    Status st = IDEA_FAULT_HIT("fi.always");
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    EXPECT_NE(st.message().find("fi.always"), std::string::npos);
  }
  auto stats = FaultInjector::Default().GetStats("fi.always");
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.fires, 5u);
}

TEST_F(FaultInjectionTest, NthTriggerFiresExactlyOnce) {
  FaultInjector::Default().Arm("fi.nth", FaultSpec::Nth(3, StatusCode::kCorruption));
  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) fired.push_back(!IDEA_FAULT_HIT("fi.nth").ok());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, false,
                                      false, false, false, false}));
}

/// Each thread takes its ordinals from a block of its own, and what is left
/// of a block strands when its thread stops hitting. Ordinal 25 still
/// reaches some thread, because no block holds it together with others.
TEST_F(FaultInjectionTest, NthTriggerFiresOnceAcrossThreadsThatStopHitting) {
  FaultInjector::Default().Arm("fi.nth_threads", FaultSpec::Nth(25));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 10; ++i) (void)IDEA_FAULT_HIT("fi.nth_threads");
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(FaultInjector::Default().GetStats("fi.nth_threads").fires, 1u);
}

TEST_F(FaultInjectionTest, EveryNthTriggerFiresPeriodically) {
  FaultInjector::Default().Arm("fi.every", FaultSpec::EveryNth(4));
  int fires = 0;
  for (int i = 1; i <= 20; ++i) {
    bool fired = !IDEA_FAULT_HIT("fi.every").ok();
    EXPECT_EQ(fired, i % 4 == 0) << "hit " << i;
    fires += fired;
  }
  EXPECT_EQ(fires, 5);
}

TEST_F(FaultInjectionTest, MaxFiresStopsInjectingButKeepsCounting) {
  FaultSpec spec = FaultSpec::Always();
  spec.max_fires = 2;
  FaultInjector::Default().Arm("fi.maxfires", spec);
  int fires = 0;
  for (int i = 0; i < 10; ++i) fires += !IDEA_FAULT_HIT("fi.maxfires").ok();
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(FaultInjector::Default().GetStats("fi.maxfires").hits, 10u);
}

TEST_F(FaultInjectionTest, DelayOnlyFaultReturnsOkAfterSleeping) {
  FaultInjector::Default().Arm("fi.delay", FaultSpec::Delay(100));
  EXPECT_TRUE(IDEA_FAULT_HIT("fi.delay").ok());
  EXPECT_EQ(FaultInjector::Default().GetStats("fi.delay").fires, 1u);
}

TEST_F(FaultInjectionTest, UnkeyedProbabilityIsSeedDeterministic) {
  auto run = [](uint64_t seed) {
    FaultInjector::Default().Reseed(seed);
    FaultInjector::Default().Arm("fi.prob", FaultSpec::Probability(0.3));
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(!IDEA_FAULT_HIT("fi.prob").ok());
    return fired;
  };
  std::vector<bool> a = run(42);
  std::vector<bool> b = run(42);
  std::vector<bool> c = run(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  size_t fires = 0;
  for (bool f : a) fires += f;
  EXPECT_GT(fires, 20u);  // ~60 expected; loose bounds, deterministic anyway
  EXPECT_LT(fires, 120u);
}

TEST_F(FaultInjectionTest, KeyedProbabilityDependsOnlyOnSeedAndPayload) {
  FaultInjector::Default().Reseed(7);
  FaultInjector::Default().Arm("fi.keyed", FaultSpec::Probability(0.2));
  auto poisoned = [](int n) {
    std::set<int> out;
    for (int i = 0; i < n; ++i) {
      std::string payload = "record-" + std::to_string(i);
      if (!IDEA_FAULT_HIT_KEYED("fi.keyed", payload).ok()) out.insert(i);
    }
    return out;
  };
  std::set<int> first = poisoned(500);
  // Same records hit again — in any order, from any thread — make the same
  // decisions; the fire set is a pure function of (seed, payload).
  std::set<int> second = poisoned(500);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 500u);

  FaultInjector::Default().Reseed(8);
  FaultInjector::Default().Arm("fi.keyed", FaultSpec::Probability(0.2));
  EXPECT_NE(poisoned(500), first);
}

TEST_F(FaultInjectionTest, KeyedDecisionsAreStableUnderConcurrency) {
  FaultInjector::Default().Reseed(11);
  FaultInjector::Default().Arm("fi.conc", FaultSpec::Probability(0.1));
  std::set<int> baseline;
  for (int i = 0; i < 300; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    if (!IDEA_FAULT_HIT_KEYED("fi.conc", key).ok()) baseline.insert(i);
  }
  std::vector<std::set<int>> per_thread(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < per_thread.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        std::string key = "k";
        key += std::to_string(i);
        if (!IDEA_FAULT_HIT_KEYED("fi.conc", key).ok()) {
          per_thread[t].insert(i);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& got : per_thread) EXPECT_EQ(got, baseline);
}

TEST_F(FaultInjectionTest, DisarmAndRearmResetCounters) {
  FaultInjector::Default().Arm("fi.rearm", FaultSpec::Always());
  (void)IDEA_FAULT_HIT("fi.rearm");
  FaultInjector::Default().Disarm("fi.rearm");
  EXPECT_TRUE(IDEA_FAULT_HIT("fi.rearm").ok());
  EXPECT_EQ(FaultInjector::Default().GetStats("fi.rearm").hits, 1u);
  FaultInjector::Default().Arm("fi.rearm", FaultSpec::Nth(1));
  EXPECT_EQ(FaultInjector::Default().GetStats("fi.rearm").hits, 0u);
  EXPECT_FALSE(IDEA_FAULT_HIT("fi.rearm").ok());
}

TEST_F(FaultInjectionTest, StableHashAndBackoffAreDeterministic) {
  EXPECT_EQ(StableHash64("abc"), StableHash64("abc"));
  EXPECT_NE(StableHash64("abc"), StableHash64("abd"));

  for (uint32_t attempt = 0; attempt < 10; ++attempt) {
    uint64_t d = RetryBackoffMicros(1000, attempt, 99);
    EXPECT_EQ(d, RetryBackoffMicros(1000, attempt, 99));
    // Bounded exponential: jitter keeps delays in [base*2^min(a,6)/2, base*2^min(a,6)].
    uint64_t cap = 1000ull << (attempt < 6 ? attempt : 6);
    EXPECT_GE(d, cap / 2);
    EXPECT_LE(d, cap);
  }
  EXPECT_EQ(RetryBackoffMicros(0, 3, 99), 0u);
}

}  // namespace
}  // namespace idea::common
