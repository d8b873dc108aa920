// Deterministic fault injection (RocksDB SyncPoint idiom): code threads
// named *fault points* through the pipeline (adapter reads, record parse,
// UDF evaluation, holder pushes, WAL append, LSM apply/flush, ...); tests
// and soak harnesses *arm* points with a trigger — fire on the nth hit, on
// every nth hit, with a seeded probability, or always — and an injected
// outcome (an error Status and/or a delay). Disarmed points cost one relaxed
// atomic load; nothing else, not even the point-name string, is touched.
//
// Determinism: every probabilistic decision derives from an explicit seed.
// Unkeyed probability triggers draw from a per-point splitmix64 stream;
// *keyed* hits (IDEA_FAULT_HIT_KEYED, used where concurrent threads race on
// the same point) decide by hashing seed ^ payload, so the set of affected
// records is a pure function of the seed and the data — identical across
// runs regardless of thread interleaving.
//
// Usage:
//
//   Status DoWork() {
//     IDEA_RETURN_NOT_OK(IDEA_FAULT_HIT("compute.udf"));
//     ...
//   }
//
//   FaultInjector::Default().Arm("compute.udf",
//       FaultSpec::EveryNth(50, StatusCode::kInternal));
//   FaultInjector::Default().Reseed(42);
//   ... run ...
//   FaultInjector::Default().DisarmAll();
//
// Points are armed in code only (tests, soak harnesses, benches): nothing
// reads the environment, so a run's outcome depends on no hidden input.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace idea::common {

/// Stable 64-bit content hash (FNV-1a with a splitmix64 finalizer). Used for
/// keyed fault decisions and deterministic retry jitter; never changes across
/// processes or platforms.
uint64_t StableHash64(std::string_view bytes);

/// Bounded exponential backoff: base_us * 2^min(attempt, 6), with
/// deterministic jitter drawn from `salt` into [delay/2, delay]. Returns 0
/// when base_us is 0. Same (base, attempt, salt) => same delay.
uint64_t RetryBackoffMicros(uint64_t base_us, uint32_t attempt, uint64_t salt);

/// What an armed fault point does when a hit triggers.
struct FaultSpec {
  enum class Trigger : uint8_t {
    kAlways,       // every hit fires
    kNth,          // exactly the nth hit fires (1-based), once
    kEveryNth,     // every nth hit fires (hits 0 mod n)
    kProbability,  // each hit fires with probability `probability`
  };

  Trigger trigger = Trigger::kAlways;
  uint64_t nth = 1;          // kNth / kEveryNth period
  double probability = 0.0;  // kProbability
  /// Error injected on fire; kOk makes the fault delay-only.
  StatusCode code = StatusCode::kInternal;
  /// Sleep applied on fire (before the status is returned).
  uint64_t delay_us = 0;
  /// Stop firing after this many fires (the point stays armed and counting).
  uint64_t max_fires = UINT64_MAX;

  static FaultSpec Always(StatusCode code = StatusCode::kInternal) {
    FaultSpec s;
    s.trigger = Trigger::kAlways;
    s.code = code;
    return s;
  }
  static FaultSpec Nth(uint64_t n, StatusCode code = StatusCode::kInternal) {
    FaultSpec s;
    s.trigger = Trigger::kNth;
    s.nth = n;
    s.code = code;
    return s;
  }
  static FaultSpec EveryNth(uint64_t n, StatusCode code = StatusCode::kInternal) {
    FaultSpec s;
    s.trigger = Trigger::kEveryNth;
    s.nth = n;
    s.code = code;
    return s;
  }
  static FaultSpec Probability(double p, StatusCode code = StatusCode::kInternal) {
    FaultSpec s;
    s.trigger = Trigger::kProbability;
    s.probability = p;
    s.code = code;
    return s;
  }
  static FaultSpec Delay(uint64_t micros) {
    FaultSpec s;
    s.trigger = Trigger::kAlways;
    s.code = StatusCode::kOk;
    s.delay_us = micros;
    return s;
  }
};

namespace fault_internal {

/// Reserved range of hit ordinals for one (thread, point) pair, used by the
/// counting triggers (nth / every-nth). Threads reserve small blocks from the
/// point's shared dispenser so the contended read-modify-write happens once
/// per block of hits; the inline armed fast path only ever touches the
/// thread's own grant tag.
///
/// The block covers ordinals (start, end] (see FaultPoint::NextOrdinal).
/// Each trip through the out-of-line path hands out one ordinal, decides
/// whether it fires, and grants the inline path the run of ordinals up to
/// `limit`, all of which are known not to fire. The grant itself is the
/// block's *tag*, kept apart from the block: it packs the arming epoch the
/// grant belongs to (high half) with how many of the granted ordinals are
/// left (low half), so one subtract-and-compare both validates the grant and
/// checks that it is not used up.
struct TlsOrdinalBlock {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t limit = 0;
};

/// How many ordinals a thread reserves per trip to the shared dispenser.
/// Small enough that a thread strands at most a block's worth of ordinals
/// when it stops hitting mid-block, large enough to amortize the shared RMW away.
inline constexpr uint64_t kOrdinalBlock = 64;

/// Low half of a tag: granted ordinals the inline path may still take.
inline constexpr uint64_t kTagLeftMask = 0xffffffffull;

/// Per-thread tag and block tables, indexed by FaultPoint::tls_slot_
/// (registration order, process-global). The first slots live in flat
/// thread_local arrays — one indexed load on the armed hot path, no vector
/// indirection — with a vector spillover (in the .cc) for processes
/// registering more points. The inline path reads only the tags, eight
/// bytes a point, so the points one record crosses share a cache line or
/// two. The extra last tag is never written: points in the spillover aim
/// their inline path at it, and its zero epoch never matches an armed point.
inline constexpr uint32_t kFastTlsSlots = 128;
alignas(64) inline thread_local uint64_t t_fast_tags[kFastTlsSlots + 1];
inline thread_local TlsOrdinalBlock t_fast_blocks[kFastTlsSlots];

}  // namespace fault_internal

/// One named fault point. Instances are created on first registration and
/// live for the process; call sites cache the pointer (the IDEA_FAULT_HIT
/// macros do this with a function-local static).
class FaultPoint {
 public:
  /// Hit statistics are striped over this many cache-line-padded slots, one
  /// per thread (round-robin beyond the stripe count). Striping keeps the
  /// armed hot path free of contended read-modify-writes; counts are exact
  /// up to kStatShards concurrently hitting threads.
  static constexpr uint32_t kStatShards = 64;

  explicit FaultPoint(std::string name) : name_(std::move(name)), rng_(0) {}
  FaultPoint(const FaultPoint&) = delete;
  FaultPoint& operator=(const FaultPoint&) = delete;

  const std::string& name() const { return name_; }
  /// True while the point is armed: one relaxed atomic load.
  bool armed() const { return armed_tag_.load(std::memory_order_relaxed) != 0; }

  /// One hit from an IDEA_FAULT_HIT site: free while disarmed (the guard
  /// load), otherwise records the hit and applies the armed spec. Returns
  /// the injected error when the hit fires (OK for delay-only faults, after
  /// sleeping). A non-empty `payload` makes probability triggers decide by
  /// hashing seed ^ payload instead of consuming the shared RNG stream —
  /// deterministic per payload under concurrency.
  ///
  /// The branch hints are a code-layout choice, not a claim that points are
  /// usually armed: they keep the few instructions of the armed fast path
  /// inline at the call site, where a disarmed hit jumps over them. An
  /// out-of-line fast path would cost every armed-but-idle hit an extra
  /// instruction-cache line per call site.
  Status Hit(std::string_view payload = std::string_view()) {
    const uint64_t armed = armed_tag_.load(std::memory_order_relaxed);
    if (armed != 0) [[likely]] {
      if (FastHit(armed)) [[likely]] return Status::OK();
      return FireSlow(payload);
    }
    return Status::OK();
  }

  /// Total recorded hits. Exact for always/probability triggers; for the
  /// counting triggers (nth/every-nth) the count is retired per ordinal
  /// block, so it can lag the true hit count by up to a block per thread
  /// until the thread's next block refill.
  uint64_t hits() const;
  uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }

 private:
  friend class FaultInjector;

  struct alignas(64) StatShard {
    std::atomic<uint64_t> hits{0};
  };

  /// Inline fast path of an armed hit: an armed counting trigger (nth /
  /// every-nth) whose thread still holds a granted run of non-firing
  /// ordinals — the overwhelmingly common case for an armed-but-idle point —
  /// takes one and is done: a thread-local load, one compare and a store.
  /// Everything else (block refill, the next ordinal that may fire,
  /// always/probability triggers) returns false for the out-of-line path.
  bool FastHit(uint64_t armed) {
    uint64_t& tag = fault_internal::t_fast_tags[fast_slot_];
    // `armed` is (epoch << 32) | 1, so the difference is below the mask
    // exactly when the grant belongs to the current arming and at least one
    // granted ordinal is left.
    if (tag - armed >= fault_internal::kTagLeftMask) return false;
    tag = tag - 1;
    return true;
  }

  /// Out-of-line remainder of a hit: always/probability triggers, and
  /// counting triggers whose thread-local grant is used up.
  Status FireSlow(std::string_view payload);
  /// Applies the armed spec to a firing hit: max_fires cap, delay, status.
  Status Fired();

  /// Next 1-based hit ordinal for the counting triggers (kNth/kEveryNth),
  /// refilling the thread's block from the shared dispenser when exhausted,
  /// and granting the inline path the following ordinals that cannot fire.
  /// No ordinal is handed out twice, but a thread that stops hitting strands
  /// the rest of its block, so across threads ordinals are neither ordered
  /// nor all used. An nth trigger's ordinal n is therefore reserved alone,
  /// and Nth(n) fires exactly once whenever the point is hit at least n
  /// times from any threads. On a single thread ordinals are the familiar
  /// 1, 2, 3, ..., so the n-th hit fires.
  uint64_t NextOrdinal();
  /// The largest L in [ordinal, end] such that no ordinal in (ordinal, L]
  /// fires under spec_: the run the inline path may take after `ordinal`.
  uint64_t QuietUntil(uint64_t ordinal, uint64_t end) const;
  /// armed_tag_ value for the current epoch: a grant tag with one ordinal
  /// left.
  uint64_t ArmedTag() const {
    return (uint64_t{epoch_.load(std::memory_order_relaxed)} << 32) | 1;
  }
  /// Zeroes hits/fires/ordinals and invalidates outstanding thread-local
  /// ordinal blocks (via the epoch). Called under mu_ while disarmed.
  void ResetCountersLocked();

  // Hot line: everything an armed-but-idle hit reads — the guard, which is
  // also the arming epoch its thread-local grant is checked against, and the
  // thread-local-block slot — shares the cache line the disarmed path
  // already loads, so arming a point adds no cache-line traffic beyond the
  // thread's own grant tags. spec_ and seed_ are written only while
  // disarmed (Arm/Reseed clear armed_tag_ around the write), so hits read them
  // without the mutex.
  std::atomic<uint64_t> armed_tag_{0};  // 0 = disarmed, else (epoch << 32) | 1
  uint32_t fast_slot_ = fault_internal::kFastTlsSlots;  // t_fast_tags index
  uint32_t tls_slot_ = 0;           // index into the per-thread block table
  std::atomic<uint32_t> epoch_{0};  // bumped on Arm/Reseed to drop old blocks
  FaultSpec spec_;
  // Warm: read per ordinal-block refill or on fire, not per hit.
  uint64_t seed_ = 0;
  std::atomic<uint64_t> fires_{0};
  // Block dispenser for the counting triggers, on its own cache line so its
  // compare-and-swap never dirties the hot line.
  alignas(64) std::atomic<uint64_t> ordinal_{0};
  // Cold: registry bookkeeping and statistics.
  std::string name_;
  StatShard stat_shards_[kStatShards];
  std::mutex mu_;  // guards rng_ (unkeyed probability draws)
  Rng rng_;
};

/// Process-wide registry of fault points.
class FaultInjector {
 public:
  static FaultInjector& Default();

  /// Get-or-create the point; the returned pointer is stable for the
  /// process. Called once per call site via the IDEA_FAULT_HIT macros.
  FaultPoint* RegisterPoint(std::string_view name);

  /// Arms `point` (creating it if needed) with `spec`, resetting its hit and
  /// fire counters and reseeding its RNG from the injector seed.
  void Arm(const std::string& point, FaultSpec spec);
  /// Disarms one point (counters retained until the next Arm).
  void Disarm(const std::string& point);
  /// Disarms every point.
  void DisarmAll();

  /// Sets the injector seed and reseeds + resets every point (armed or not).
  /// Same seed + same spec + same data => identical fire decisions.
  void Reseed(uint64_t seed);

  struct PointStats {
    uint64_t hits = 0;
    uint64_t fires = 0;
    bool armed = false;
  };
  /// Stats for one point (zeros when the point does not exist).
  PointStats GetStats(const std::string& point) const;

 private:
  FaultPoint* FindLocked(const std::string& name) const;

  mutable std::mutex mu_;  // guards points_ and seed_
  // Name -> point. Values are owned raw pointers that intentionally live for
  // the process (call sites cache them in function-local statics).
  std::map<std::string, FaultPoint*, std::less<>> points_;
  uint64_t seed_ = 0;
};

}  // namespace idea::common

/// Status-valued hit on the named fault point. `name` must be a string
/// literal (or have static storage duration). Zero cost while the point is
/// disarmed: a function-local static caches the FaultPoint* and the guard is
/// a single relaxed load.
#define IDEA_FAULT_HIT(name)                                                \
  ([]() -> ::idea::Status {                                                 \
    static ::idea::common::FaultPoint* _idea_fp =                           \
        ::idea::common::FaultInjector::Default().RegisterPoint(name);       \
    return _idea_fp->Hit();                                                 \
  }())

/// Keyed variant: probability triggers decide per `payload` (deterministic
/// under thread interleaving). `payload` must convert to std::string_view.
#define IDEA_FAULT_HIT_KEYED(name, payload)                                 \
  ([](::std::string_view _idea_key) -> ::idea::Status {                     \
    static ::idea::common::FaultPoint* _idea_fp =                           \
        ::idea::common::FaultInjector::Default().RegisterPoint(name);       \
    return _idea_fp->Hit(_idea_key);                                        \
  }(payload))
