#include "common/fault_injection.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/flight_recorder.h"

namespace idea::common {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform [0, 1) from a seed + payload pair.
double HashToUnit(uint64_t seed, std::string_view payload) {
  uint64_t m = SplitMix64(seed ^ StableHash64(payload));
  return static_cast<double>(m >> 11) * 0x1.0p-53;
}

// --- per-thread fault-point state -------------------------------------------

using fault_internal::kFastTlsSlots;
using fault_internal::kOrdinalBlock;
using fault_internal::kTagLeftMask;
using fault_internal::t_fast_blocks;
using fault_internal::t_fast_tags;
using fault_internal::TlsOrdinalBlock;

/// A point's thread-local grant tag and ordinal block.
struct TlsOrdinalState {
  uint64_t& tag;
  TlsOrdinalBlock& block;
};

/// Spillover tables for points registered past the flat TLS arrays.
struct OverflowEntry {
  uint64_t tag = 0;
  TlsOrdinalBlock block;
};
thread_local std::vector<OverflowEntry> t_overflow_blocks;

TlsOrdinalState OrdinalStateForSlot(uint32_t slot) {
  if (slot < kFastTlsSlots) return {t_fast_tags[slot], t_fast_blocks[slot]};
  const uint32_t i = slot - kFastTlsSlots;
  if (t_overflow_blocks.size() <= i) t_overflow_blocks.resize(i + 1);
  return {t_overflow_blocks[i].tag, t_overflow_blocks[i].block};
}

std::atomic<uint32_t> g_thread_counter{0};
uint32_t ThisThreadStatShard() {
  static thread_local uint32_t shard =
      g_thread_counter.fetch_add(1, std::memory_order_relaxed) %
      FaultPoint::kStatShards;
  return shard;
}

std::atomic<uint32_t> g_next_tls_slot{0};

}  // namespace

uint64_t StableHash64(std::string_view bytes) {
  // FNV-1a, then one splitmix round to spread low-entropy payloads.
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return SplitMix64(h);
}

uint64_t RetryBackoffMicros(uint64_t base_us, uint32_t attempt, uint64_t salt) {
  if (base_us == 0) return 0;
  const uint64_t delay = base_us << (attempt < 6 ? attempt : 6);
  const uint64_t half = delay / 2;
  return half + SplitMix64(salt ^ (attempt + 0x51c64ull)) % (half + 1);
}

uint64_t FaultPoint::hits() const {
  uint64_t total = 0;
  for (const StatShard& s : stat_shards_) {
    total += s.hits.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t FaultPoint::NextOrdinal() {
  auto [tag, block] = OrdinalStateForSlot(tls_slot_);
  const uint32_t epoch = epoch_.load(std::memory_order_relaxed);
  const bool current = (tag >> 32) == epoch;
  // Last ordinal handed out: the grant's limit minus what is left of it.
  uint64_t last = block.limit - (tag & kTagLeftMask);
  if (!current || last == block.end) {
    if (current && last > block.start) {
      // Retire the exhausted block's consumed count into the striped stats.
      // (A block from a stale epoch predates the last counter reset and is
      // dropped — its hits were already zeroed.)
      stat_shards_[ThisThreadStatShard()].hits.fetch_add(
          last - block.start, std::memory_order_relaxed);
    }
    // Reserve (start, end]. A block that would cover an nth trigger's
    // ordinal n together with others stops at n - 1, or is n alone when n
    // comes next: a thread that stops hitting can then strand ordinals
    // below n, but never n itself.
    const uint64_t n = spec_.nth;
    const bool nth = spec_.trigger == FaultSpec::Trigger::kNth;
    uint64_t start = ordinal_.load(std::memory_order_relaxed);
    uint64_t end;
    do {
      end = start + kOrdinalBlock;
      if (nth && start < n && n <= end) end = start + 1 == n ? n : n - 1;
    } while (!ordinal_.compare_exchange_weak(start, end, std::memory_order_relaxed));
    block.start = last = start;
    block.end = end;
  }
  const uint64_t ordinal = last + 1;  // 1-based
  block.limit = QuietUntil(ordinal, block.end);
  tag = (uint64_t{epoch} << 32) | (block.limit - ordinal);
  return ordinal;
}

uint64_t FaultPoint::QuietUntil(uint64_t ordinal, uint64_t end) const {
  const uint64_t n = spec_.nth;
  switch (spec_.trigger) {
    case FaultSpec::Trigger::kNth:
      return n > ordinal && n <= end ? n - 1 : end;
    case FaultSpec::Trigger::kEveryNth: {
      if (n == 0) return end;
      const uint64_t next_fire = ordinal - ordinal % n + n;
      return next_fire <= end ? next_fire - 1 : end;
    }
    case FaultSpec::Trigger::kAlways:
    case FaultSpec::Trigger::kProbability:
      break;
  }
  return ordinal;
}

void FaultPoint::ResetCountersLocked() {
  // Never 0: fresh thread-local tags carry a zero epoch, and must not match
  // an armed point.
  const uint32_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
  epoch_.store(epoch == 0 ? 1 : epoch, std::memory_order_relaxed);
  ordinal_.store(0, std::memory_order_relaxed);
  fires_.store(0, std::memory_order_relaxed);
  for (StatShard& s : stat_shards_) {
    s.hits.store(0, std::memory_order_relaxed);
  }
}

Status FaultPoint::FireSlow(std::string_view payload) {
  // Striped hit count: a plain load+store on this thread's padded slot. No
  // read-modify-write, no shared cache line — an armed-but-idle point stays
  // cheap even with every pipeline thread hammering it. The counting
  // triggers skip even this: their hit count rides along with the ordinal
  // block and is retired when the block is exhausted.
  auto count_hit = [this] {
    std::atomic<uint64_t>& slot = stat_shards_[ThisThreadStatShard()].hits;
    slot.store(slot.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  };
  bool fire = false;
  switch (spec_.trigger) {
    case FaultSpec::Trigger::kAlways:
      count_hit();
      fire = true;
      break;
    case FaultSpec::Trigger::kNth:
      fire = NextOrdinal() == spec_.nth;
      break;
    case FaultSpec::Trigger::kEveryNth: {
      const uint64_t ordinal = NextOrdinal();
      fire = spec_.nth > 0 && ordinal % spec_.nth == 0;
      break;
    }
    case FaultSpec::Trigger::kProbability:
      count_hit();
      if (!payload.empty()) {
        fire = HashToUnit(seed_, payload) < spec_.probability;
      } else {
        std::lock_guard<std::mutex> lock(mu_);
        fire = rng_.NextBool(spec_.probability);
      }
      break;
  }
  if (!fire) return Status::OK();
  return Fired();
}

Status FaultPoint::Fired() {
  uint64_t f = fires_.load(std::memory_order_relaxed);
  do {
    if (f >= spec_.max_fires) return Status::OK();
  } while (!fires_.compare_exchange_weak(f, f + 1, std::memory_order_relaxed));
  if (spec_.delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(spec_.delay_us));
  }
  obs::FlightRecorder::Default().Record(
      obs::FlightEventKind::kFaultFire, name_, StatusCodeName(spec_.code),
      /*node=*/-1, f + 1);
  if (spec_.code == StatusCode::kOk) return Status::OK();
  return Status(spec_.code, "injected fault at '" + name_ + "'");
}

FaultInjector& FaultInjector::Default() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

FaultPoint* FaultInjector::FindLocked(const std::string& name) const {
  auto it = points_.find(name);
  return it == points_.end() ? nullptr : it->second;
}

FaultPoint* FaultInjector::RegisterPoint(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it != points_.end()) return it->second;
  auto* point = new FaultPoint(std::string(name));  // process-lifetime
  point->seed_ = seed_ ^ StableHash64(point->name());
  point->tls_slot_ = g_next_tls_slot.fetch_add(1, std::memory_order_relaxed);
  point->fast_slot_ = std::min(point->tls_slot_, kFastTlsSlots);
  points_.emplace(point->name(), point);
  return point;
}

void FaultInjector::Arm(const std::string& point, FaultSpec spec) {
  FaultPoint* p = RegisterPoint(point);
  std::lock_guard<std::mutex> lock(mu_);
  // Quiesce the point before rewriting its spec: Hit() reads spec_/seed_
  // without a lock, guarded only by the armed tag.
  p->armed_tag_.exchange(0, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> plock(p->mu_);
    p->spec_ = spec;
    p->seed_ = seed_ ^ StableHash64(p->name());
    p->rng_ = Rng(p->seed_);
    p->ResetCountersLocked();
  }
  p->armed_tag_.store(p->ArmedTag(), std::memory_order_release);
}

void FaultInjector::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  FaultPoint* p = FindLocked(point);
  if (p != nullptr) p->armed_tag_.exchange(0, std::memory_order_acq_rel);
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, p] : points_) {
    p->armed_tag_.exchange(0, std::memory_order_acq_rel);
  }
}

void FaultInjector::Reseed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  for (auto& [name, p] : points_) {
    bool was_armed = p->armed_tag_.exchange(0, std::memory_order_acq_rel) != 0;
    {
      std::lock_guard<std::mutex> plock(p->mu_);
      p->seed_ = seed ^ StableHash64(p->name());
      p->rng_ = Rng(p->seed_);
      p->ResetCountersLocked();
    }
    if (was_armed) {
      p->armed_tag_.store(p->ArmedTag(), std::memory_order_release);
    }
  }
}

FaultInjector::PointStats FaultInjector::GetStats(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  const FaultPoint* p = FindLocked(point);
  if (p == nullptr) return PointStats{};
  return PointStats{p->hits(), p->fires(), p->armed()};
}

}  // namespace idea::common
