#include "obs/tracer.h"

#include <algorithm>

#include "obs/metrics.h"

namespace idea::obs {

uint64_t Tracer::StartTrace(const std::string& feed) {
  std::lock_guard<std::mutex> lock(mu_);
  BatchTrace trace;
  trace.id = next_id_++;
  trace.feed = feed;
  trace.start_us = NowMicros();
  ring_.push_back(std::move(trace));
  if (ring_.size() > capacity_) ring_.pop_front();
  return ring_.back().id;
}

void Tracer::AddSpan(uint64_t id, Span span) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Recent traces live near the back; the ring is small.
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (it->id == id) {
      it->spans.push_back(std::move(span));
      return;
    }
  }
}

void Tracer::Drop(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = ring_.begin(); it != ring_.end(); ++it) {
    if (it->id == id) {
      ring_.erase(it);
      return;
    }
  }
}

std::vector<BatchTrace> Tracer::Recent(size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = max == 0 ? ring_.size() : std::min(max, ring_.size());
  std::vector<BatchTrace> out;
  out.reserve(n);
  for (size_t i = ring_.size() - n; i < ring_.size(); ++i) out.push_back(ring_[i]);
  return out;
}

bool Tracer::Find(uint64_t id, BatchTrace* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : ring_) {
    if (t.id == id) {
      *out = t;
      return true;
    }
  }
  return false;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

}  // namespace idea::obs
