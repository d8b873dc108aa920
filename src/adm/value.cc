#include "adm/value.h"

#include <cmath>
#include <limits>

#include "adm/json.h"

namespace idea::adm {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kMissing:
      return "missing";
    case ValueType::kNull:
      return "null";
    case ValueType::kBoolean:
      return "boolean";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
    case ValueType::kDateTime:
      return "datetime";
    case ValueType::kDuration:
      return "duration";
    case ValueType::kPoint:
      return "point";
    case ValueType::kRectangle:
      return "rectangle";
    case ValueType::kCircle:
      return "circle";
    case ValueType::kArray:
      return "array";
    case ValueType::kObject:
      return "object";
  }
  return "unknown";
}

ValueType Value::type() const {
  return static_cast<ValueType>(rep_.index());
}

const Value* Value::GetField(const std::string& name) const {
  if (!IsObject()) return nullptr;
  for (const auto& [fname, fval] : AsObject()) {
    if (fname == name) return &fval;
  }
  return nullptr;
}

const Value& Value::GetFieldOrMissing(const std::string& name) const {
  static const Value kMissingValue;
  const Value* f = GetField(name);
  return f == nullptr ? kMissingValue : *f;
}

void Value::SetField(const std::string& name, Value v) {
  auto& fields = MutableObject();
  for (auto& [fname, fval] : fields) {
    if (fname == name) {
      fval = std::move(v);
      return;
    }
  }
  fields.emplace_back(name, std::move(v));
}

void Value::RemoveField(const std::string& name) {
  auto& fields = MutableObject();
  for (auto it = fields.begin(); it != fields.end(); ++it) {
    if (it->first == name) {
      fields.erase(it);
      return;
    }
  }
}

namespace {

constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exact as a double

// NaN equals NaN and orders above every other number, which keeps Compare a
// strict weak order (IEEE comparisons would make NaN equal to everything).
int Cmp(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
}
int Cmp(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }

// Exact int64-vs-double comparison. Widening the int64 to double would round
// above 2^53 and make numeric equality intransitive.
int CmpIntDouble(int64_t i, double d) {
  if (std::isnan(d) || d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  double t = std::trunc(d);  // in [-2^63, 2^63), so the cast is exact
  if (int c = Cmp(i, static_cast<int64_t>(t))) return c;
  return Cmp(t, d);
}

int CmpPoint(const Point& a, const Point& b) {
  if (int c = Cmp(a.x, b.x)) return c;
  return Cmp(a.y, b.y);
}

}  // namespace

int Value::Compare(const Value& a, const Value& b) {
  ValueType ta = a.type(), tb = b.type();
  // Numerics compare numerically across int64/double.
  if (a.IsNumeric() && b.IsNumeric()) {
    if (a.IsInt()) {
      return b.IsInt() ? Cmp(a.AsInt(), b.AsInt()) : CmpIntDouble(a.AsInt(), b.AsDouble());
    }
    return b.IsInt() ? -CmpIntDouble(b.AsInt(), a.AsDouble()) : Cmp(a.AsDouble(), b.AsDouble());
  }
  if (ta != tb) return static_cast<int>(ta) < static_cast<int>(tb) ? -1 : 1;
  switch (ta) {
    case ValueType::kMissing:
    case ValueType::kNull:
      return 0;
    case ValueType::kBoolean:
      return (a.AsBool() ? 1 : 0) - (b.AsBool() ? 1 : 0);
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 0;  // handled above
    case ValueType::kString:
      return a.AsString().compare(b.AsString()) < 0
                 ? -1
                 : (a.AsString() == b.AsString() ? 0 : 1);
    case ValueType::kDateTime:
      return Cmp(a.AsDateTime().epoch_ms, b.AsDateTime().epoch_ms);
    case ValueType::kDuration: {
      if (int c = Cmp(static_cast<int64_t>(a.AsDuration().months),
                      static_cast<int64_t>(b.AsDuration().months)))
        return c;
      return Cmp(a.AsDuration().millis, b.AsDuration().millis);
    }
    case ValueType::kPoint:
      return CmpPoint(a.AsPoint(), b.AsPoint());
    case ValueType::kRectangle: {
      if (int c = CmpPoint(a.AsRectangle().lo, b.AsRectangle().lo)) return c;
      return CmpPoint(a.AsRectangle().hi, b.AsRectangle().hi);
    }
    case ValueType::kCircle: {
      if (int c = CmpPoint(a.AsCircle().center, b.AsCircle().center)) return c;
      return Cmp(a.AsCircle().radius, b.AsCircle().radius);
    }
    case ValueType::kArray: {
      const Array& x = a.AsArray();
      const Array& y = b.AsArray();
      size_t n = std::min(x.size(), y.size());
      for (size_t i = 0; i < n; ++i) {
        if (int c = Compare(x[i], y[i])) return c;
      }
      return Cmp(static_cast<int64_t>(x.size()), static_cast<int64_t>(y.size()));
    }
    case ValueType::kObject: {
      // Field-order-sensitive lexicographic comparison: name, then value.
      const Fields& x = a.AsObject();
      const Fields& y = b.AsObject();
      size_t n = std::min(x.size(), y.size());
      for (size_t i = 0; i < n; ++i) {
        if (int c = x[i].first.compare(y[i].first)) return c < 0 ? -1 : 1;
        if (int c = Compare(x[i].second, y[i].second)) return c;
      }
      return Cmp(static_cast<int64_t>(x.size()), static_cast<int64_t>(y.size()));
    }
  }
  return 0;
}

namespace {
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashBytes(const void* p, size_t n, uint64_t h = kFnvOffset) {
  const auto* b = static_cast<const uint8_t*>(p);
  for (size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t HashDouble(double d) {
  // Hash the numeric value so that int64(5) and double(5.0) collide, and
  // -0.0 with 0.0, matching Compare() equality across numeric types. The
  // range check comes first: casting NaN, an infinity or anything outside
  // [-2^63, 2^63) to int64 is undefined.
  if (d >= -kTwo63 && d < kTwo63) {
    int64_t i = static_cast<int64_t>(d);
    if (static_cast<double>(i) == d) return HashBytes(&i, sizeof(i));
  }
  // Compare() makes every NaN equal, whatever its sign and payload bits.
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  return HashBytes(&d, sizeof(d));
}

uint64_t HashPoint(uint64_t h, const Point& p) {
  h = HashCombine(h, HashDouble(p.x));
  return HashCombine(h, HashDouble(p.y));
}
}  // namespace

uint64_t Value::Hash(const Value& v) {
  uint64_t h = HashCombine(kFnvOffset, static_cast<uint64_t>(v.IsNumeric()
                                                                 ? ValueType::kDouble
                                                                 : v.type()));
  switch (v.type()) {
    case ValueType::kMissing:
    case ValueType::kNull:
      return h;
    case ValueType::kBoolean:
      return HashCombine(h, v.AsBool() ? 1 : 0);
    case ValueType::kInt64: {
      int64_t i = v.AsInt();
      return HashCombine(h, HashBytes(&i, sizeof(i)));
    }
    case ValueType::kDouble:
      return HashCombine(h, HashDouble(v.AsDouble()));
    case ValueType::kString:
      return HashCombine(h, HashBytes(v.AsString().data(), v.AsString().size()));
    case ValueType::kDateTime: {
      int64_t ms = v.AsDateTime().epoch_ms;
      return HashCombine(h, HashBytes(&ms, sizeof(ms)));
    }
    case ValueType::kDuration: {
      const Duration& d = v.AsDuration();
      h = HashCombine(h, static_cast<uint64_t>(d.months));
      return HashCombine(h, static_cast<uint64_t>(d.millis));
    }
    // Coordinates hash through HashDouble so -0.0 and every NaN hash the
    // way Compare() equates them.
    case ValueType::kPoint:
      return HashPoint(h, v.AsPoint());
    case ValueType::kRectangle:
      return HashPoint(HashPoint(h, v.AsRectangle().lo), v.AsRectangle().hi);
    case ValueType::kCircle: {
      const Circle& c = v.AsCircle();
      return HashCombine(HashPoint(h, c.center), HashDouble(c.radius));
    }
    case ValueType::kArray: {
      for (const Value& e : v.AsArray()) h = HashCombine(h, Hash(e));
      return h;
    }
    case ValueType::kObject: {
      for (const auto& [name, val] : v.AsObject()) {
        h = HashCombine(h, HashBytes(name.data(), name.size()));
        h = HashCombine(h, Hash(val));
      }
      return h;
    }
  }
  return h;
}

std::string Value::ToString() const { return PrintJson(*this); }

size_t Value::EstimateSize() const {
  switch (type()) {
    case ValueType::kMissing:
    case ValueType::kNull:
    case ValueType::kBoolean:
      return 8;
    case ValueType::kInt64:
    case ValueType::kDouble:
    case ValueType::kDateTime:
      return 16;
    case ValueType::kDuration:
    case ValueType::kPoint:
      return 24;
    case ValueType::kRectangle:
    case ValueType::kCircle:
      return 40;
    case ValueType::kString:
      return 24 + AsString().size();
    case ValueType::kArray: {
      size_t s = 32;
      for (const Value& e : AsArray()) s += e.EstimateSize();
      return s;
    }
    case ValueType::kObject: {
      size_t s = 32;
      for (const auto& [name, val] : AsObject()) s += 24 + name.size() + val.EstimateSize();
      return s;
    }
  }
  return 8;
}

}  // namespace idea::adm
