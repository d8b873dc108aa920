// The AsterixDB Data Model (ADM): a JSON superset with spatial and temporal
// primitives, nested arrays, and open (schema-extensible) objects. Value is
// the single record/value representation used by the parser, the SQL++
// evaluator, frames, and the storage engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace idea::adm {

/// Runtime type tag of a Value. The enumerator order defines the cross-type
/// ordering used by comparisons (MISSING < NULL < ... < OBJECT), matching the
/// spirit of SQL++ total ordering.
enum class ValueType : uint8_t {
  kMissing = 0,
  kNull,
  kBoolean,
  kInt64,
  kDouble,
  kString,
  kDateTime,
  kDuration,
  kPoint,
  kRectangle,
  kCircle,
  kArray,
  kObject,
};

/// Human-readable type name ("int64", "object", ...).
const char* ValueTypeName(ValueType t);

/// 2-D point (degrees in the paper's workloads).
struct Point {
  double x = 0;
  double y = 0;
  bool operator==(const Point& o) const { return x == o.x && y == o.y; }
};

/// Axis-aligned rectangle, lo = bottom-left, hi = top-right.
struct Rectangle {
  Point lo;
  Point hi;
  bool operator==(const Rectangle& o) const { return lo == o.lo && hi == o.hi; }
};

/// Circle with center and radius.
struct Circle {
  Point center;
  double radius = 0;
  bool operator==(const Circle& o) const {
    return center == o.center && radius == o.radius;
  }
};

/// Instant in time, milliseconds since the Unix epoch (UTC).
struct DateTime {
  int64_t epoch_ms = 0;
  bool operator==(const DateTime& o) const { return epoch_ms == o.epoch_ms; }
};

/// ISO-8601 duration split into a calendar part (months) and a fixed part
/// (milliseconds), as in AsterixDB's year-month / day-time duration split.
struct Duration {
  int32_t months = 0;
  int64_t millis = 0;
  bool operator==(const Duration& o) const {
    return months == o.months && millis == o.millis;
  }
};

class Value;

/// Ordered list of values.
using Array = std::vector<Value>;
/// Open record: ordered (insertion order) field-name/value pairs.
using Fields = std::vector<std::pair<std::string, Value>>;

/// Immutable-ish tagged union. Copies are deep; heavy values travel between
/// jobs in serialized frames, so copy cost is contained to operator-local use.
class Value {
 public:
  /// Default-constructed Value is MISSING.
  Value() : rep_(Missing{}) {}

  static Value MakeMissing() { return Value(); }
  static Value MakeNull() {
    Value v;
    v.rep_ = Null{};
    return v;
  }
  static Value MakeBool(bool b) {
    Value v;
    v.rep_ = b;
    return v;
  }
  static Value MakeInt(int64_t i) {
    Value v;
    v.rep_ = i;
    return v;
  }
  static Value MakeDouble(double d) {
    Value v;
    v.rep_ = d;
    return v;
  }
  static Value MakeString(std::string s) {
    Value v;
    v.rep_ = std::move(s);
    return v;
  }
  static Value MakeDateTime(DateTime dt) {
    Value v;
    v.rep_ = dt;
    return v;
  }
  static Value MakeDuration(Duration d) {
    Value v;
    v.rep_ = d;
    return v;
  }
  static Value MakePoint(Point p) {
    Value v;
    v.rep_ = p;
    return v;
  }
  static Value MakeRectangle(Rectangle r) {
    Value v;
    v.rep_ = r;
    return v;
  }
  static Value MakeCircle(Circle c) {
    Value v;
    v.rep_ = c;
    return v;
  }
  static Value MakeArray(Array a) {
    Value v;
    v.rep_ = std::move(a);
    return v;
  }
  static Value MakeObject(Fields f = {}) {
    Value v;
    v.rep_ = std::move(f);
    return v;
  }

  ValueType type() const;

  bool IsMissing() const { return type() == ValueType::kMissing; }
  bool IsNull() const { return type() == ValueType::kNull; }
  /// MISSING or NULL.
  bool IsUnknown() const { return IsMissing() || IsNull(); }
  bool IsBool() const { return type() == ValueType::kBoolean; }
  bool IsInt() const { return type() == ValueType::kInt64; }
  bool IsDouble() const { return type() == ValueType::kDouble; }
  bool IsNumeric() const { return IsInt() || IsDouble(); }
  bool IsString() const { return type() == ValueType::kString; }
  bool IsDateTime() const { return type() == ValueType::kDateTime; }
  bool IsDuration() const { return type() == ValueType::kDuration; }
  bool IsPoint() const { return type() == ValueType::kPoint; }
  bool IsRectangle() const { return type() == ValueType::kRectangle; }
  bool IsCircle() const { return type() == ValueType::kCircle; }
  bool IsArray() const { return type() == ValueType::kArray; }
  bool IsObject() const { return type() == ValueType::kObject; }

  // Unchecked accessors; callers must verify the type first (asserts in
  // debug builds).
  bool AsBool() const { return std::get<bool>(rep_); }
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  /// Numeric value widened to double (valid for kInt64 and kDouble).
  double AsNumber() const { return IsInt() ? static_cast<double>(AsInt()) : AsDouble(); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  const DateTime& AsDateTime() const { return std::get<DateTime>(rep_); }
  const Duration& AsDuration() const { return std::get<Duration>(rep_); }
  const Point& AsPoint() const { return std::get<Point>(rep_); }
  const Rectangle& AsRectangle() const { return std::get<Rectangle>(rep_); }
  const Circle& AsCircle() const { return std::get<Circle>(rep_); }
  const Array& AsArray() const { return std::get<Array>(rep_); }
  Array& MutableArray() { return std::get<Array>(rep_); }
  const Fields& AsObject() const { return std::get<Fields>(rep_); }
  Fields& MutableObject() { return std::get<Fields>(rep_); }

  /// Field lookup on an object; returns nullptr when absent or when this
  /// Value is not an object (SQL++ field access on non-objects is MISSING).
  const Value* GetField(const std::string& name) const;

  /// Field lookup that materializes MISSING for absent fields.
  const Value& GetFieldOrMissing(const std::string& name) const;

  /// Sets (replaces or appends) a field on an object. Asserts IsObject().
  void SetField(const std::string& name, Value v);

  /// Removes a field if present. Asserts IsObject().
  void RemoveField(const std::string& name);

  size_t ArraySize() const { return AsArray().size(); }
  size_t FieldCount() const { return AsObject().size(); }

  bool operator==(const Value& o) const { return Compare(*this, o) == 0; }
  bool operator!=(const Value& o) const { return !(*this == o); }
  bool operator<(const Value& o) const { return Compare(*this, o) < 0; }

  /// Total order over all values. Numerics compare numerically and exactly
  /// across int64/double, with NaN equal to NaN and above every other
  /// number; otherwise values of different types order by type tag.
  static int Compare(const Value& a, const Value& b);

  /// Stable hash compatible with Compare-equality for hashable types.
  static uint64_t Hash(const Value& a);

  /// Compact single-line JSON-ish rendering (extended types rendered as
  /// AsterixDB-style constructors, e.g. point("1.5,2.0")).
  std::string ToString() const;

  /// Rough in-memory footprint in bytes (used for frame/batch budgeting and
  /// hash-join build-size accounting).
  size_t EstimateSize() const;

 private:
  struct Missing {};
  struct Null {};
  std::variant<Missing, Null, bool, int64_t, double, std::string, DateTime, Duration,
               Point, Rectangle, Circle, Array, Fields>
      rep_;
};

}  // namespace idea::adm
