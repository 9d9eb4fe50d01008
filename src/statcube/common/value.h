// Value: the dynamic scalar type flowing through the relational engine and
// the statistical-object layer. A category value is usually a string or an
// integer code; a summary measure is an integer count or a double.

#ifndef STATCUBE_COMMON_VALUE_H_
#define STATCUBE_COMMON_VALUE_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

namespace statcube {

/// Scalar type tags. `kNull` doubles as the SQL NULL and as the encoding of
/// an empty cell in a sparse multidimensional array.
enum class ValueType { kNull = 0, kInt64, kDouble, kString, kAll };

/// Name of a value type ("null", "int64", ...).
const char* ValueTypeName(ValueType t);

/// A dynamically typed scalar.
///
/// Besides the usual SQL scalars, Value has a distinguished `ALL`
/// pseudo-value, the reserved keyword value introduced by the data-cube
/// paper [GB+96] and discussed in the paper's §4.3/§5.4 (Figures 10 and 15):
/// a row whose category column holds ALL carries a summary over every
/// category value of that column. ALL compares equal only to ALL and sorts
/// after every ordinary value, so cube results group naturally.
class Value {
 public:
  /// Constructs NULL.
  Value() : repr_(NullRepr{}) {}
  /*implicit*/ Value(int64_t v) : repr_(v) {}
  /*implicit*/ Value(int v) : repr_(static_cast<int64_t>(v)) {}
  /*implicit*/ Value(double v) : repr_(v) {}
  /*implicit*/ Value(std::string v) : repr_(std::move(v)) {}
  /*implicit*/ Value(const char* v) : repr_(std::string(v)) {}

  /// The NULL value.
  static Value Null() { return Value(); }
  /// The ALL pseudo-value ("summary over every category value").
  static Value All() {
    Value v;
    v.repr_ = AllRepr{};
    return v;
  }

  ValueType type() const {
    switch (repr_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInt64;
      case 2:
        return ValueType::kDouble;
      case 3:
        return ValueType::kString;
      default:
        return ValueType::kAll;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }
  bool is_all() const { return type() == ValueType::kAll; }

  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsDouble() const {
    if (type() == ValueType::kInt64)
      return static_cast<double>(std::get<int64_t>(repr_));
    return std::get<double>(repr_);
  }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  /// True if the value is numeric (int64 or double).
  bool is_numeric() const {
    ValueType t = type();
    return t == ValueType::kInt64 || t == ValueType::kDouble;
  }

  /// Renders the value for display; NULL -> "NULL", ALL -> "ALL".
  std::string ToString() const;

  /// Total order across types: NULL < numbers (by numeric value) < strings
  /// (lexicographic) < ALL. Used for sorting and as the B+-tree key order.
  friend bool operator<(const Value& a, const Value& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator==(const Value& a, const Value& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return Compare(a, b) != 0;
  }
  friend bool operator<=(const Value& a, const Value& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const Value& a, const Value& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const Value& a, const Value& b) {
    return Compare(a, b) >= 0;
  }

  /// Three-way comparison implementing the total order above. Int64 and
  /// double compare numerically against each other.
  static int Compare(const Value& a, const Value& b);

  /// Hash consistent with operator== (int64 and double hashing agree when
  /// they compare equal).
  size_t Hash() const;

 private:
  struct NullRepr {};
  struct AllRepr {};
  std::variant<NullRepr, int64_t, double, std::string, AllRepr> repr_;
};

/// A row of values: a tuple in the relational engine, or a coordinate vector
/// in the multidimensional layer.
using Row = std::vector<Value>;

/// Hash functor for rows (e.g. group-by keys).
struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (const Value& v : row) {
      h ^= v.Hash();
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

/// Equality functor for rows.
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i)
      if (a[i] != b[i]) return false;
    return true;
  }
};

/// Equality by representation: the same type, then the same value, doubles
/// by bits. Finer than operator==, under which 1 == 1.0, -0.0 == 0.0 and NaN
/// equals every number; Value::Hash is consistent with it.
struct SameRepr {
  bool operator()(const Value& a, const Value& b) const {
    if (a.type() != b.type()) return false;
    if (a.type() == ValueType::kInt64) return a.AsInt64() == b.AsInt64();
    if (a.type() == ValueType::kString) return a.AsString() == b.AsString();
    if (a.type() != ValueType::kDouble) return true;  // NULL, ALL
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  }
};

}  // namespace statcube

namespace std {
template <>
struct hash<statcube::Value> {
  size_t operator()(const statcube::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // STATCUBE_COMMON_VALUE_H_
