/// \file
/// \brief A minimal JSON reader for `POST /query` request bodies.
///
/// The serving subsystem accepts requests as small JSON objects ("which
/// query, which engine, which tenant"), so it needs to *read* JSON where the
/// rest of obs/ only ever *writes* it (obs/json.h). This is a deliberately
/// small recursive-descent parser over the full JSON grammar — objects,
/// arrays, strings with escapes, numbers, booleans, null — with the limits a
/// front door wants: a maximum nesting depth (a hostile body of ten thousand
/// '[' must not recurse the stack away) and strict trailing-garbage
/// rejection. It makes no allocation-sharing or streaming claims; request
/// bodies are bounded by the HTTP layer (StatsServerOptions::max_body_bytes)
/// long before parse cost matters.
///
/// Errors are reported through the repo's Status type with the byte offset
/// of the offending character, so the front door's 400 responses can say
/// *where* the body went wrong.

#ifndef STATCUBE_SERVE_JSON_VALUE_H_
#define STATCUBE_SERVE_JSON_VALUE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "statcube/common/status.h"

namespace statcube::serve {

/// Type tag of a parsed JSON value.
enum class JsonType : uint8_t {
  kNull,    ///< JSON null
  kBool,    ///< true / false
  kNumber,  ///< any JSON number (stored as double; integral values keep an
            ///< exact int64 alongside while they fit)
  kString,  ///< a JSON string, unescaped
  kArray,   ///< [...]
  kObject,  ///< {...}
};

/// One parsed JSON value (a tree: arrays and objects own their children).
/// Accessors are checked: asking an object for its string value is a
/// programming error caught by the `ok`-style getters, not UB.
class JsonValue {
 public:
  /// Constructs JSON null.
  JsonValue() = default;

  /// This value's type tag.
  JsonType type() const { return type_; }

  /// True when the value is JSON null.
  bool is_null() const { return type_ == JsonType::kNull; }
  /// True for true/false.
  bool is_bool() const { return type_ == JsonType::kBool; }
  /// True for any number.
  bool is_number() const { return type_ == JsonType::kNumber; }
  /// True when the number was written without fraction/exponent and fits
  /// int64 exactly (so "threads": 4 is an int, "threads": 4.5 is not).
  bool is_int() const { return type_ == JsonType::kNumber && is_int_; }
  /// True for strings.
  bool is_string() const { return type_ == JsonType::kString; }
  /// True for arrays.
  bool is_array() const { return type_ == JsonType::kArray; }
  /// True for objects.
  bool is_object() const { return type_ == JsonType::kObject; }

  /// The boolean value (false unless is_bool()).
  bool AsBool() const { return bool_; }
  /// The number as a double (0 unless is_number()).
  double AsDouble() const { return num_; }
  /// The number as an int64 (0 unless is_int()).
  int64_t AsInt() const { return int_; }
  /// The unescaped string (empty unless is_string()).
  const std::string& AsString() const { return str_; }
  /// Array elements (empty unless is_array()).
  const std::vector<JsonValue>& AsArray() const { return arr_; }
  /// Object members in source order (empty unless is_object()). Source
  /// order is kept so error messages and round-trip dumps stay readable;
  /// lookup is by linear scan — request bodies have a handful of keys.
  const std::vector<std::pair<std::string, JsonValue>>& AsObject() const {
    return obj_;
  }

  /// Pointer to the member named `key`, or nullptr (objects only; the last
  /// duplicate wins, matching common JSON-decoder behaviour).
  const JsonValue* Find(const std::string& key) const;

  /// Re-serializes this value as compact JSON through obs::JsonWriter
  /// (integers as written, other numbers exact).
  std::string Dump() const;

 private:
  friend class JsonParser;

  JsonType type_ = JsonType::kNull;
  bool bool_ = false;
  bool is_int_ = false;
  double num_ = 0;
  int64_t int_ = 0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

/// Parses `text` as one complete JSON document. Trailing non-whitespace,
/// nesting beyond `max_depth`, invalid escapes, and every other grammar
/// violation return InvalidArgument with the byte offset of the problem.
Result<JsonValue> ParseJson(const std::string& text, int max_depth = 64);

}  // namespace statcube::serve

#endif  // STATCUBE_SERVE_JSON_VALUE_H_
