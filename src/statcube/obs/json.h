/// \file
/// \brief The one JSON writer behind every machine-readable StatCube
/// surface. It places every comma and escapes every string, so caller text
/// cannot break a document. Doubles are exact (AppendDouble,
/// common/str_util.h); NaN, +∞ and −∞, which JSON lacks, are the strings
/// "NaN", "Infinity" and "-Infinity" (the proto3 JSON mapping), since
/// `null` already means a NULL cell.

#ifndef STATCUBE_OBS_JSON_H_
#define STATCUBE_OBS_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "statcube/common/value.h"

namespace statcube::obs {

/// Append-only, compact JSON builder over one string buffer. Each call
/// appends one token and returns the writer, so a document reads as a
/// chain: `w.BeginObject().Key("rows").Uint(2).EndObject()`. The caller
/// keeps it balanced: every Begin has its End, every Key one value.
class JsonWriter {
 public:
  /// Opens an object: `{`.
  JsonWriter& BeginObject() { return Raw("{"); }
  /// Closes the innermost object: `}`.
  JsonWriter& EndObject() { return Put('}'); }
  /// Opens an array: `[`.
  JsonWriter& BeginArray() { return Raw("["); }
  /// Closes the innermost array: `]`.
  JsonWriter& EndArray() { return Put(']'); }
  /// Writes an object member's name; the next call writes its value.
  JsonWriter& Key(std::string_view key) { return String(key).Put(':'); }
  /// An escaped string value.
  JsonWriter& String(std::string_view s);
  /// A signed integer value.
  JsonWriter& Int(int64_t v) { return Raw(std::to_string(v)); }
  /// An unsigned integer value.
  JsonWriter& Uint(uint64_t v) { return Raw(std::to_string(v)); }
  /// An exact double; NaN, +∞ and −∞ become "NaN", "Infinity", "-Infinity".
  JsonWriter& Double(double v);
  /// `true` or `false`.
  JsonWriter& Bool(bool v) { return Raw(v ? "true" : "false"); }
  /// `null`.
  JsonWriter& Null() { return Raw("null"); }
  /// One table cell: int64 as an integer, double as Double, string as an
  /// escaped string, NULL as `null` and ALL as the string "ALL".
  JsonWriter& Cell(const Value& v);
  /// Appends `json` after a separating comma where one is due: a complete
  /// value written by another JsonWriter, or a token of this one.
  JsonWriter& Raw(std::string_view json);
  /// Makes room for `more` further bytes, so that much is written without
  /// reallocating (and moving) what is already there.
  JsonWriter& Reserve(size_t more) {
    out_.reserve(out_.size() + more);
    return *this;
  }
  /// Bytes written so far.
  size_t size() const { return out_.size(); }
  /// Moves the text written so far out, leaving the writer empty.
  std::string Take() { return std::move(out_); }

 private:
  JsonWriter& Put(char c) {
    out_.push_back(c);
    return *this;
  }

  std::string out_;
};

/// `s` as a complete JSON string: escaped, with surrounding double quotes.
inline std::string JsonStr(std::string_view s) {
  return JsonWriter().String(s).Take();
}

}  // namespace statcube::obs

#endif  // STATCUBE_OBS_JSON_H_
