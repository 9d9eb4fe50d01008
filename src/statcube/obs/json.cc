#include "statcube/obs/json.h"

#include <cmath>

#include "statcube/common/str_util.h"

namespace statcube::obs {

JsonWriter& JsonWriter::Raw(std::string_view json) {
  if (!out_.empty() && out_.back() != '{' && out_.back() != '[' &&
      out_.back() != ':')
    out_.push_back(',');
  out_.append(json);
  return *this;
}

// `"` and `\` get a backslash, \n \t \r \b \f their short forms, any other
// byte below 0x20 \u00XX; runs of plain bytes are copied whole.
JsonWriter& JsonWriter::String(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  Raw("\"");  // the opening quote, after a separating comma if one is due
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      default: out_ += {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
    }
  }
  out_.append(s.data() + run, s.size() - run);
  return Put('"');
}

JsonWriter& JsonWriter::Double(double v) {
  if (std::isnan(v)) return Raw("\"NaN\"");
  if (std::isinf(v)) return Raw(v > 0 ? "\"Infinity\"" : "\"-Infinity\"");
  Raw("");  // the separating comma, if one is due
  AppendDouble(&out_, v);
  return *this;
}

JsonWriter& JsonWriter::Cell(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64: return Int(v.AsInt64());
    case ValueType::kDouble: return Double(v.AsDouble());
    case ValueType::kString: return String(v.AsString());
    case ValueType::kAll: return String("ALL");
    case ValueType::kNull: break;
  }
  return Null();
}

}  // namespace statcube::obs
