#include "statcube/serve/json_value.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "statcube/obs/json.h"

namespace statcube::serve {

const JsonValue* JsonValue::Find(const std::string& key) const {
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) found = &v;
  return found;
}

std::string JsonValue::Dump() const {
  obs::JsonWriter w;
  switch (type_) {
    case JsonType::kNull: w.Null(); break;
    case JsonType::kBool: w.Bool(bool_); break;
    case JsonType::kNumber:
      if (is_int_) w.Int(int_);
      else w.Double(num_);
      break;
    case JsonType::kString: w.String(str_); break;
    case JsonType::kArray:
      w.BeginArray();
      for (const JsonValue& v : arr_) w.Raw(v.Dump());
      w.EndArray();
      break;
    case JsonType::kObject:
      w.BeginObject();
      for (const auto& [key, v] : obj_) w.Key(key).Raw(v.Dump());
      w.EndObject();
      break;
  }
  return w.Take();
}

// Recursive-descent parser. Kept as a class so position/depth state does not
// have to thread through every production.
class JsonParser {
 public:
  JsonParser(const std::string& text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> Parse() {
    JsonValue root;
    STATCUBE_RETURN_NOT_OK(ParseValue(&root, 0));
    SkipWhitespace();
    if (pos_ != text_.size())
      return Err("trailing characters after JSON document");
    return root;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > max_depth_) return Err("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        out->type_ = JsonType::kString;
        return ParseString(&out->str_);
      }
      case 't':
      case 'f': return ParseBool(out);
      case 'n': return ParseNull(out);
      default: return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->type_ = JsonType::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return Err("expected object key string");
      std::string key;
      STATCUBE_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Err("expected ':' after object key");
      JsonValue value;
      STATCUBE_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->obj_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Err("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->type_ = JsonType::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      STATCUBE_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->arr_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Err("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Err("unescaped control character in string");
      if (c != '\\') {
        out->push_back(char(c));
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) return Err("truncated escape");
      char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_ + size_t(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
            else return Err("bad hex digit in \\u escape");
          }
          pos_ += 4;
          // UTF-8 encode the code point. Surrogate pairs are passed through
          // as two 3-byte sequences — request fields are ASCII in practice
          // and the value is never re-interpreted, only compared/echoed.
          if (code < 0x80) {
            out->push_back(char(code));
          } else if (code < 0x800) {
            out->push_back(char(0xC0 | (code >> 6)));
            out->push_back(char(0x80 | (code & 0x3F)));
          } else {
            out->push_back(char(0xE0 | (code >> 12)));
            out->push_back(char(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(char(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return Err("unknown escape character");
      }
    }
    return Err("unterminated string");
  }

  Status ParseBool(JsonValue* out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      out->type_ = JsonType::kBool;
      out->bool_ = true;
      pos_ += 4;
      return Status::OK();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->type_ = JsonType::kBool;
      out->bool_ = false;
      pos_ += 5;
      return Status::OK();
    }
    return Err("expected 'true' or 'false'");
  }

  Status ParseNull(JsonValue* out) {
    if (text_.compare(pos_, 4, "null") == 0) {
      out->type_ = JsonType::kNull;
      pos_ += 4;
      return Status::OK();
    }
    return Err("expected 'null'");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    bool integral = true;
    (void)Consume('-');
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      return Err("expected a number");
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    // JSON forbids leading zeros ("01"); be strict like the query-string
    // parser so malformed clients hear about it.
    size_t digits_start = text_[start] == '-' ? start + 1 : start;
    if (pos_ - digits_start > 1 && text_[digits_start] == '0') {
      pos_ = digits_start;
      return Err("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        return Err("expected digits after decimal point");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        return Err("expected digits in exponent");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    std::string token = text_.substr(start, pos_ - start);
    out->type_ = JsonType::kNumber;
    out->num_ = strtod(token.c_str(), nullptr);
    if (integral) {
      errno = 0;
      long long v = strtoll(token.c_str(), nullptr, 10);
      if (errno == 0) {
        out->is_int_ = true;
        out->int_ = int64_t(v);
      }
    }
    return Status::OK();
  }

  const std::string& text_;
  const int max_depth_;
  size_t pos_ = 0;
};

Result<JsonValue> ParseJson(const std::string& text, int max_depth) {
  return JsonParser(text, max_depth).Parse();
}

}  // namespace statcube::serve
