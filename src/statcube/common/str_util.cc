#include "statcube/common/str_util.h"

#include <charconv>
#include <cstdlib>

namespace statcube {

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string PadRight(const std::string& s, size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::string PadLeft(const std::string& s, size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string WithCommas(int64_t v) {
  bool neg = v < 0;
  uint64_t u = neg ? static_cast<uint64_t>(-(v + 1)) + 1 : static_cast<uint64_t>(v);
  std::string digits = std::to_string(u);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out += ',';
    out += *it;
    ++count;
  }
  if (neg) out += '-';
  return std::string(out.rbegin(), out.rend());
}

void AppendDouble(std::string* out, double v) {
  char buf[32];  // the longest shortest form, "-2.2250738585072014e-308", is 24
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace statcube
