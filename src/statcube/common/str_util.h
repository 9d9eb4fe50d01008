// Small string helpers shared by renderers and error messages.

#ifndef STATCUBE_COMMON_STR_UTIL_H_
#define STATCUBE_COMMON_STR_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace statcube {

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Pads `s` on the right with spaces to at least `width` characters.
std::string PadRight(const std::string& s, size_t width);

/// Pads `s` on the left with spaces to at least `width` characters.
std::string PadLeft(const std::string& s, size_t width);

/// Formats an integer with thousands separators ("1,234,567").
std::string WithCommas(int64_t v);

/// Appends the shortest text that `strtod` reads back as exactly `v`:
/// "2658072", "0.1", "1e+21", "-0", and "nan", "inf", "-inf" when not
/// finite. The one double format that machines read (JSON, CSV,
/// Prometheus, cache keys); text for people rounds (Value::ToString).
void AppendDouble(std::string* out, double v);

/// AppendDouble into a fresh string.
inline std::string FormatDouble(double v) {
  std::string out;
  AppendDouble(&out, v);
  return out;
}

}  // namespace statcube

#endif  // STATCUBE_COMMON_STR_UTIL_H_
