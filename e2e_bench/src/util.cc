// Small helpers shared by the harness: order statistics, hashing, the
// seeded generator, and peak RSS.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness.h"

namespace e2e {

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - double(lo);
  if (frac == 0) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  SplitMix a(seed * 0x100000001b3ull + stream);
  SplitMix b(a.Next() ^ (index * 0xd1b54a32d192ed03ull));
  return b.Next();
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace e2e
