#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "statcube/obs/json.h"

namespace e2e {

namespace {

// A profile's latency is recorded in whole microseconds, so its root can be
// placed up to 1 µs off inside the round trip.
constexpr int64_t kGraftToleranceNs = 1000;

}  // namespace

int32_t SpanLog::Add(std::string name, int32_t parent, uint64_t op,
                     int64_t start_ns, int64_t end_ns) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, op});
  return int32_t(spans_.size() - 1);
}

std::vector<int32_t> SpanLog::Graft(int32_t parent,
                                    const statcube::obs::Trace& trace,
                                    int64_t root_start_ns) {
  const auto& recs = trace.spans();
  std::vector<int32_t> index(recs.size(), -1);
  int64_t origin = -1;
  for (const auto& r : recs)
    if (r.parent < 0) {
      origin = int64_t(r.start_ns);
      break;
    }
  if (origin < 0) return index;
  const int64_t lo = spans_[size_t(parent)].start_ns;
  const int64_t hi = spans_[size_t(parent)].end_ns;
  const uint64_t op = spans_[size_t(parent)].op;
  for (size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    if (r.open) continue;
    int32_t p = parent;
    if (r.parent >= 0) {
      p = index[size_t(r.parent)];
      if (p < 0) continue;
    }
    const int64_t start = root_start_ns + (int64_t(r.start_ns) - origin);
    const int64_t end = start + int64_t(r.dur_ns);
    if (start < lo - kGraftToleranceNs || end > hi + kGraftToleranceNs)
      ++clamped_;
    const int64_t in_start = std::clamp(start, lo, hi);
    index[i] = Add(r.name, p, op, in_start, std::clamp(end, in_start, hi));
  }
  return index;
}

std::vector<int64_t> SpanLog::SelfTimesNs() const {
  std::vector<std::vector<int32_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0) children[size_t(spans_[i].parent)].push_back(int32_t(i));
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const HarnessSpan& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (int32_t c : children[i])
      iv.emplace_back(std::max(spans_[size_t(c)].start_ns, s.start_ns),
                      std::min(spans_[size_t(c)].end_ns, s.end_ns));
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

size_t SpanLog::NestingViolations() const {
  size_t bad = clamped_;
  for (const HarnessSpan& s : spans_) {
    if (s.end_ns < s.start_ns) ++bad;
    if (s.parent < 0) continue;
    const HarnessSpan& p = spans_[size_t(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) ++bad;
  }
  return bad;
}

std::string SpanLog::ChromeJson(int64_t origin_ns) const {
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const HarnessSpan& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"op\":%llu,\"parent\":%d}}",
                  double(s.start_ns - origin_ns) / 1e3,
                  double(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.op), s.parent);
    out += (i ? ",{\"name\":" : "{\"name\":") + statcube::obs::JsonStr(s.name) +
           buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace e2e
