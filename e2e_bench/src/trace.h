// In-memory span log of a traced benchmark run.
//
// The harness records its own spans (a root `op` per op, `obs.http` around
// each POST /query, `core.append` around each append batch) and grafts
// under each `obs.http` the spans the program already recorded for that
// request, fetched from the flight recorder by the response's profile id.
// Spans are written out as Chrome trace-event JSON when the run ends.

#ifndef E2E_BENCH_TRACE_H_
#define E2E_BENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "statcube/obs/trace.h"

namespace e2e {

/// One recorded span; times are steady-clock nanoseconds.
struct HarnessSpan {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index into the log; -1 for an op root
  uint64_t op = 0;      ///< op index the span belongs to
};

class SpanLog {
 public:
  /// Records a finished span and returns its index.
  int32_t Add(std::string name, int32_t parent, uint64_t op, int64_t start_ns,
              int64_t end_ns);

  /// Copies the closed spans of a program `trace` under `parent`, shifted
  /// so the trace's first root span starts at `root_start_ns`, and clamped
  /// into the parent. A span that had to move by more than the 1 µs
  /// rounding of a profile's latency counts as a nesting violation: the
  /// profile did not fit its round trip. Returns the index of each grafted
  /// span in trace order (-1 for spans not copied).
  std::vector<int32_t> Graft(int32_t parent, const statcube::obs::Trace& trace,
                             int64_t root_start_ns);

  const std::vector<HarnessSpan>& spans() const { return spans_; }

  /// Each span's duration minus the part of it its children cover.
  std::vector<int64_t> SelfTimesNs() const;

  /// Spans that do not lie inside their parent, plus grafted spans that
  /// had to be clamped into it.
  size_t NestingViolations() const;

  /// Chrome trace-event JSON ("X" events, microseconds from `origin_ns`).
  std::string ChromeJson(int64_t origin_ns) const;

 private:
  std::vector<HarnessSpan> spans_;
  size_t clamped_ = 0;
};

}  // namespace e2e

#endif  // E2E_BENCH_TRACE_H_
