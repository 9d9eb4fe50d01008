// Process-wide observability metrics (counters, gauges, fixed-bucket
// histograms) behind a single runtime gate. The paper's §6 performance
// arguments are claims about how much work a query does; BlockCounter
// (common/block_counter.h) measures logical I/O per store, and this registry
// aggregates that — plus rows, calls, and latencies — across the whole
// process so benchmarks and the CLI can attribute cost to subsystems.
//
// Naming convention: `statcube.<module>.<name>`, e.g.
// `statcube.viewstore.hits`, `statcube.backend.molap.blocks_read`,
// `statcube.query.latency_us`.
//
// Overhead contract: every instrumentation site is guarded by
// `obs::Enabled()` — a relaxed atomic load and a branch. When disabled, no
// allocation, no locking, and no metric mutation happens on any hot path.
// When enabled, updates are lock-free atomic increments; only the first
// lookup of a metric name takes the registry mutex.

#ifndef STATCUBE_OBS_METRICS_H_
#define STATCUBE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "statcube/common/mutex.h"
#include "statcube/common/thread_annotations.h"

namespace statcube::obs {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// True when observability collection is on. Relaxed load + branch: cheap
/// enough to call on every operator invocation.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the global gate (returns the previous value).
bool SetEnabled(bool on);

/// RAII gate flip: enables (or disables) observability for a scope and
/// restores the previous state on exit.
class EnabledScope {
 public:
  explicit EnabledScope(bool on) : prev_(SetEnabled(on)) {}
  ~EnabledScope() { SetEnabled(prev_); }
  EnabledScope(const EnabledScope&) = delete;
  EnabledScope& operator=(const EnabledScope&) = delete;

 private:
  bool prev_;
};

/// Monotonically increasing counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. An observation of `v` lands in the first bucket
/// whose upper bound satisfies `v <= bound`; values above the last bound land
/// in the implicit overflow bucket. Bucket bounds are fixed at registration.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i` alone (NOT cumulative); `i == bounds().size()` is
  /// the overflow bucket.
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Estimated value at quantile `q` in [0, 1] by linear interpolation
  /// within the bucket containing the q-th observation (the standard
  /// Prometheus histogram_quantile estimate). Returns 0 with no
  /// observations; quantiles landing in the overflow bucket clamp to the
  /// last finite bound. Feeds the exporter's p50/p95/p99 gauges.
  double Percentile(double q) const;
  void Reset();

 private:
  std::vector<double> bounds_;  // ascending upper bounds
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// 1-2-5 decade ladder from 1 us to 1 s — the default latency bucketing.
const std::vector<double>& DefaultLatencyBoundsUs();

/// Thread-safe registry of named metrics. Metric objects are created on
/// first lookup and live for the process lifetime, so callers may cache the
/// returned references.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `bounds` is only consulted on first registration; empty means
  /// DefaultLatencyBoundsUs().
  Histogram& GetHistogram(const std::string& name,
                          const std::vector<double>& bounds = {});

  /// One metric per line: `name value` (histograms expand to
  /// `name.count/.sum/.le_<bound>` lines). Sorted by name.
  ///
  /// Histogram `le_<bound>` lines are CUMULATIVE: each counts observations
  /// <= that bound, so `le_inf` always equals `count`. This matches
  /// Prometheus histogram semantics and the /metrics exporter
  /// (obs/exporter.h); a scraper can diff any two snapshots line-by-line.
  std::string TextSnapshot() const;

  /// Calls the given callbacks for every registered metric, in name order
  /// per kind, while holding the registry mutex (callbacks must not call
  /// back into the registry). Null callbacks skip that kind. This is how
  /// external renderers (obs/exporter.h) iterate without the registry
  /// knowing their format.
  void Visit(
      const std::function<void(const std::string&, const Counter&)>& counter_fn,
      const std::function<void(const std::string&, const Gauge&)>& gauge_fn,
      const std::function<void(const std::string&, const Histogram&)>&
          histogram_fn) const;

  /// Zeroes every registered metric (the metrics stay registered).
  void Reset();

 private:
  MetricsRegistry() = default;

  // The pointed-to metric objects are internally lock-free atomics; the
  // mutex guards only the name → object maps (registration and iteration).
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      STATCUBE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      STATCUBE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      STATCUBE_GUARDED_BY(mu_);
};

}  // namespace statcube::obs

#endif  // STATCUBE_OBS_METRICS_H_
