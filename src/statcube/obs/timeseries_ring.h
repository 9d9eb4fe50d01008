/// \file
/// \brief Fixed-interval time series over the metrics registry: a
/// `MetricSampler` thread snapshots selected counters, gauges, and
/// histograms every tick into fixed-size `TimeSeriesRing`s, turning
/// monotonic counters into rates (QPS) and cumulative histograms into
/// sliding-window percentiles (p50/p95/p99 over the last N ticks) — the
/// data behind /statusz's sparklines.
///
/// Memory model: every ring is allocated at registration; a tick pushes
/// into preallocated atomic slots and reuses preallocated scratch buffers,
/// so steady-state sampling performs no allocation. Readers (HTTP scrape
/// threads) snapshot rings without blocking the sampler: slots are
/// `std::atomic<double>` (tear-free by construction), the writer announces
/// each push before it stores the slot, and a snapshot re-reads that
/// announcement after copying to discard any slot the single writer may
/// have overwritten mid-snapshot.

#ifndef STATCUBE_OBS_TIMESERIES_RING_H_
#define STATCUBE_OBS_TIMESERIES_RING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "statcube/common/mutex.h"
#include "statcube/common/thread_annotations.h"

namespace statcube::obs {

/// A fixed-capacity ring of doubles with one writer (the sampler) and any
/// number of lock-free readers. `Push` overwrites the oldest value once
/// full; `Snapshot` returns the retained values oldest-first, dropping any
/// entry the writer may have overwritten while the snapshot was being
/// taken (so a reader never sees a torn or half-rotated window).
class TimeSeriesRing {
 public:
  /// `capacity` is clamped to at least 1. All slots are allocated here.
  explicit TimeSeriesRing(size_t capacity)
      : slots_(capacity == 0 ? 1 : capacity) {}

  TimeSeriesRing(const TimeSeriesRing&) = delete;             ///< Not copyable.
  TimeSeriesRing& operator=(const TimeSeriesRing&) = delete;  ///< Not copyable.

  /// Appends `v`, overwriting the oldest value when full. Single writer.
  void Push(double v) {
    uint64_t c = count_.load(std::memory_order_relaxed);
    // Announce the push before touching the slot. The slot's release store
    // carries the announcement to any reader whose acquire load sees the new
    // value, so Snapshot knows logical index c - capacity is gone.
    writing_.store(c + 1, std::memory_order_relaxed);
    slots_[size_t(c % slots_.size())].store(v, std::memory_order_release);
    count_.store(c + 1, std::memory_order_release);
  }

  /// Slots allocated (the window length).
  size_t capacity() const { return slots_.size(); }
  /// Total values ever pushed (not capped by capacity).
  uint64_t count() const { return count_.load(std::memory_order_acquire); }
  /// The most recently pushed value, or 0 before the first push.
  double Last() const {
    uint64_t c = count_.load(std::memory_order_acquire);
    if (c == 0) return 0.0;
    return slots_[size_t((c - 1) % slots_.size())].load(
        std::memory_order_acquire);
  }

  /// The retained values, oldest first. Safe against a concurrent writer:
  /// entries overwritten during the copy are dropped from the front.
  std::vector<double> Snapshot() const;

 private:
  std::vector<std::atomic<double>> slots_;
  std::atomic<uint64_t> count_{0};    // pushes completed
  std::atomic<uint64_t> writing_{0};  // pushes started
};

/// Options for MetricSampler.
struct MetricSamplerOptions {
  /// Milliseconds between ticks (clamped to >= 10).
  int interval_ms = 1000;
  /// Samples retained per series ring.
  size_t ring_capacity = 120;
  /// Ticks per sliding percentile window (clamped to ring_capacity).
  size_t percentile_window = 30;
};

/// Samples registered metrics on a fixed interval from a background
/// thread. Register the series (and call Start) before handing the sampler
/// to readers; `SampleOnce` is exposed so tests can tick deterministically
/// without the thread.
///
/// Series naming: a counter rate for metric `m` is published as `m.rate`
/// (per second); a gauge keeps its name; a histogram `m` publishes
/// `m.p50` / `m.p95` / `m.p99` computed over the sliding window (bucket
/// deltas between the newest and oldest retained cumulative snapshot,
/// interpolated exactly like Histogram::Percentile); a ratio series uses
/// the name it was registered under (per-tick delta(numerator) /
/// delta(denominators), e.g. cache hit rate).
class MetricSampler {
 public:
  explicit MetricSampler(const MetricSamplerOptions& options = {});
  /// Stops the sampling thread if still running.
  ~MetricSampler();

  MetricSampler(const MetricSampler&) = delete;             ///< Not copyable.
  MetricSampler& operator=(const MetricSampler&) = delete;  ///< Not copyable.

  /// Publishes `<metric>.rate`: per-second delta of the counter.
  void AddCounterRate(const std::string& metric);
  /// Publishes `name`: delta(numerator) / sum(delta(denominators)) per
  /// tick, 0 when the denominator delta is 0. The numerator metric does
  /// not need to appear among the denominators.
  void AddCounterRatio(const std::string& name, const std::string& numerator,
                       const std::vector<std::string>& denominators);
  /// Publishes the gauge's instantaneous value under its own name.
  void AddGauge(const std::string& metric);
  /// Publishes `<metric>.p50/.p95/.p99` over the sliding window.
  void AddHistogramWindow(const std::string& metric);
  /// Registers the series /statusz renders: query rate, sliding query
  /// latency percentiles, cache hit rate, scheduler queue depth and pool
  /// size, task/morsel rates, and the vectorized-kernel row rate.
  void AddDefaultStatuszSeries();

  /// Starts the background sampling thread (idempotent).
  void Start();
  /// Stops and joins the thread (idempotent; also called by the dtor).
  void Stop();

  /// Takes one sample tick now. Called by the thread every interval; tests
  /// call it directly for determinism. Must not race itself.
  void SampleOnce();

  /// Ticks taken so far.
  uint64_t samples() const { return ticks_.load(std::memory_order_acquire); }
  /// Configured tick interval.
  int interval_ms() const { return interval_ms_; }
  /// Configured sliding-window length in ticks.
  size_t window() const { return window_; }

  /// Snapshot of every series, oldest first, sorted by name.
  std::vector<std::pair<std::string, std::vector<double>>> SnapshotAll() const;
  /// Snapshot of one series (empty when unknown).
  std::vector<double> Series(const std::string& name) const;
  /// JSON object: interval_ms, window, samples, and a "series" object
  /// mapping each name to its value array.
  std::string ToJson() const;

 private:
  struct CounterRateSeries;
  struct RatioSeries;
  struct GaugeSeries;
  struct HistogramSeries;

  void ThreadLoop();

  const int interval_ms_;
  const size_t capacity_;
  const size_t window_;

  mutable Mutex mu_;  // guards the series lists (rings are lock-free)
  std::vector<std::unique_ptr<CounterRateSeries>> counter_series_
      STATCUBE_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<RatioSeries>> ratio_series_
      STATCUBE_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<GaugeSeries>> gauge_series_
      STATCUBE_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<HistogramSeries>> histogram_series_
      STATCUBE_GUARDED_BY(mu_);

  std::atomic<uint64_t> ticks_{0};
  uint64_t last_tick_ns_ = 0;  // SampleOnce-caller only (the sampler thread)
  std::atomic<bool> stop_{false};
  Mutex thread_mu_;  // guards thread_ start/stop
  std::thread thread_ STATCUBE_GUARDED_BY(thread_mu_);
  bool running_ STATCUBE_GUARDED_BY(thread_mu_) = false;
  Mutex wake_mu_;    // companion of wake_cv_ (wait condition is stop_)
  CondVar wake_cv_;
};

}  // namespace statcube::obs

#endif  // STATCUBE_OBS_TIMESERIES_RING_H_
