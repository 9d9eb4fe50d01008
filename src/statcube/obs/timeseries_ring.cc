#include "statcube/obs/timeseries_ring.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "statcube/obs/json.h"
#include "statcube/obs/metrics.h"

namespace statcube::obs {

std::vector<double> TimeSeriesRing::Snapshot() const {
  const size_t cap = slots_.size();
  const uint64_t end = count_.load(std::memory_order_acquire);
  const uint64_t begin = end > cap ? end - cap : 0;
  std::vector<double> out;
  out.reserve(size_t(end - begin));
  for (uint64_t i = begin; i < end; ++i)
    out.push_back(slots_[size_t(i % cap)].load(std::memory_order_acquire));
  // Anything the writer rotated past while we copied is suspect: the slot
  // for logical index i may now hold a newer value. A push that overwrote a
  // slot we read announced itself before its release store, and our acquire
  // load of that slot makes the announcement visible here — even while the
  // push is still in flight (count_ has not moved yet). Drop those entries
  // from the front — the window shrinks instead of tearing.
  const uint64_t end2 = writing_.load(std::memory_order_relaxed);
  const uint64_t new_begin = end2 > cap ? end2 - cap : 0;
  const uint64_t overwritten = new_begin > begin ? new_begin - begin : 0;
  if (overwritten >= out.size()) return {};
  out.erase(out.begin(), out.begin() + size_t(overwritten));
  return out;
}

namespace {

uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

// Percentile over per-bucket (non-cumulative) counts with the same
// interpolation as Histogram::Percentile, so a full-history window matches
// the histogram's own estimate.
double PercentileFromBuckets(const std::vector<double>& bounds,
                             const std::vector<uint64_t>& counts, double q) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  uint64_t rank = uint64_t(q * double(total));
  if (rank < 1) rank = 1;
  uint64_t cum = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    uint64_t in_bucket = counts[i];
    if (cum + in_bucket >= rank) {
      double lo = i == 0 ? 0.0 : bounds[i - 1];
      double hi = bounds[i];
      if (in_bucket == 0) return hi;
      return lo + (hi - lo) * double(rank - cum) / double(in_bucket);
    }
    cum += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace

struct MetricSampler::CounterRateSeries {
  std::string name;  // "<metric>.rate"
  Counter* counter;
  uint64_t prev = 0;
  TimeSeriesRing ring;
  CounterRateSeries(std::string n, Counter* c, size_t cap)
      : name(std::move(n)), counter(c), ring(cap) {}
};

struct MetricSampler::RatioSeries {
  std::string name;
  Counter* numerator;
  std::vector<Counter*> denominators;
  uint64_t prev_numer = 0;
  std::vector<uint64_t> prev_denoms;
  TimeSeriesRing ring;
  RatioSeries(std::string n, Counter* num, std::vector<Counter*> den,
              size_t cap)
      : name(std::move(n)),
        numerator(num),
        denominators(std::move(den)),
        prev_denoms(denominators.size(), 0),
        ring(cap) {}
};

struct MetricSampler::GaugeSeries {
  std::string name;
  Gauge* gauge;
  TimeSeriesRing ring;
  GaugeSeries(std::string n, Gauge* g, size_t cap)
      : name(std::move(n)), gauge(g), ring(cap) {}
};

struct MetricSampler::HistogramSeries {
  std::string name;  // base metric name
  Histogram* hist;
  size_t nbuckets;              // bounds.size() + 1 (overflow)
  size_t nframes_retained;      // window + 1 cumulative snapshots
  std::vector<uint64_t> frames; // ring of per-bucket snapshots, sampler-only
  uint64_t frames_pushed = 0;
  uint64_t prev_total = 0;
  std::vector<uint64_t> scratch;  // bucket deltas, reused every tick
  TimeSeriesRing rate;  // "<name>.rate": observations per second
  TimeSeriesRing p50;
  TimeSeriesRing p95;
  TimeSeriesRing p99;
  HistogramSeries(std::string n, Histogram* h, size_t window, size_t cap)
      : name(std::move(n)),
        hist(h),
        nbuckets(h->bounds().size() + 1),
        nframes_retained(window + 1),
        frames(nbuckets * nframes_retained, 0),
        scratch(nbuckets, 0),
        rate(cap),
        p50(cap),
        p95(cap),
        p99(cap) {}
};

MetricSampler::MetricSampler(const MetricSamplerOptions& options)
    : interval_ms_(std::max(10, options.interval_ms)),
      capacity_(std::max<size_t>(1, options.ring_capacity)),
      window_(std::max<size_t>(
          1, std::min(options.percentile_window, capacity_))) {}

MetricSampler::~MetricSampler() { Stop(); }

void MetricSampler::AddCounterRate(const std::string& metric) {
  Counter& c = MetricsRegistry::Global().GetCounter(metric);
  MutexLock lock(mu_);
  counter_series_.push_back(std::make_unique<CounterRateSeries>(
      metric + ".rate", &c, capacity_));
}

void MetricSampler::AddCounterRatio(
    const std::string& name, const std::string& numerator,
    const std::vector<std::string>& denominators) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& num = reg.GetCounter(numerator);
  std::vector<Counter*> den;
  den.reserve(denominators.size());
  for (const std::string& d : denominators) den.push_back(&reg.GetCounter(d));
  MutexLock lock(mu_);
  ratio_series_.push_back(
      std::make_unique<RatioSeries>(name, &num, std::move(den), capacity_));
}

void MetricSampler::AddGauge(const std::string& metric) {
  Gauge& g = MetricsRegistry::Global().GetGauge(metric);
  MutexLock lock(mu_);
  gauge_series_.push_back(
      std::make_unique<GaugeSeries>(metric, &g, capacity_));
}

void MetricSampler::AddHistogramWindow(const std::string& metric) {
  Histogram& h = MetricsRegistry::Global().GetHistogram(metric);
  MutexLock lock(mu_);
  histogram_series_.push_back(
      std::make_unique<HistogramSeries>(metric, &h, window_, capacity_));
}

void MetricSampler::AddDefaultStatuszSeries() {
  AddHistogramWindow("statcube.query.latency_us");  // QPS + sliding p50/95/99
  AddCounterRatio("statcube.cache.hit_rate", "statcube.cache.hits",
                  {"statcube.cache.hits", "statcube.cache.misses"});
  AddCounterRate("statcube.exec.tasks");
  AddCounterRate("statcube.exec.morsels");
  AddCounterRate("statcube.exec.vec.rows");  // vectorized group-by throughput
  AddGauge("statcube.exec.queue_depth");
  AddGauge("statcube.exec.pool_size");
}

void MetricSampler::SampleOnce() {
  // dt from the previous tick; the first tick assumes one interval.
  uint64_t now = NowNs();
  uint64_t prev = last_tick_ns_;
  last_tick_ns_ = now;
  double dt_s = prev == 0 ? double(interval_ms_) / 1000.0
                          : double(now - prev) / 1e9;
  if (dt_s <= 0) dt_s = double(interval_ms_) / 1000.0;

  MutexLock lock(mu_);
  for (auto& s : counter_series_) {
    uint64_t v = s->counter->Value();
    uint64_t delta = v >= s->prev ? v - s->prev : 0;
    s->prev = v;
    s->ring.Push(double(delta) / dt_s);
  }
  for (auto& s : ratio_series_) {
    uint64_t nv = s->numerator->Value();
    uint64_t dn = nv >= s->prev_numer ? nv - s->prev_numer : 0;
    s->prev_numer = nv;
    uint64_t dd = 0;
    for (size_t i = 0; i < s->denominators.size(); ++i) {
      uint64_t v = s->denominators[i]->Value();
      dd += v >= s->prev_denoms[i] ? v - s->prev_denoms[i] : 0;
      s->prev_denoms[i] = v;
    }
    s->ring.Push(dd == 0 ? 0.0 : double(dn) / double(dd));
  }
  for (auto& s : gauge_series_) s->ring.Push(s->gauge->Value());
  for (auto& s : histogram_series_) {
    // Snapshot per-bucket counts into this tick's frame.
    uint64_t* frame =
        &s->frames[size_t(s->frames_pushed % s->nframes_retained) *
                   s->nbuckets];
    for (size_t i = 0; i < s->nbuckets; ++i) frame[i] = s->hist->BucketCount(i);
    // Window baseline: the slot the NEXT tick will overwrite — it holds the
    // frame from exactly `window` ticks ago, or the all-zero initial state
    // during the first `window` ticks (so early ticks diff against zero
    // instead of against themselves).
    const uint64_t* oldest =
        &s->frames[size_t((s->frames_pushed + 1) % s->nframes_retained) *
                   s->nbuckets];
    for (size_t i = 0; i < s->nbuckets; ++i)
      s->scratch[i] = frame[i] >= oldest[i] ? frame[i] - oldest[i] : 0;
    ++s->frames_pushed;

    uint64_t total = s->hist->TotalCount();
    uint64_t delta = total >= s->prev_total ? total - s->prev_total : 0;
    s->prev_total = total;
    s->rate.Push(double(delta) / dt_s);
    const std::vector<double>& bounds = s->hist->bounds();
    s->p50.Push(PercentileFromBuckets(bounds, s->scratch, 0.50));
    s->p95.Push(PercentileFromBuckets(bounds, s->scratch, 0.95));
    s->p99.Push(PercentileFromBuckets(bounds, s->scratch, 0.99));
  }
  ticks_.fetch_add(1, std::memory_order_release);
}

void MetricSampler::Start() {
  MutexLock lock(thread_mu_);
  if (running_) return;
  stop_.store(false, std::memory_order_release);
  running_ = true;
  thread_ = std::thread([this] { ThreadLoop(); });
}

void MetricSampler::Stop() {
  MutexLock lock(thread_mu_);
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  // Empty critical section: pairs with the loop's check-then-wait under
  // wake_mu_, so the notify below cannot land in that gap and get lost.
  { MutexLock sync(wake_mu_); }
  wake_cv_.NotifyAll();
  thread_.join();
  running_ = false;
}

void MetricSampler::ThreadLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    SampleOnce();
    MutexLock lock(wake_mu_);
    if (!stop_.load(std::memory_order_acquire))
      wake_cv_.WaitFor(wake_mu_, std::chrono::milliseconds(interval_ms_));
  }
}

std::vector<std::pair<std::string, std::vector<double>>>
MetricSampler::SnapshotAll() const {
  std::map<std::string, std::vector<double>> by_name;
  {
    MutexLock lock(mu_);
    for (const auto& s : counter_series_)
      by_name[s->name] = s->ring.Snapshot();
    for (const auto& s : ratio_series_) by_name[s->name] = s->ring.Snapshot();
    for (const auto& s : gauge_series_) by_name[s->name] = s->ring.Snapshot();
    for (const auto& s : histogram_series_) {
      by_name[s->name + ".rate"] = s->rate.Snapshot();
      by_name[s->name + ".p50"] = s->p50.Snapshot();
      by_name[s->name + ".p95"] = s->p95.Snapshot();
      by_name[s->name + ".p99"] = s->p99.Snapshot();
    }
  }
  std::vector<std::pair<std::string, std::vector<double>>> out;
  out.reserve(by_name.size());
  for (auto& [name, values] : by_name)
    out.emplace_back(name, std::move(values));
  return out;
}

std::vector<double> MetricSampler::Series(const std::string& name) const {
  MutexLock lock(mu_);
  for (const auto& s : counter_series_)
    if (s->name == name) return s->ring.Snapshot();
  for (const auto& s : ratio_series_)
    if (s->name == name) return s->ring.Snapshot();
  for (const auto& s : gauge_series_)
    if (s->name == name) return s->ring.Snapshot();
  for (const auto& s : histogram_series_) {
    if (name == s->name + ".rate") return s->rate.Snapshot();
    if (name == s->name + ".p50") return s->p50.Snapshot();
    if (name == s->name + ".p95") return s->p95.Snapshot();
    if (name == s->name + ".p99") return s->p99.Snapshot();
  }
  return {};
}

std::string MetricSampler::ToJson() const {
  JsonWriter w;
  w.BeginObject()
      .Key("interval_ms").Int(interval_ms_)
      .Key("window").Uint(window_)
      .Key("samples").Uint(samples())
      .Key("series").BeginObject();
  for (const auto& [name, values] : SnapshotAll()) {
    w.Key(name).BeginArray();
    for (double v : values) w.Double(v);
    w.EndArray();
  }
  w.EndObject().EndObject();
  return w.Take();
}

}  // namespace statcube::obs
