#include "statcube/obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "statcube/common/str_util.h"

namespace statcube::obs {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

bool SetEnabled(bool on) {
  return internal::g_enabled.exchange(on, std::memory_order_relaxed);
}

// ------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double v) {
  size_t i = size_t(std::lower_bound(bounds_.begin(), bounds_.end(), v) -
                    bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> needs C++20 + hardware support; CAS-loop is
  // portable and this path only runs when observability is enabled.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed))
    ;
}

double Histogram::Percentile(double q) const {
  uint64_t total = TotalCount();
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation (1-based); walk cumulative counts.
  uint64_t rank = uint64_t(q * double(total));
  if (rank < 1) rank = 1;
  uint64_t cum = 0;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    uint64_t in_bucket = BucketCount(i);
    if (cum + in_bucket >= rank) {
      double lo = i == 0 ? 0.0 : bounds_[i - 1];
      double hi = bounds_[i];
      if (in_bucket == 0) return hi;
      return lo + (hi - lo) * double(rank - cum) / double(in_bucket);
    }
    cum += in_bucket;
  }
  // Overflow bucket: no finite upper bound, clamp to the last finite one.
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
  count_.store(0);
  sum_.store(0.0);
}

const std::vector<double>& DefaultLatencyBoundsUs() {
  static const std::vector<double> kBounds = {
      1,    2,    5,    10,    20,    50,    100,    200,    500,
      1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000,
      1000000};
  return kBounds;
}

// -------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(
                                bounds.empty() ? DefaultLatencyBoundsUs()
                                               : bounds))
             .first;
  }
  return *it->second;
}

std::string MetricsRegistry::TextSnapshot() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_)
    os << name << " " << c->Value() << "\n";
  for (const auto& [name, g] : gauges_)
    os << name << " " << FormatDouble(g->Value()) << "\n";
  for (const auto& [name, h] : histograms_) {
    os << name << ".count " << h->TotalCount() << "\n";
    os << name << ".sum " << FormatDouble(h->Sum()) << "\n";
    // le_ lines are cumulative (Prometheus convention; see metrics.h).
    uint64_t cum = 0;
    for (size_t i = 0; i < h->bounds().size(); ++i) {
      cum += h->BucketCount(i);
      os << name << ".le_" << FormatDouble(h->bounds()[i]) << " " << cum
         << "\n";
    }
    cum += h->BucketCount(h->bounds().size());
    os << name << ".le_inf " << cum << "\n";
  }
  return os.str();
}

void MetricsRegistry::Visit(
    const std::function<void(const std::string&, const Counter&)>& counter_fn,
    const std::function<void(const std::string&, const Gauge&)>& gauge_fn,
    const std::function<void(const std::string&, const Histogram&)>&
        histogram_fn) const {
  MutexLock lock(mu_);
  if (counter_fn)
    for (const auto& [name, c] : counters_) counter_fn(name, *c);
  if (gauge_fn)
    for (const auto& [name, g] : gauges_) gauge_fn(name, *g);
  if (histogram_fn)
    for (const auto& [name, h] : histograms_) histogram_fn(name, *h);
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace statcube::obs
