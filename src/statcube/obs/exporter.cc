#include "statcube/obs/exporter.h"

#include <cctype>
#include <cmath>
#include <sstream>
#include <utility>

#include "statcube/common/str_util.h"

namespace statcube::obs {

namespace {

// A sample value: exact (FormatDouble) when finite, else the exposition
// format's own spellings.
std::string SampleValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return FormatDouble(v);
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == ':';
    out += ok ? c : '_';
  }
  // Names must not start with a digit.
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0])))
    out.insert(out.begin(), '_');
  return out;
}

std::string PrometheusSnapshot(const MetricsRegistry& registry) {
  std::ostringstream os;
  registry.Visit(
      [&os](const std::string& name, const Counter& c) {
        std::string pn = PrometheusName(name);
        os << "# TYPE " << pn << " counter\n";
        os << pn << " " << c.Value() << "\n";
      },
      [&os](const std::string& name, const Gauge& g) {
        std::string pn = PrometheusName(name);
        os << "# TYPE " << pn << " gauge\n";
        os << pn << " " << SampleValue(g.Value()) << "\n";
      },
      [&os](const std::string& name, const Histogram& h) {
        std::string pn = PrometheusName(name);
        os << "# TYPE " << pn << " histogram\n";
        uint64_t cum = 0;
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          cum += h.BucketCount(i);
          os << pn << "_bucket{le=\"" << SampleValue(h.bounds()[i]) << "\"} "
             << cum << "\n";
        }
        cum += h.BucketCount(h.bounds().size());
        os << pn << "_bucket{le=\"+Inf\"} " << cum << "\n";
        os << pn << "_sum " << SampleValue(h.Sum()) << "\n";
        os << pn << "_count " << h.TotalCount() << "\n";
        // Derived quantile gauges (estimates; see Histogram::Percentile).
        constexpr std::pair<const char*, double> kQuantiles[] = {
            {"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}};
        for (const auto& [suffix, q] : kQuantiles) {
          os << "# TYPE " << pn << suffix << " gauge\n";
          os << pn << suffix << " " << SampleValue(h.Percentile(q)) << "\n";
        }
      });
  return os.str();
}

std::string PrometheusSnapshot() {
  return PrometheusSnapshot(MetricsRegistry::Global());
}

}  // namespace statcube::obs
