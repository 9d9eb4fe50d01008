#include "statcube/obs/flight_recorder.h"

#include "statcube/obs/json.h"
#include "statcube/obs/log.h"

namespace statcube::obs {

std::string RecordedProfile::ToJson() const {
  JsonWriter w;
  w.BeginObject()
      .Key("id").Uint(id)
      .Key("query").String(query)
      .Key("latency_us").Uint(latency_us)
      .Key("slow").Bool(slow)
      .Key("profile").Raw(profile.ToJson())
      .EndObject();
  return w.Take();
}

namespace {
Gauge& CapacityGauge() {
  static Gauge& g = MetricsRegistry::Global().GetGauge(
      "statcube.recorder.capacity");
  return g;
}
}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool FlightRecorder::SetCapacity(size_t n) {
  if (n == 0 || n > kMaxCapacity) return false;
  MutexLock lock(mu_);
  capacity_.store(n, std::memory_order_relaxed);
  while (ring_.size() > n) ring_.pop_front();
  CapacityGauge().Set(double(n));
  return true;
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

uint64_t FlightRecorder::Record(const QueryProfile& profile,
                                const std::string& query) {
  RecordedProfile rec;
  rec.query = query;
  rec.latency_us = profile.trace.TotalDurationNs() / 1000;
  rec.profile = profile;
  const uint64_t latency_us = rec.latency_us;

  // The record moves into the ring; the log line below reads the caller's
  // profile and query.
  uint64_t id, threshold;
  bool slow;
  {
    MutexLock lock(mu_);
    id = rec.id = next_id_++;
    threshold = slow_threshold_us_;
    slow = rec.slow = threshold > 0 && latency_us >= threshold;
    ring_.push_back(std::move(rec));
    while (ring_.size() > capacity()) ring_.pop_front();
  }

  if (Enabled())
    MetricsRegistry::Global().GetCounter("statcube.recorder.recorded").Add(1);
  if (slow) {
    if (Enabled())
      MetricsRegistry::Global().GetCounter("statcube.recorder.slow").Add(1);
    LogEvent(LogLevel::kWarn, "slow_query")
        .Int("profile_id", int64_t(id))
        .Int("latency_us", int64_t(latency_us))
        .Int("threshold_us", int64_t(threshold))
        .Str("backend",
             profile.backend.empty() ? "relational" : profile.backend)
        .Int("result_rows", int64_t(profile.result_rows))
        .Int("blocks_read", int64_t(profile.blocks.blocks_read()))
        .Str("outcome", profile.outcome.empty() ? "ok" : profile.outcome)
        .Str("query", query)
        .Emit();
  }
  return id;
}

std::vector<RecordedProfile> FlightRecorder::Snapshot(
    size_t limit, const std::string& tenant) const {
  MutexLock lock(mu_);
  if (tenant.empty()) {
    size_t n = ring_.size();
    size_t take = (limit == 0 || limit > n) ? n : limit;
    return std::vector<RecordedProfile>(ring_.end() - ptrdiff_t(take),
                                        ring_.end());
  }
  // Filter first, then apply the limit to the filtered sequence so the
  // caller gets "the last N of this tenant's queries".
  std::vector<RecordedProfile> matched;
  for (const RecordedProfile& rec : ring_)
    if (rec.profile.tenant == tenant) matched.push_back(rec);
  if (limit != 0 && matched.size() > limit)
    matched.erase(matched.begin(),
                  matched.end() - ptrdiff_t(limit));
  return matched;
}

std::optional<RecordedProfile> FlightRecorder::Get(uint64_t id) const {
  MutexLock lock(mu_);
  for (const RecordedProfile& rec : ring_)
    if (rec.id == id) return rec;
  return std::nullopt;
}

std::string FlightRecorder::ToJson(size_t limit,
                                   const std::string& tenant) const {
  std::vector<RecordedProfile> entries = Snapshot(limit, tenant);
  uint64_t total, threshold;
  {
    MutexLock lock(mu_);
    total = next_id_ - 1;
    threshold = slow_threshold_us_;
  }
  JsonWriter w;
  w.BeginObject()
      .Key("capacity").Uint(capacity())
      .Key("recorded").Uint(total)
      .Key("slow_query_threshold_us").Uint(threshold)
      .Key("profiles").BeginArray();
  for (const RecordedProfile& rec : entries) w.Raw(rec.ToJson());
  w.EndArray().EndObject();
  return w.Take();
}

uint64_t FlightRecorder::SetSlowQueryThresholdUs(uint64_t us) {
  MutexLock lock(mu_);
  uint64_t prev = slow_threshold_us_;
  slow_threshold_us_ = us;
  return prev;
}

uint64_t FlightRecorder::SlowQueryThresholdUs() const {
  MutexLock lock(mu_);
  return slow_threshold_us_;
}

uint64_t FlightRecorder::TotalRecorded() const {
  MutexLock lock(mu_);
  return next_id_ - 1;
}

void FlightRecorder::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
}

}  // namespace statcube::obs
