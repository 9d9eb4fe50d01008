#include "statcube/obs/query_registry.h"

#include <chrono>
#include <utility>

#include "statcube/obs/json.h"
#include "statcube/obs/log.h"
#include "statcube/obs/metrics.h"

namespace statcube::obs {

namespace {

Gauge& ActiveGauge() {
  static Gauge& g = MetricsRegistry::Global().GetGauge("statcube.query.active");
  return g;
}

Counter& CancelRequestsCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("statcube.query.cancel_requests");
  return c;
}

Counter& StuckCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("statcube.query.stuck");
  return c;
}

Counter& WatchdogCancelledCounter() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "statcube.query.watchdog_cancelled");
  return c;
}

}  // namespace

// ------------------------------------------------------------ QueryRegistry

QueryRegistry& QueryRegistry::Global() {
  static QueryRegistry* registry = new QueryRegistry();
  return *registry;
}

uint64_t QueryRegistry::Register(ActiveQueryInfo info) {
  MutexLock lock(mu_);
  uint64_t id = next_id_++;
  Entry& e = queries_[id];
  e.info = std::move(info);
  e.start_us = SteadyNowUs();
  ActiveGauge().Set(double(queries_.size()));
  return id;
}

void QueryRegistry::Unregister(uint64_t id) {
  MutexLock lock(mu_);
  queries_.erase(id);
  ActiveGauge().Set(double(queries_.size()));
}

bool QueryRegistry::Cancel(uint64_t id) {
  MutexLock lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  it->second.info.token.Cancel();
  CancelRequestsCounter().Add(1);
  return true;
}

ActiveQuerySnapshot QueryRegistry::SnapshotEntry(uint64_t id, const Entry& e,
                                                 uint64_t now_us) const {
  ActiveQuerySnapshot snap;
  snap.id = id;
  snap.query = e.info.query;
  snap.engine = e.info.engine;
  snap.cache_mode = e.info.cache_mode;
  snap.tenant = e.info.tenant;
  snap.threads = e.info.threads;
  snap.start_us = e.start_us;
  snap.deadline_us = e.info.deadline_us;
  snap.elapsed_us = now_us > e.start_us ? now_us - e.start_us : 0;
  snap.cancelled = e.info.token.cancelled();
  if (e.info.resources != nullptr)
    snap.resources = e.info.resources->Snapshot();
  return snap;
}

std::vector<ActiveQuerySnapshot> QueryRegistry::Snapshot() const {
  uint64_t now = SteadyNowUs();
  MutexLock lock(mu_);
  std::vector<ActiveQuerySnapshot> out;
  out.reserve(queries_.size());
  for (const auto& [id, e] : queries_) out.push_back(SnapshotEntry(id, e, now));
  return out;
}

size_t QueryRegistry::ActiveCount() const {
  MutexLock lock(mu_);
  return queries_.size();
}

std::string QueryRegistry::ToJson() const {
  std::vector<ActiveQuerySnapshot> snaps = Snapshot();
  JsonWriter w;
  w.BeginObject()
      .Key("now_us").Uint(SteadyNowUs())
      .Key("active").Uint(snaps.size())
      .Key("queries").BeginArray();
  for (const ActiveQuerySnapshot& s : snaps) {
    w.BeginObject()
        .Key("id").Uint(s.id)
        .Key("query").String(s.query)
        .Key("engine").String(s.engine)
        .Key("cache").String(s.cache_mode)
        .Key("tenant").String(s.tenant)
        .Key("threads").Int(s.threads)
        .Key("elapsed_us").Uint(s.elapsed_us)
        .Key("deadline_us").Uint(s.deadline_us)
        .Key("cancelled").Bool(s.cancelled)
        .Key("cpu_us").Uint(s.resources.cpu_us)
        .Key("bytes_touched").Uint(s.resources.bytes_touched)
        .Key("morsels").Uint(s.resources.morsels)
        .Key("tasks_spawned").Uint(s.resources.tasks_spawned)
        .EndObject();
  }
  w.EndArray().EndObject();
  return w.Take();
}

std::vector<StuckQuery> QueryRegistry::SweepStuck(uint64_t stuck_after_us,
                                                  uint64_t max_query_us) {
  uint64_t now = SteadyNowUs();
  MutexLock lock(mu_);
  std::vector<StuckQuery> out;
  for (auto& [id, e] : queries_) {
    uint64_t elapsed = now > e.start_us ? now - e.start_us : 0;
    if (stuck_after_us > 0 && elapsed >= stuck_after_us && !e.stuck_logged) {
      e.stuck_logged = true;
      out.push_back({SnapshotEntry(id, e, now), /*auto_cancelled=*/false});
    }
    if (max_query_us > 0 && elapsed >= max_query_us && !e.hard_cancelled) {
      e.hard_cancelled = true;
      e.info.token.Cancel();
      out.push_back({SnapshotEntry(id, e, now), /*auto_cancelled=*/true});
    }
  }
  return out;
}

// ------------------------------------------------------------ QueryWatchdog

QueryWatchdog::QueryWatchdog(const QueryWatchdogOptions& options)
    : interval_ms_(options.interval_ms < 10 ? 10 : options.interval_ms),
      stuck_after_us_(options.stuck_after_us),
      max_query_us_(options.max_query_us) {}

QueryWatchdog::~QueryWatchdog() { Stop(); }

void QueryWatchdog::Start() {
  MutexLock lock(thread_mu_);
  if (running_) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { ThreadLoop(); });
  running_ = true;
}

void QueryWatchdog::Stop() {
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

size_t QueryWatchdog::SweepOnce() {
  std::vector<StuckQuery> actioned =
      QueryRegistry::Global().SweepStuck(stuck_after_us_, max_query_us_);
  for (const StuckQuery& s : actioned) {
    if (s.auto_cancelled) {
      WatchdogCancelledCounter().Add(1);
    } else {
      StuckCounter().Add(1);
    }
    // One structured line per actioned query, with a profile-style resource
    // snapshot so the log alone says what the query was doing. Rate-limited
    // like every LogEvent, so a mass stall cannot flood the sink.
    LogEvent(LogLevel::kWarn, "stuck_query")
        .Int("query_id", int64_t(s.snapshot.id))
        .Str("query", s.snapshot.query)
        .Str("engine", s.snapshot.engine)
        .Int("threads", s.snapshot.threads)
        .Int("elapsed_us", int64_t(s.snapshot.elapsed_us))
        .Int("cpu_us", int64_t(s.snapshot.resources.cpu_us))
        .Int("bytes_touched", int64_t(s.snapshot.resources.bytes_touched))
        .Int("morsels", int64_t(s.snapshot.resources.morsels))
        .Str("action", s.auto_cancelled ? "cancelled" : "logged")
        .Emit();
  }
  sweeps_.fetch_add(1, std::memory_order_release);
  return actioned.size();
}

void QueryWatchdog::ThreadLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    SweepOnce();
    MutexLock wake(wake_mu_);
    if (!stop_.load(std::memory_order_acquire))
      wake_cv_.WaitFor(wake_mu_, std::chrono::milliseconds(interval_ms_));
  }
}

}  // namespace statcube::obs
