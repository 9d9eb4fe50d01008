#include "statcube/obs/log.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "statcube/common/mutex.h"
#include "statcube/common/thread_annotations.h"
#include "statcube/obs/json.h"
#include "statcube/obs/metrics.h"

namespace statcube::obs {

namespace {

std::atomic<int> g_min_level{int(LogLevel::kInfo)};
std::atomic<uint64_t> g_dropped{0};

// Sink + rate limiter state, mutex-guarded (log emission is not a hot path;
// the hot path is the level check, which is lock-free).
struct LogState {
  Mutex mu;
  LogSink sink STATCUBE_GUARDED_BY(mu);  // empty = stderr
  double tokens STATCUBE_GUARDED_BY(mu) = 50.0;
  double per_second STATCUBE_GUARDED_BY(mu) = 100.0;
  double burst STATCUBE_GUARDED_BY(mu) = 50.0;
  std::chrono::steady_clock::time_point last_refill STATCUBE_GUARDED_BY(mu) =
      std::chrono::steady_clock::now();
};

LogState& State() {
  static LogState* state = new LogState();
  return *state;
}

// Takes one token if available; refills lazily from elapsed time.
bool TakeToken(LogState& s) STATCUBE_REQUIRES(s.mu) {
  if (s.per_second <= 0) return true;  // limiting disabled
  auto now = std::chrono::steady_clock::now();
  double elapsed =
      std::chrono::duration<double>(now - s.last_refill).count();
  s.last_refill = now;
  s.tokens = std::min(s.burst, s.tokens + elapsed * s.per_second);
  if (s.tokens < 1.0) return false;
  s.tokens -= 1.0;
  return true;
}

std::string TimestampUtc() {
  using namespace std::chrono;
  auto now = system_clock::now();
  std::time_t secs = system_clock::to_time_t(now);
  auto ms = duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[64];
  snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
           tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
           tm.tm_min, tm.tm_sec, int(ms));
  return buf;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "?";
}

LogLevel SetMinLogLevel(LogLevel level) {
  return LogLevel(g_min_level.exchange(int(level)));
}

LogLevel MinLogLevel() { return LogLevel(g_min_level.load()); }

LogSink SetLogSink(LogSink sink) {
  LogState& s = State();
  MutexLock lock(s.mu);
  LogSink prev = std::move(s.sink);
  s.sink = std::move(sink);
  return prev;
}

void SetLogRateLimit(double per_second, double burst) {
  LogState& s = State();
  MutexLock lock(s.mu);
  s.per_second = per_second;
  s.burst = burst;
  s.tokens = burst;
  s.last_refill = std::chrono::steady_clock::now();
}

uint64_t LogDroppedCount() { return g_dropped.load(); }

LogEvent::LogEvent(LogLevel level, const std::string& event)
    : level_(level), enabled_(int(level) >= g_min_level.load()) {
  if (!enabled_) return;
  line_.BeginObject()
      .Key("ts").String(TimestampUtc())
      .Key("level").String(LogLevelName(level))
      .Key("event").String(event);
}

LogEvent& LogEvent::Str(const std::string& key, const std::string& value) {
  if (enabled_) line_.Key(key).String(value);
  return *this;
}

LogEvent& LogEvent::Num(const std::string& key, double value) {
  if (enabled_) line_.Key(key).Double(value);
  return *this;
}

LogEvent& LogEvent::Int(const std::string& key, int64_t value) {
  if (enabled_) line_.Key(key).Int(value);
  return *this;
}

LogEvent& LogEvent::Bool(const std::string& key, bool value) {
  if (enabled_) line_.Key(key).Bool(value);
  return *this;
}

std::string LogEvent::Render() const {
  if (!enabled_) return {};
  JsonWriter line = line_;
  line.EndObject();
  return line.Take();
}

bool LogEvent::Emit() {
  if (!enabled_) return false;
  LogState& s = State();
  LogSink sink;
  {
    MutexLock lock(s.mu);
    if (!TakeToken(s)) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
      if (Enabled())
        MetricsRegistry::Global().GetCounter("statcube.log.dropped").Add(1);
      return false;
    }
    sink = s.sink;  // copy so the sink runs outside the mutex
  }
  std::string line = Render();
  if (Enabled())
    MetricsRegistry::Global().GetCounter("statcube.log.emitted").Add(1);
  if (sink) {
    sink(line);
  } else {
    fprintf(stderr, "%s\n", line.c_str());
  }
  return true;
}

}  // namespace statcube::obs
