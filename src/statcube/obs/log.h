// Leveled structured JSON logging. One event per line:
//
//   {"ts":"2026-08-06T12:34:56.789Z","level":"warn","event":"slow_query",
//    "latency_us":52341,"backend":"rolap","query":"SELECT ..."}
//
// `ts` (wall-clock UTC, milliseconds) is taken when the event is built; every
// other field is a caller-supplied pair written by obs::JsonWriter, so hostile
// query text cannot break the line's JSON-ness. Events are built fluently:
//
//   obs::LogEvent(obs::LogLevel::kWarn, "slow_query")
//       .Num("latency_us", us).Str("query", text).Emit();
//
// A process-wide token bucket bounds the emit rate (a slow-query storm must
// not turn the log into the bottleneck): the bucket holds `burst` tokens and
// refills at `per_second`; an event arriving with the bucket empty is
// dropped and counted in statcube.log.dropped. The sink defaults to stderr
// and is pluggable for tests and for servers that want a file or socket.
//
// Like the rest of obs, emitting below the minimum level is one atomic load
// and a branch — no allocation, no formatting.

#ifndef STATCUBE_OBS_LOG_H_
#define STATCUBE_OBS_LOG_H_

#include <cstdint>
#include <functional>
#include <string>

#include "statcube/obs/json.h"

namespace statcube::obs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// "debug", "info", "warn", "error".
const char* LogLevelName(LogLevel level);

/// Events below `level` are dropped before any formatting. Returns the
/// previous minimum. Default: kInfo.
LogLevel SetMinLogLevel(LogLevel level);
LogLevel MinLogLevel();

/// Replaces the line sink (called with one complete JSON line, no trailing
/// newline). Passing nullptr restores the default stderr sink. Returns the
/// previous sink. The sink is called with the logger's internal mutex NOT
/// held beyond the swap — it must be fast or do its own buffering.
using LogSink = std::function<void(const std::string& line)>;
LogSink SetLogSink(LogSink sink);

/// Token-bucket rate limit for emitted events: at most `burst` events
/// instantaneously and `per_second` sustained. Zero `per_second` disables
/// limiting (the default policy is 100/s sustained, burst 50). Dropped
/// events increment statcube.log.dropped.
void SetLogRateLimit(double per_second, double burst);

/// Number of events dropped by the rate limiter since process start.
uint64_t LogDroppedCount();

/// One structured event under construction. Emit() renders and writes it
/// (subject to level and rate limit); a LogEvent that is never Emit()ed
/// writes nothing.
class LogEvent {
 public:
  LogEvent(LogLevel level, const std::string& event);

  LogEvent& Str(const std::string& key, const std::string& value);
  LogEvent& Num(const std::string& key, double value);
  LogEvent& Int(const std::string& key, int64_t value);
  LogEvent& Bool(const std::string& key, bool value);

  /// Renders the JSON line and hands it to the sink. Returns true if the
  /// line was written, false if suppressed (level or rate limit).
  bool Emit();

  /// The line Emit would write ("" below the minimum level); for tests.
  std::string Render() const;

 private:
  LogLevel level_;
  JsonWriter line_;  // the open object: ts, level, event, then the fields
  bool enabled_;
};

}  // namespace statcube::obs

#endif  // STATCUBE_OBS_LOG_H_
