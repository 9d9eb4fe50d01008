// Flight recorder: a fixed-capacity ring buffer retaining the last N
// completed QueryProfiles, so "what did the slow queries look like?" is
// answerable after the fact — from the REPL, from GET /profiles on the
// stats server, or from a debugger — without having had profiling output
// enabled ahead of time.
//
// Every profile recorded gets a process-monotonic id; ids never repeat, so
// a scraper polling /profiles can detect both new entries and how many it
// missed. Recording a profile whose total latency meets the slow-query
// threshold additionally promotes it to the structured log (log.h) as one
// "slow_query" event — exactly one line per offending query, subject to the
// log's token-bucket rate limit.
//
// Concurrency: one mutex guards the ring. Record() copies the profile
// before it takes the lock and moves the copy in; Snapshot()/Get() copy
// profiles out. Profiles are a few KB; this is far off the query hot path
// (one Record per *profiled* query, after it completes).

#ifndef STATCUBE_OBS_FLIGHT_RECORDER_H_
#define STATCUBE_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "statcube/common/mutex.h"
#include "statcube/common/thread_annotations.h"
#include "statcube/obs/query_profile.h"

namespace statcube::obs {

/// One retained profile with its identity and summary fields.
struct RecordedProfile {
  uint64_t id = 0;          ///< process-monotonic, starts at 1
  std::string query;        ///< query text, may be empty
  uint64_t latency_us = 0;  ///< root-span total from the trace
  bool slow = false;        ///< met the threshold at record time
  QueryProfile profile;

  /// JSON object: id, query, latency_us, slow, and the full profile.
  std::string ToJson() const;
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 128;
  /// Upper bound SetCapacity accepts (profiles are a few KB each; 64Ki of
  /// them is already hundreds of MB — anything above is a flag typo).
  static constexpr size_t kMaxCapacity = 65536;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  /// The process-wide recorder fed by QueryProfiled.
  static FlightRecorder& Global();

  /// Retains a copy of `profile` (evicting the oldest entry at capacity)
  /// and returns its id. Queries at or above the slow threshold emit one
  /// "slow_query" log event.
  uint64_t Record(const QueryProfile& profile, const std::string& query = "");

  /// Last `limit` entries, oldest first (0 = all retained). A non-empty
  /// `tenant` keeps only profiles recorded with that tenant stamp (the
  /// limit applies after filtering — "the last N of this tenant's
  /// queries", which is what a per-tenant debugging session wants).
  std::vector<RecordedProfile> Snapshot(size_t limit = 0,
                                        const std::string& tenant = "") const;

  /// The entry with the given id, if still retained.
  std::optional<RecordedProfile> Get(uint64_t id) const;

  /// JSON: {"capacity":N,"recorded":total,"slow_query_threshold_us":T,
  /// "profiles":[...]} with entries oldest first, optionally filtered to
  /// one tenant (see Snapshot).
  std::string ToJson(size_t limit = 0, const std::string& tenant = "") const;

  /// Queries with latency >= `us` are flagged slow and logged; 0 disables
  /// (the default). Returns the previous threshold.
  uint64_t SetSlowQueryThresholdUs(uint64_t us);
  uint64_t SlowQueryThresholdUs() const;

  /// Current ring capacity (runtime-configurable; see SetCapacity).
  size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }

  /// Resizes the ring at runtime (--flight-capacity). Rejects 0 and values
  /// above kMaxCapacity (returns false, capacity unchanged); shrinking
  /// evicts the oldest retained entries immediately. Updates the
  /// statcube.recorder.capacity gauge.
  bool SetCapacity(size_t n);

  /// Total profiles ever recorded (>= retained count).
  uint64_t TotalRecorded() const;

  /// Drops all retained entries (ids keep advancing).
  void Clear();

 private:
  std::atomic<size_t> capacity_;
  mutable Mutex mu_;
  std::deque<RecordedProfile> ring_ STATCUBE_GUARDED_BY(mu_);
  uint64_t next_id_ STATCUBE_GUARDED_BY(mu_) = 1;
  uint64_t slow_threshold_us_ STATCUBE_GUARDED_BY(mu_) = 0;
};

}  // namespace statcube::obs

#endif  // STATCUBE_OBS_FLIGHT_RECORDER_H_
