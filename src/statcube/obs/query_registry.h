/// \file
/// \brief The query lifecycle control plane: a process-wide registry of
/// in-flight queries (`QueryRegistry`), the RAII scope that enrolls a query
/// for its execution (`ActiveQueryScope`), and a background watchdog
/// (`QueryWatchdog`) that flags — and optionally cancels — queries that run
/// past configured thresholds.
///
/// Why it exists: EXPLAIN PROFILE, /profiles, and /tracez (query_profile.h,
/// flight_recorder.h) only show queries *after* they finished. A stuck or
/// runaway query is invisible exactly when an operator needs to see it. The
/// registry closes that gap: QueryProfiled (query/executor.cc) enrolls every
/// query for the duration of its execution, so /queryz can list what is
/// running right now — with live resource totals read from the query's
/// `ResourceAccumulator` mid-flight — and POST /queryz/cancel can stop it.
///
/// Cancellation model (common/cancellation.h): each registered query carries
/// a copy of its `CancellationToken` (copies share the flag), so
/// `QueryRegistry::Cancel` and the watchdog's hard limit simply cancel the
/// token; the execution loops notice at the next morsel / row-batch boundary
/// and the query returns kCancelled through the normal Status path.
///
/// Lifetime contract: the `ResourceAccumulator*` a query registers stays
/// valid until `Unregister` because `ActiveQueryScope` is destroyed before
/// the owning `ProfileScope` (declare the ProfileScope first). Mid-flight
/// snapshots of the accumulator are monotonic lower bounds (resource.h), so
/// /queryz never shows torn totals.
///
/// Layering: obs depends on common/ only — exec and query sit above, which
/// is why `CancellationToken` lives in common/cancellation.h rather than
/// exec/task_scheduler.h.

#ifndef STATCUBE_OBS_QUERY_REGISTRY_H_
#define STATCUBE_OBS_QUERY_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "statcube/common/cancellation.h"
#include "statcube/common/mutex.h"
#include "statcube/common/thread_annotations.h"
#include "statcube/obs/resource.h"

namespace statcube::obs {

/// What a query hands the registry when it starts executing. Plain data plus
/// the shared cancellation flag and a borrowed accumulator pointer.
struct ActiveQueryInfo {
  /// Canonical query text (as parsed/executed, not yet truncated).
  std::string query;
  /// Engine name as printed in profiles ("relational", "molap", ...).
  std::string engine;
  /// Result-cache mode name ("off", "derive").
  std::string cache_mode;
  /// Tenant the query runs on behalf of (empty = untenanted).
  std::string tenant;
  /// Worker threads the query may use (QueryOptions::threads, resolved).
  int threads = 1;
  /// Absolute SteadyNowUs() deadline, 0 = none (for display and watchdog).
  uint64_t deadline_us = 0;
  /// The query's cancellation flag; the registry keeps a copy so an external
  /// actor can cancel after the registering thread moved on.
  CancellationToken token;
  /// Live resource accumulator, or nullptr. Borrowed: must stay valid until
  /// Unregister (see the lifetime contract in the file comment).
  const ResourceAccumulator* resources = nullptr;
};

/// Point-in-time view of one in-flight query, as served by /queryz.
struct ActiveQuerySnapshot {
  /// Registry-assigned id (monotonic from 1; the /queryz/cancel handle).
  uint64_t id = 0;
  /// Canonical query text.
  std::string query;
  /// Engine name.
  std::string engine;
  /// Result-cache mode name.
  std::string cache_mode;
  /// Tenant the query runs on behalf of (empty = untenanted).
  std::string tenant;
  /// Worker threads.
  int threads = 1;
  /// SteadyNowUs() when the query registered.
  uint64_t start_us = 0;
  /// Absolute deadline (0 = none).
  uint64_t deadline_us = 0;
  /// Wall time since registration, at snapshot time.
  uint64_t elapsed_us = 0;
  /// True once anyone cancelled the query's token.
  bool cancelled = false;
  /// Mid-flight resource totals (zeroes when no accumulator was registered).
  ResourceVector resources;
};

/// One watchdog-actionable query returned by QueryRegistry::SweepStuck.
struct StuckQuery {
  /// The query's state at sweep time.
  ActiveQuerySnapshot snapshot;
  /// True when this sweep cancelled the query (hard limit), false when it
  /// merely crossed the soft threshold and should be logged.
  bool auto_cancelled = false;
};

/// Process-wide registry of in-flight queries. All methods are safe to call
/// from any thread; Register/Unregister are O(log n) map operations on the
/// query path (a few dozen ns — measured by bench_obs's registry case), and
/// readers snapshot under the same mutex, which is uncontended at any
/// realistic query rate.
class QueryRegistry {
 public:
  /// The process-wide instance (what QueryProfiled and /queryz use).
  static QueryRegistry& Global();

  QueryRegistry() = default;
  QueryRegistry(const QueryRegistry&) = delete;             ///< Not copyable.
  QueryRegistry& operator=(const QueryRegistry&) = delete;  ///< Not copyable.

  /// Enrolls a query; returns its id (monotonic from 1). Updates the
  /// statcube.query.active gauge.
  uint64_t Register(ActiveQueryInfo info);

  /// Removes a finished query. Unknown ids are ignored (idempotent).
  void Unregister(uint64_t id);

  /// Cancels the query's token. Returns false when `id` is not in flight
  /// (already finished or never existed). Increments
  /// statcube.query.cancel_requests on success.
  bool Cancel(uint64_t id);

  /// Snapshots every in-flight query, ascending by id.
  std::vector<ActiveQuerySnapshot> Snapshot() const;

  /// Number of in-flight queries.
  size_t ActiveCount() const;

  /// JSON document for /queryz?format=json:
  /// {"now_us":N,"active":N,"queries":[...]}, one object per snapshot with
  /// every field (CPU, bytes, morsels and tasks inlined from `resources`).
  std::string ToJson() const;

  /// The watchdog's sweep primitive (exposed on the registry so tests can
  /// drive it without a thread). Returns every query that newly crossed a
  /// threshold this sweep: past `stuck_after_us` (> 0) it is reported once
  /// with `auto_cancelled` false; past `max_query_us` (> 0) its token is
  /// cancelled and it is reported once more with `auto_cancelled` true.
  /// A threshold of 0 disables that action. Thresholds are wall time since
  /// registration.
  std::vector<StuckQuery> SweepStuck(uint64_t stuck_after_us,
                                     uint64_t max_query_us);

 private:
  // Registry entry: the caller-supplied info plus per-query watchdog state.
  struct Entry {
    ActiveQueryInfo info;
    uint64_t start_us = 0;
    bool stuck_logged = false;    // soft threshold already reported
    bool hard_cancelled = false;  // hard limit already actioned
  };

  ActiveQuerySnapshot SnapshotEntry(uint64_t id, const Entry& e,
                                    uint64_t now_us) const
      STATCUBE_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<uint64_t, Entry> queries_ STATCUBE_GUARDED_BY(mu_);
  uint64_t next_id_ STATCUBE_GUARDED_BY(mu_) = 1;
};

/// RAII enrollment of one query in QueryRegistry::Global() for the scope's
/// lifetime. Declare it *after* the ProfileScope owning the registered
/// accumulator so unregistration happens first.
class ActiveQueryScope {
 public:
  /// Registers `info` with the global registry.
  explicit ActiveQueryScope(ActiveQueryInfo info)
      : id_(QueryRegistry::Global().Register(std::move(info))) {}
  /// Unregisters the query.
  ~ActiveQueryScope() { QueryRegistry::Global().Unregister(id_); }

  ActiveQueryScope(const ActiveQueryScope&) = delete;  ///< Not copyable.
  ActiveQueryScope& operator=(const ActiveQueryScope&) =
      delete;  ///< Not copyable.

  /// The registry id assigned to this query.
  uint64_t id() const { return id_; }

 private:
  uint64_t id_;
};

/// Options for QueryWatchdog.
struct QueryWatchdogOptions {
  /// Milliseconds between sweeps (clamped to >= 10).
  int interval_ms = 1000;
  /// Soft threshold: a query in flight longer than this is logged once as a
  /// structured `stuck_query` event (0 disables).
  uint64_t stuck_after_us = 10 * 1000 * 1000;
  /// Hard limit: a query in flight longer than this is cancelled (0
  /// disables — the default; opt in via stats_server --max-query-ms).
  uint64_t max_query_us = 0;
};

/// Background thread sweeping QueryRegistry::Global() on a fixed interval,
/// in the MetricSampler mold (timeseries_ring.h): Start/Stop are idempotent,
/// and `SweepOnce` is public so tests sweep deterministically without the
/// thread. Each sweep logs one rate-limited `stuck_query` event per
/// newly-stuck query — with a profile-style resource snapshot (elapsed wall
/// and CPU microseconds, bytes, morsels) — and cancels queries past the hard
/// limit, counting statcube.query.stuck and
/// statcube.query.watchdog_cancelled.
class QueryWatchdog {
 public:
  explicit QueryWatchdog(const QueryWatchdogOptions& options = {});
  /// Stops the sweep thread if still running.
  ~QueryWatchdog();

  QueryWatchdog(const QueryWatchdog&) = delete;             ///< Not copyable.
  QueryWatchdog& operator=(const QueryWatchdog&) = delete;  ///< Not copyable.

  /// Starts the background sweep thread (idempotent).
  void Start();
  /// Stops and joins the thread (idempotent; also called by the dtor).
  void Stop();

  /// Takes one sweep now: logs newly-stuck queries, cancels past the hard
  /// limit. Returns the number of queries actioned. Called by the thread
  /// every interval; tests call it directly for determinism.
  size_t SweepOnce();

  /// Sweeps taken so far.
  uint64_t sweeps() const { return sweeps_.load(std::memory_order_acquire); }
  /// Configured sweep interval.
  int interval_ms() const { return interval_ms_; }

 private:
  void ThreadLoop();

  const int interval_ms_;
  const uint64_t stuck_after_us_;
  const uint64_t max_query_us_;

  std::atomic<uint64_t> sweeps_{0};
  std::atomic<bool> stop_{false};
  Mutex thread_mu_;  // guards thread_ start/stop
  std::thread thread_ STATCUBE_GUARDED_BY(thread_mu_);
  bool running_ STATCUBE_GUARDED_BY(thread_mu_) = false;
  Mutex wake_mu_;  // companion of wake_cv_ (the wait condition is stop_)
  CondVar wake_cv_;
};

}  // namespace statcube::obs

#endif  // STATCUBE_OBS_QUERY_REGISTRY_H_
