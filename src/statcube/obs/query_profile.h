// QueryProfile: everything one query did, in one struct — phase timings as a
// span tree (trace.h), rows in/out per relational operator, logical
// blocks/bytes charged by each store's BlockCounter, which backend answered,
// and the view store's hit/miss/ancestor decisions. Returned alongside
// results by `QueryProfiled` (query/parser.h) and printed by `EXPLAIN
// PROFILE` / `olap_cli --profile`.
//
// Collection model: `ProfileScope` installs a thread-local active profile
// (and its trace). Instrumented modules call the inline `Record*` helpers
// below; each is a relaxed-load branch when observability is disabled, and
// otherwise updates both the global MetricsRegistry and the active profile
// (if any). Modules never include each other's headers — obs is the only
// shared surface.

#ifndef STATCUBE_OBS_QUERY_PROFILE_H_
#define STATCUBE_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "statcube/common/block_counter.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/resource.h"
#include "statcube/obs/trace.h"

namespace statcube::obs {

/// Rows through one relational operator invocation, in execution order.
struct OperatorStats {
  std::string op;  ///< "select", "groupby", "join", ...
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
};

/// One view-store routing decision.
struct ViewStoreEvent {
  uint32_t mask = 0;          ///< requested view
  bool hit = false;           ///< answered from an exactly-materialized view
  int64_t ancestor_mask = -1; ///< ancestor used on miss; -1 = base table
  uint64_t rows_scanned = 0;
};

/// The full profile of one query.
struct QueryProfile {
  /// "molap", "rolap", "rolap+bitmap", "relational" — or "cache" when the
  /// result cache answered without executing over the object's rows (a
  /// fold reads only the appended ones).
  std::string backend;
  /// Result-cache outcome: "hit", "folded", "derived", "miss", or empty
  /// when the query ran with the cache off.
  std::string cache;
  /// How the query ended: "ok", "cancelled", or "deadline_exceeded" (set by
  /// QueryProfiled; empty — treated as "ok" by the serializers — for
  /// profiles collected outside the query lifecycle).
  std::string outcome;
  /// Tenant the query ran on behalf of (QueryOptions::tenant; empty for
  /// untenanted callers like the CLI). Lets /profiles?tenant= and the
  /// front door's accounting attribute retained profiles.
  std::string tenant;
  Trace trace;          ///< span tree (phases and sub-phases)
  /// Everything the query consumed, attributed across workers: CPU time
  /// (total and per thread), bytes touched, morsels, tasks. Folded from
  /// the query's ResourceAccumulator by ProfileScope::Take().
  ResourceVector resources;
  std::vector<OperatorStats> operators;
  BlockCounter blocks;  ///< logical I/O summed over every store touched
  std::vector<ViewStoreEvent> view_events;
  uint64_t view_hits = 0;
  uint64_t view_misses = 0;
  uint64_t reaggregated_rows = 0;
  uint64_t result_rows = 0;

  /// Number of top-level phases in the span tree.
  size_t NumPhases() const;

  /// Human-readable report: span tree, per-operator rows, block counters.
  std::string ToString() const;

  /// JSON object mirroring ToString's content.
  std::string ToJson() const;
};

/// The profile being collected on this thread, or nullptr.
QueryProfile* ActiveProfile();

/// Installs a fresh QueryProfile (its trace and its ResourceAccumulator) as
/// this thread's active profile, wrapped in an implicit root span named
/// "query". The installed context is what TaskContext::Capture picks up, so
/// work the query fans out to other threads charges this profile. `Take()`
/// closes the root span, folds the accumulated ResourceVector into the
/// profile, observes statcube.query.latency_us, uninstalls, and moves the
/// profile out.
class ProfileScope {
 public:
  ProfileScope();
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  QueryProfile& profile() { return profile_; }
  /// The live accumulator (e.g. to pre-charge setup costs).
  ResourceAccumulator& resources() { return resources_; }
  QueryProfile Take();

 private:
  void Uninstall();

  QueryProfile profile_;
  ResourceAccumulator resources_;
  QueryProfile* prev_profile_;
  internal::TraceBinding prev_binding_;
  ResourceAccumulator* prev_resources_;
  int32_t root_span_ = -1;
  bool installed_ = true;
};

namespace internal {
QueryProfile*& ActiveProfileSlot();
void RecordOperatorImpl(const char* op, uint64_t rows_in, uint64_t rows_out);
void RecordBackendImpl(const std::string& backend, uint64_t blocks,
                       uint64_t bytes);
void RecordViewStoreQueryImpl(uint32_t mask, bool hit, int64_t ancestor_mask,
                              uint64_t rows_scanned);
void RecordViewStoreRefreshImpl(uint64_t reaggregated_rows);
void RecordPrivacyImpl(bool answered, bool perturbed);
}  // namespace internal

/// Rows in/out of a relational operator. Feeds
/// statcube.relational.<op>.{calls,rows_in,rows_out} and the active profile.
inline void RecordOperator(const char* op, uint64_t rows_in,
                           uint64_t rows_out) {
  if (!Enabled()) return;
  internal::RecordOperatorImpl(op, rows_in, rows_out);
}

/// Logical I/O charged by a backend while answering (a delta, not a running
/// total). Feeds statcube.backend.<name>.{queries,blocks_read,bytes_read}
/// and sets the active profile's backend.
inline void RecordBackend(const std::string& backend, uint64_t blocks,
                          uint64_t bytes) {
  if (!Enabled()) return;
  internal::RecordBackendImpl(backend, blocks, bytes);
}

/// A view-store query routing decision. Feeds
/// statcube.viewstore.{hits,misses,rows_scanned}.
inline void RecordViewStoreQuery(uint32_t mask, bool hit,
                                 int64_t ancestor_mask,
                                 uint64_t rows_scanned) {
  if (!Enabled()) return;
  internal::RecordViewStoreQueryImpl(mask, hit, ancestor_mask, rows_scanned);
}

/// Incremental-refresh work. Feeds statcube.viewstore.reagg_rows.
inline void RecordViewStoreRefresh(uint64_t reaggregated_rows) {
  if (!Enabled()) return;
  internal::RecordViewStoreRefreshImpl(reaggregated_rows);
}

/// Privacy-monitor outcome. Feeds
/// statcube.privacy.{answered,refused,perturbed}.
inline void RecordPrivacy(bool answered, bool perturbed = false) {
  if (!Enabled()) return;
  internal::RecordPrivacyImpl(answered, perturbed);
}

}  // namespace statcube::obs

#endif  // STATCUBE_OBS_QUERY_PROFILE_H_
