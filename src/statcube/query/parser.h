// A small textual query language over statistical objects — the paper's
// §5.1 point that explicit statistical-object semantics "permit the use of
// very concise query languages". Grammar (case-insensitive keywords):
//
//   query   := [EXPLAIN PROFILE] SELECT aggs [BY dims] [WHERE conds]
//   aggs    := agg (',' agg)*
//   agg     := FN '(' ident ')'          FN in {SUM, COUNT, AVG, MIN, MAX}
//   dims    := ident (',' ident)*
//   conds   := cond (AND cond)*
//   cond    := ident '=' literal
//   literal := 'single-quoted string' | number
//
// Example:  SELECT sum(amount), avg(qty) BY city WHERE product = 'prod1'
//
// Identifiers name dimensions, classification levels, or measures of the
// target object. A dimension-level identifier (e.g. "city" when the object
// stores stores) triggers the automatic-aggregation machinery: each row's
// leaf is rolled up along the hierarchy owning that level before grouping —
// the Figure 13 inference, exposed through text.

#ifndef STATCUBE_QUERY_PARSER_H_
#define STATCUBE_QUERY_PARSER_H_

#include <string>
#include <vector>

#include "statcube/cache/mode.h"
#include "statcube/common/cancellation.h"
#include "statcube/common/status.h"
#include "statcube/core/statistical_object.h"
#include "statcube/obs/query_profile.h"
#include "statcube/olap/backend.h"
#include "statcube/relational/aggregate.h"

namespace statcube {

/// A parsed query, independent of any object.
struct ParsedQuery {
  std::vector<AggSpec> aggs;
  std::vector<std::string> by;
  /// BY CUBE(...) — compute all 2^n groupings with ALL rows ([GB+96]'s SQL
  /// extension, paper §5.4).
  bool cube = false;
  std::vector<std::pair<std::string, Value>> where;
  /// EXPLAIN PROFILE prefix: the caller should execute under a ProfileScope
  /// and show the profile alongside the result (olap_cli does).
  bool explain_profile = false;
};

/// Parses the query text (syntax only).
Result<ParsedQuery> ParseQuery(const std::string& text);

/// Executes a parsed query against a statistical object: resolves
/// identifiers (dimension, hierarchy level, or measure), rolls each row up to
/// referenced levels, applies WHERE equalities, groups and aggregates into
/// (group columns, aggregates). It runs on the object's code columns
/// (StatisticalObject::code_columns): a level is a code -> code map, a
/// WHERE a keep byte per code, and each kept row's group id goes straight
/// into the radix kernel (statcube/exec). The shapes codes cannot group
/// exactly (DESIGN.md §14) take a row pass and the kernel's columnarize
/// front end instead. Either way the kernel groups with `threads` workers
/// (0 = exec::DefaultThreads(); 1 folds on the caller) and the table is
/// bit-identical to Query()'s. `stop` (default: the thread's
/// CurrentCancelContext()) is checked by the pass and the group-by; once it
/// fires the call returns kCancelled / kDeadlineExceeded instead of a
/// partial table.
Result<Table> ExecuteQuery(const StatisticalObject& obj,
                           const ParsedQuery& query, int threads = 1,
                           const CancelContext* stop = nullptr);

/// Parse + execute on the reference path: a serial pass over the rows
/// (memoized roll-ups, Value::Compare for WHERE, one projected Row per kept
/// row), then the serial GroupBy / CubeBy. Slower than ExecuteQuery and
/// independent of its code columns and kernel: the oracle the tests and
/// the end-to-end benchmark hold ExecuteQuery to. Honours the thread's
/// CurrentCancelContext().
Result<Table> Query(const StatisticalObject& obj, const std::string& text);

/// Executes a parsed query through a CubeBackend (§6.6: the same textual
/// query served by either physical organization). Only backend-expressible
/// queries are accepted — exactly one SUM aggregate over the backend's
/// measure, BY plain dimensions (no CUBE), WHERE equalities on dimensions;
/// anything else returns Unimplemented so callers can fall back to
/// ExecuteQuery. `threads` != 1 routes the backend's scan/grouping through
/// the parallel kernels (CubeQuery::threads).
Result<Table> ExecuteQueryOnBackend(const StatisticalObject& obj,
                                    const ParsedQuery& query,
                                    CubeBackend& backend, int threads = 1);

/// Which execution engine QueryProfiled routes through.
enum class QueryEngine { kRelational, kMolap, kRolap, kRolapBitmap };

/// Name as accepted by EngineFromName / printed in profiles.
const char* QueryEngineName(QueryEngine engine);

/// Parses "relational" / "molap" / "rolap" / "rolap+bitmap".
Result<QueryEngine> EngineFromName(const std::string& name);

struct QueryOptions {
  QueryEngine engine = QueryEngine::kRelational;
  /// Execution parallelism: the workers ExecuteQuery's pass and group-by
  /// use, 1 (default) running them on the caller; 0 means
  /// exec::DefaultThreads() (STATCUBE_THREADS or the hardware concurrency).
  /// N > 1 also routes the backends' scans and cache derivations through
  /// the parallel kernels. Any value gives the same table, bit for bit.
  int threads = 1;
  /// Retain the completed profile in obs::FlightRecorder::Global() (and
  /// emit a slow_query log line past its threshold). Off for callers that
  /// must not perturb the recorder (A/B benchmarks, recorder tests).
  bool record = true;
  /// Result-cache mode (cache/result_cache.h): kOff never consults the
  /// cache, kOn reuses exact-key matches, kDerive additionally answers by
  /// rolling up a cached superset grouping through the lattice. Any mode
  /// returns bit-identical tables; the profile's `cache` field says which
  /// path answered ("hit" / "derived" / "miss").
  cache::Mode cache = cache::Mode::kOff;
  /// Relative execution budget in microseconds, measured from query start
  /// (0 = none). Past it the query stops at the next morsel / row-batch
  /// boundary and QueryProfiled returns kDeadlineExceeded; the profile is
  /// still recorded, with outcome "deadline_exceeded".
  uint64_t deadline_us = 0;
  /// Optional external cancellation flag. QueryProfiled copies the token
  /// (copies share the flag), so the caller — or the /queryz control plane,
  /// which registers its own copy — can cancel mid-flight from any thread;
  /// the query returns kCancelled with outcome "cancelled".
  const CancellationToken* cancel = nullptr;
  /// Tenant the query runs on behalf of (set by the serve/ front door;
  /// empty for untenanted callers like the CLI). Stamped into the profile,
  /// the /queryz registry entry, and the flight-recorder record so every
  /// observability surface can attribute the work.
  std::string tenant;
};

/// A query result with its profile.
struct ProfiledQuery {
  Table table;
  obs::QueryProfile profile;
  /// Flight-recorder id of the retained profile (0 if recording was off).
  uint64_t profile_id = 0;
};

/// Parse + execute with full observability: enables obs for the call,
/// collects the span tree (parse → plan → rollup → execute),
/// per-operator row counts, and block I/O. Cube-engine options build the
/// backend per call (visible as a backend.build span) and fall back to the
/// relational path — noted in profile.backend — when the query is not
/// backend-expressible.
Result<ProfiledQuery> QueryProfiled(const StatisticalObject& obj,
                                    const std::string& text,
                                    const QueryOptions& options = {});

}  // namespace statcube

#endif  // STATCUBE_QUERY_PARSER_H_
