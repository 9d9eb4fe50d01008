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

#include <memory>
#include <string>
#include <vector>

#include "statcube/cache/mode.h"
#include "statcube/common/cancellation.h"
#include "statcube/common/status.h"
#include "statcube/core/statistical_object.h"
#include "statcube/exec/parallel_kernels.h"
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
/// into the coded group-by (statcube/exec), whose pass runs on `threads`
/// workers (0 = exec::DefaultThreads(); 1 runs on the caller) and whose
/// fold runs on the caller in row order. The shapes codes cannot group
/// exactly (DESIGN.md §14) take Query()'s row route instead, serially at
/// every `threads`. Either way the table is
/// bit-identical to Query()'s. `stop` (default: the thread's
/// CurrentCancelContext()) is checked by the pass and the group-by; once it
/// fires the call returns kCancelled / kDeadlineExceeded instead of a
/// partial table.
Result<Table> ExecuteQuery(const StatisticalObject& obj,
                           const ParsedQuery& query, int threads = 1,
                           const CancelContext* stop = nullptr);

/// ExecuteQuery with all of the kernel's knobs: the overload above is this
/// one with `{.threads = threads, .stop = stop}` and the morsel size at its
/// default. A null `options.stop` is the thread's CurrentCancelContext().
Result<Table> ExecuteQuery(const StatisticalObject& obj,
                           const ParsedQuery& query,
                           const exec::ExecOptions& options);

/// Parse + execute on the reference path: a serial pass over the rows
/// (memoized roll-ups, Value::Compare for WHERE, one projected Row per kept
/// row), then the serial GroupBy / CubeBy. Slower than ExecuteQuery and
/// independent of its code columns and kernel: the oracle the tests and
/// the end-to-end benchmark hold ExecuteQuery to. Honours the thread's
/// CurrentCancelContext().
Result<Table> Query(const StatisticalObject& obj, const std::string& text);

/// OK when a cube backend can answer `query` over `obj`: exactly one SUM
/// aggregate over a measure, BY plain dimensions (no CUBE), WHERE
/// equalities on dimensions; Unimplemented saying why otherwise. It reads
/// only the object's schema and the query, so QueryProfiled asks it before
/// building a backend and BuildQueryKey predicts the answer's shape by it.
Status BackendExpressible(const StatisticalObject& obj,
                          const ParsedQuery& query);

/// Executes a parsed query through a CubeBackend (§6.6: the same textual
/// query served by either physical organization). A query that is not
/// BackendExpressible returns Unimplemented so callers can fall back to
/// ExecuteQuery; so does one the backend declines (olap/backend.h). The
/// SUM is over the backend's measure. `threads` is the backend's worker
/// cap (CubeQuery::threads); the answer is the same at any value. The
/// backend checks the thread's CurrentCancelContext() as it reads.
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
  /// The cube backends take the same cap; cache derivations and the row
  /// route (ExecuteQuery) are serial at any value. Any value gives the same
  /// table, bit for bit.
  int threads = 1;
  /// Retain the completed profile in obs::FlightRecorder::Global() (and
  /// emit a slow_query log line past its threshold). Off for callers that
  /// must not perturb the recorder (A/B benchmarks, recorder tests).
  bool record = true;
  /// Result-cache mode (cache/result_cache.h): kOff never consults the
  /// cache; kDerive reuses exact-key matches at the object's version, and
  /// otherwise folds appended rows into an older version's answer or
  /// rolls up a cached superset grouping through the lattice. Either mode
  /// returns bit-identical tables; the profile's `cache` field says which
  /// path answered ("hit" / "folded" / "derived" / "miss").
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

/// A query result with its profile. The table is immutable and may be
/// shared with the result cache: a cache hit hands out the cached object
/// itself.
struct ProfiledQuery {
  std::shared_ptr<const Table> table;
  /// `table->ToJson()` when the result cache holds this answer (a hit, or a
  /// result it admitted); null otherwise.
  std::shared_ptr<const std::string> json;
  obs::QueryProfile profile;
  /// Flight-recorder id of the retained profile (0 if recording was off).
  uint64_t profile_id = 0;
};

/// Parse + execute with full observability: enables obs for the call,
/// collects the span tree (parse → plan → rollup → execute),
/// per-operator row counts, and block I/O. Cube-engine options build the
/// backend per call from the object's code columns (visible as a
/// backend.build span) when the query is BackendExpressible, and otherwise
/// answer on the relational path without a build — noted in
/// profile.backend — as they do when the backend declines the query.
Result<ProfiledQuery> QueryProfiled(const StatisticalObject& obj,
                                    const std::string& text,
                                    const QueryOptions& options = {});

}  // namespace statcube

#endif  // STATCUBE_QUERY_PARSER_H_
