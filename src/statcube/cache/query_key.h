/// \file
/// \brief Canonical cache key for one (object, parsed query, engine) triple.
///
/// The key is built so that two requests share an entry exactly when they
/// are guaranteed to produce bit-identical result tables:
///
///  - **Dataset version**: a fingerprint of the object (name, row count,
///    dimension/measure names, first/last row) combined with the object's
///    mutation epoch (common/epoch.h). Any load or append changes the epoch,
///    so stale entries can never be served.
///  - **Predicate fingerprint**: WHERE equalities sorted by attribute then
///    value (with a value-type tag, so the string '1' never collides with
///    the integer 1) — `WHERE a=1 AND b=2` and `WHERE b=2 AND a=1` share.
///  - **Measure / aggregate list**: functions, columns and output names in
///    request order (output column order is part of the result).
///  - **Engine**: the three physical backends produce differently *shaped*
///    tables for the same logical answer (MOLAP enumerates the full cross
///    product with zeros; ROLAP and the relational path emit observed groups
///    and differ in table/column naming), so entries never cross engines.
///
/// Two strings are derived from this: `family` (everything except the
/// group-by list — the unit inside which lattice derivation is sound) and
/// `exact` (family plus the ordered BY list — the unit of bit-identical
/// reuse). `BY b, a` therefore misses exactly but derives from a cached
/// `BY a, b` via a (free) roll-up.
///
/// The *builder* lives in query/cache_key.h: it needs query/parser.h, which
/// sits above cache/ in the layer DAG.

#ifndef STATCUBE_CACHE_QUERY_KEY_H_
#define STATCUBE_CACHE_QUERY_KEY_H_

#include <string>
#include <vector>

#include "statcube/relational/aggregate.h"

namespace statcube::cache {

/// Canonical identity of one query against one dataset version, plus the
/// metadata the cache needs for admission and lattice derivation.
struct QueryKey {
  /// Everything but the group-by list; the scope of derivation.
  std::string family;
  /// `family` + the ordered BY list (+ CUBE); the scope of exact reuse.
  std::string exact;
  /// Requested group-by columns, in request order.
  std::vector<std::string> by;
  /// Aggregate functions, in request order.
  std::vector<AggFn> agg_fns;
  /// Relational-shape output column names (AggSpec::EffectiveName), in
  /// request order. Backend-shaped results use the single column "sum".
  std::vector<std::string> agg_names;
  /// BY CUBE(...) request — cacheable exactly, never derivable.
  bool cube = false;
  /// All aggregates are distributive (sum/count/min/max): the result can be
  /// rolled up from a cached superset, and the entry can serve as a source.
  bool derivable = false;
  /// Predicted answer shape: true when the engine is a cube backend and
  /// the query is BackendExpressible (single SUM of a real measure, plain
  /// dimensions only). A backend may still decline it (olap/backend.h);
  /// the entry then records the relational shape that answered, so it
  /// never serves as a source for this key. Derivation never crosses
  /// shapes.
  bool backend_shaped = false;
};

}  // namespace statcube::cache

#endif  // STATCUBE_CACHE_QUERY_KEY_H_
