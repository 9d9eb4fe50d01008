/// \file
/// \brief Canonical cache key for one (object, parsed query, engine) triple.
///
/// The key is built so that two requests share an entry exactly when they
/// are guaranteed to produce bit-identical result tables:
///
///  - **Data version**: the object's identity (StatisticalObject::identity)
///    in the family, and its row count in `object_rows`. Appends keep the
///    identity and only add rows, so (identity, rows) names one version of
///    the data; a copy and every other mutation renew the identity, so no
///    two objects, and no object before and after such an edit, share a
///    family. The row count is not part of either string: the cache keeps
///    one version per exact key, answers a hit only at the key's version,
///    and may fold an older version's answer forward (cache/result_cache.h).
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
/// metadata the cache needs for lattice derivation.
struct QueryKey {
  /// Everything but the group-by list; the scope of derivation.
  std::string family;
  /// `family` + the ordered BY list (+ CUBE); the scope of exact reuse.
  std::string exact;
  /// The object's row count: with the identity in `family`, the version of
  /// the data the key asks about.
  size_t object_rows = 0;
  /// Requested group-by columns, in request order.
  std::vector<std::string> by;
  /// The requested aggregates, in request order. A relational answer names
  /// its columns by their EffectiveName; a backend answer has the single
  /// column "sum".
  std::vector<AggSpec> aggs;
  /// BY CUBE(...) request — cacheable exactly, never derivable.
  bool cube = false;
  /// A roll-up from a cached superset, or a fold of the appended rows into
  /// an older version's answer, repeats direct execution's bits: every
  /// aggregate is distributive, and every sum is over a measure whose
  /// values re-add exactly (vec::ReorderIsExact). Such an entry can also
  /// serve as a source.
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
