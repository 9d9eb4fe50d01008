/// \file
/// \brief Roll-up of a cached superset result to answer a finer grouping.
///
/// The execution half of the cache's derived-hit path: given a cached entry
/// whose group-by set is a superset of the request ([HUR96] derivability,
/// `Lattice::DerivableFrom`), re-aggregate the *result* table — typically
/// orders of magnitude smaller than the base data — with the serial
/// GroupByStates. Only distributive aggregates are eligible (sum of sums,
/// count as sum of counts, min of mins, max of maxes); avg/variance/stddev
/// are not re-aggregable from finalized values and never reach this code
/// (QueryKey::derivable gates them out).
///
/// The output contract matches the direct execution path bit-for-bit for
/// the same reasons the parallel kernels match the serial ones: identical
/// schema/table naming, canonical group sort, and exact arithmetic whenever
/// the measure sums are integer-valued (per-group partial sums are a
/// reassociation of the same additions). Counts are re-finalized to int64
/// so a derived COUNT renders identically to a direct one.

#ifndef STATCUBE_CACHE_DERIVE_H_
#define STATCUBE_CACHE_DERIVE_H_

#include "statcube/cache/result_cache.h"
#include "statcube/common/status.h"
#include "statcube/relational/table.h"

namespace statcube::cache {

/// Rolls `src` (a cached superset result) up to `key.by` in one serial
/// pass, at every QueryOptions::threads: a source holds one row per cached
/// group, too few to pay for the pool. The returned table is bit-identical
/// to executing `key`'s query directly.
Result<Table> RollupDerived(const DerivedSource& src, const QueryKey& key);

}  // namespace statcube::cache

#endif  // STATCUBE_CACHE_DERIVE_H_
