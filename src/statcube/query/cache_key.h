/// \file
/// \brief Builds the canonical cache key (cache/query_key.h) for one
/// (object, parsed query, engine) triple.
///
/// The builder lives in query/ (not cache/) because it must see
/// query/parser.h to canonicalize the parsed request; cache/ sits below
/// query/ in the layer DAG and only defines the key *struct* plus the
/// stores keyed by it. See cache/query_key.h for the key semantics.

#ifndef STATCUBE_QUERY_CACHE_KEY_H_
#define STATCUBE_QUERY_CACHE_KEY_H_

#include "statcube/cache/query_key.h"
#include "statcube/common/status.h"
#include "statcube/core/statistical_object.h"
#include "statcube/query/parser.h"

namespace statcube::query {

/// Builds the canonical key. Cheap (reads no row of data); fails only when
/// the query has no aggregates.
Result<cache::QueryKey> BuildQueryKey(const StatisticalObject& obj,
                                      const ParsedQuery& query,
                                      QueryEngine engine);

}  // namespace statcube::query

#endif  // STATCUBE_QUERY_CACHE_KEY_H_
