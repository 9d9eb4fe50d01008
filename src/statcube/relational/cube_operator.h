// The data-cube relational operator of Gray et al. [GB+96], discussed in the
// paper's §4.3/§5.4 (Figures 10 and 15): GROUP BY CUBE(d1..dn) produces the
// union of the 2^n group-bys over every subset of the dimensions, with the
// reserved pseudo-value ALL standing in for "summarized over every value of
// this column". ROLLUP produces the n+1 hierarchical prefixes.
//
// Two implementations are provided:
//  * CubeByNaive — literally the union of 2^n independent group-bys; one
//    scan of the input per subset. This is the verbose SQL the paper calls
//    "awkward" in §5.4.
//  * CubeBy — one scan computes the finest grouping; every coarser grouping
//    is derived by merging accumulator states along the lattice, the
//    simultaneous-aggregation idea of [ZDN97] (§6.6). Results are identical
//    (a property test asserts this); bench/bench_cube_operator measures the
//    gap.

#ifndef STATCUBE_RELATIONAL_CUBE_OPERATOR_H_
#define STATCUBE_RELATIONAL_CUBE_OPERATOR_H_

#include <string>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/relational/aggregate.h"
#include "statcube/relational/table.h"

namespace statcube {

/// GROUP BY CUBE: all 2^n groupings, one scan per grouping.
Result<Table> CubeByNaive(const Table& input,
                          const std::vector<std::string>& dims,
                          const std::vector<AggSpec>& aggs);

/// GROUP BY CUBE: one input scan, coarser groupings rolled up through the
/// lattice by state merging.
Result<Table> CubeBy(const Table& input, const std::vector<std::string>& dims,
                     const std::vector<AggSpec>& aggs);

/// GROUP BY ROLLUP: the n+1 prefix groupings (d1..dn), (d1..dn-1), ..., ().
/// InvalidArgument past 31 dimensions (groupings are 32-bit masks).
Result<Table> RollupBy(const Table& input,
                       const std::vector<std::string>& dims,
                       const std::vector<AggSpec>& aggs);

/// Number of rows a CUBE over these dimension cardinalities can produce at
/// most: prod(card_i + 1). Exposed for size estimation in the
/// materialization module.
uint64_t CubeUpperBound(const std::vector<uint64_t>& cardinalities);

// Building blocks shared with the parallel cube kernel
// (statcube/exec/parallel_kernels.h), exposed so the parallel lattice walk
// emits bytes identical to the serial one.

/// Output schema shared by all cube variants: dims then aggregates.
Schema CubeOutputSchema(const std::vector<std::string>& dims,
                        const std::vector<AggSpec>& aggs);

/// Rolls `fine` (grouping `fine_mask`) up to `coarse_mask` by dropping the
/// key positions of dims present in fine but not in coarse and merging
/// states. Deterministic: iteration over `fine` and AggState::Merge order
/// are pure functions of `fine`'s contents.
GroupedStates RollupGroupedStates(const GroupedStates& fine,
                                  uint32_t fine_mask, uint32_t coarse_mask,
                                  size_t ndims);

/// Emits one grouping's states into `out`, padding absent dims with ALL.
/// `mask` bit i set <=> dims[i] participates in the grouping.
void EmitCubeGrouping(const GroupedStates& states, uint32_t mask,
                      size_t ndims, const std::vector<AggSpec>& aggs,
                      Table* out);

/// Sorts cube output deterministically by the dimension columns (total
/// order: every row's dim/ALL pattern is unique).
void SortCubeRows(Table* t, size_t ndims);

}  // namespace statcube

#endif  // STATCUBE_RELATIONAL_CUBE_OPERATOR_H_
