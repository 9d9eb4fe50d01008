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
//    is derived by merging accumulator states along the lattice
//    (CubeFromFinest), the simultaneous-aggregation idea of [ZDN97] (§6.6).
//    Results are identical (a property test asserts this);
//    bench/bench_cube_operator measures the gap.

#ifndef STATCUBE_RELATIONAL_CUBE_OPERATOR_H_
#define STATCUBE_RELATIONAL_CUBE_OPERATOR_H_

#include <string>
#include <vector>

#include "statcube/common/cancellation.h"
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

/// Output schema shared by all cube variants: dims then aggregates.
Schema CubeOutputSchema(const std::vector<std::string>& dims,
                        const std::vector<AggSpec>& aggs);

/// GROUP BY CUBE from its finest grouping: CubeBy after its scan, shared
/// with the coded group-by (statcube/exec/parallel_kernels.h), which builds
/// `finest` from code columns. Every coarser grouping rolls up through the
/// lattice from the parent with the lowest absent dimension added, by state
/// merging. `finest` must be GroupByStates(input, dims, aggs) bit for bit,
/// insertion order included, over at most 20 dims; the output, named
/// `name` + "_cube", is then CubeBy's. Checks `stop`, when not null, after
/// each lattice level and returns StopStatus(reason, "cube") once it fires.
Result<Table> CubeFromFinest(const std::string& name, GroupedStates finest,
                             const std::vector<std::string>& dims,
                             const std::vector<AggSpec>& aggs,
                             const CancelContext* stop);

}  // namespace statcube

#endif  // STATCUBE_RELATIONAL_CUBE_OPERATOR_H_
