// Group-by aggregation with mergeable accumulators.
//
// The summary functions here are the paper's §5.6 "simple aggregation
// functions (usually only count, sum, average, maximum, minimum)" plus
// stddev/variance which are mergeable via (count, sum, sum of squares).
// Holistic statistics (percentiles, trimmed means) live in
// statcube/olap/statistics.h because they cannot be maintained in constant
// state.
//
// Accumulator states are exposed (`GroupByStates`) and mergeable so that a
// coarser grouping can be computed from a finer one without revisiting the
// micro-data — the key enabler of the simultaneous cube computation
// ([ZDN97]-style, §5.4/§6.6) and of answering queries from materialized
// views ([HUR96], §6.3). Note that merging is exactly what summarizability
// (§3.3.2) licenses; the semantic checks for when merging is *valid* are in
// statcube/core/summarizability.h.

#ifndef STATCUBE_RELATIONAL_AGGREGATE_H_
#define STATCUBE_RELATIONAL_AGGREGATE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/common/value.h"
#include "statcube/common/vec_block.h"
#include "statcube/relational/table.h"

namespace statcube {

/// Distributive/algebraic summary functions.
enum class AggFn {
  kCount,     ///< non-null values of the column
  kCountAll,  ///< rows (column ignored)
  kSum,
  kAvg,
  kMin,
  kMax,
  kVariance,  ///< population variance
  kStdDev,    ///< population standard deviation
};

/// Name of an aggregate function ("sum", "avg", ...).
const char* AggFnName(AggFn fn);

/// True when finalized values of `fn` re-aggregate (Gray et al.'s
/// distributive functions): sums and both counts by summing, min and max by
/// themselves. avg, var and stddev do not.
bool Distributive(AggFn fn);

/// One requested aggregate: a function over a column, with an output name.
struct AggSpec {
  AggFn fn;
  std::string column;       ///< empty allowed for kCountAll
  std::string output_name;  ///< defaults to "<fn>_<column>" when empty

  std::string EffectiveName() const;
};

/// Flag bits of a measure slab entry: the value is not NULL, and it is a
/// number. Together they replay AggState::Add's two branches without a
/// Value (the slab holds the number as a double, 0.0 otherwise).
inline constexpr uint8_t kSlabNonNull = 1;
inline constexpr uint8_t kSlabNumeric = 2;

/// What is known about a whole measure slab, the licence for the block
/// kernels' shortcuts and for re-adding its sums in another order
/// (common/vec_block.h): the numbers' binary scale and largest magnitude,
/// and whether some entry is no number. Evidence about a superset of the
/// rows holds for any subset of them.
struct SlabEvidence : vec::ScaleEvidence {
  bool gap = false;  ///< some entry is not a number, or is NaN
};

/// Encodes `v` as a slab entry: returns its flag byte, stores the number
/// (0.0 for NULL, strings and ALL) in `*x`, and folds it into `*ev`.
inline uint8_t EncodeSlabEntry(const Value& v, double* x, SlabEvidence* ev) {
  switch (v.type()) {
    case ValueType::kInt64:
      *x = double(v.AsInt64());
      ev->Note(*x);
      return kSlabNonNull | kSlabNumeric;
    case ValueType::kDouble:
      *x = v.AsDouble();
      ev->Note(*x);
      // NaN breaks the block min/max precondition (the ordered `<`
      // comparisons skip it; a block seed would keep it): a gap too.
      if (*x != *x) ev->gap = true;
      return kSlabNonNull | kSlabNumeric;
    case ValueType::kNull:
      *x = 0.0;
      ev->gap = true;
      return 0;
    default:  // string / ALL: counts, never aggregates
      *x = 0.0;
      ev->gap = true;
      return kSlabNonNull;
  }
}

/// Mergeable accumulator covering every AggFn. Constant size; merging two
/// states gives the state of the concatenated input.
struct AggState {
  int64_t count = 0;        // non-null values
  int64_t rows = 0;         // all rows
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  /// Folds one value into the state (NULL affects only `rows`).
  void Add(const Value& v) {
    ++rows;
    if (v.is_null()) return;
    ++count;
    if (v.is_numeric()) {
      double d = v.AsDouble();
      sum += d;
      sum_sq += d * d;
      if (d < min) min = d;
      if (d > max) max = d;
    }
  }

  /// Add over a slab entry (EncodeSlabEntry's number and flag byte): the
  /// same branches and the same bits, without a Value.
  void AddSlab(double d, uint8_t flags) {
    ++rows;
    if ((flags & kSlabNonNull) == 0) return;
    ++count;
    if ((flags & kSlabNumeric) == 0) return;
    sum += d;
    sum_sq += d * d;
    if (d < min) min = d;
    if (d > max) max = d;
  }

  /// Merges another state (set union of the underlying multisets).
  void Merge(const AggState& o) {
    count += o.count;
    rows += o.rows;
    sum += o.sum;
    sum_sq += o.sum_sq;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }

  /// Finalizes the state into the value of `fn` (NULL on empty input for
  /// sum/avg/min/max).
  Value Finalize(AggFn fn) const;
};

/// Intermediate group-by result: group key -> one state per AggSpec.
using GroupedStates =
    std::unordered_map<Row, std::vector<AggState>, RowHash, RowEq>;

/// Computes accumulator states per group.
/// `group_cols` may be empty (single global group with an empty key).
Result<GroupedStates> GroupByStates(const Table& input,
                                    const std::vector<std::string>& group_cols,
                                    const std::vector<AggSpec>& aggs);

/// Full group-by: returns a table with `group_cols` followed by one column
/// per aggregate, sorted by the group columns for deterministic output.
Result<Table> GroupBy(const Table& input,
                      const std::vector<std::string>& group_cols,
                      const std::vector<AggSpec>& aggs);

/// Converts grouped states into an output table (shared by GroupBy and the
/// cube builder).
Table StatesToTable(const std::string& name,
                    const std::vector<std::string>& group_cols,
                    const std::vector<AggSpec>& aggs,
                    const GroupedStates& states);

/// Rolls `srcs`, finalized group-bys (each with the columns `src_by`, then
/// a column named `aggs[i].EffectiveName()` holding `aggs[i].fn`'s values),
/// up to `by`, a subset of `src_by`, as one input: a source holds one row
/// per group, and a group may recur across sources. Sums and counts
/// re-aggregate by summing and min and max by themselves; a
/// non-distributive aggregate is refused. The table has GroupBy's shape:
/// the first source's name with its `_by_<src_by>` suffix rebased onto
/// `by`, counts as int64 and rows sorted by `by`. So it repeats GroupBy
/// over the rows the sources summarize whenever every partial sum is exact
/// (vec::ReorderIsExact). When `by` is `src_by` and every source is
/// strictly sorted on it with no NaN in a key (every GroupBy-shaped table
/// over such keys is), one linear merge combines them; otherwise one hash
/// pass over the sources in order does. Both give the same bits: equal
/// keys combine through AggState in source order, and keep the first
/// source's spelling. The merge copies a row that one source alone holds
/// whole where it re-aggregates to itself, and checks the stop context
/// every 1,024 rows. `*copied`, when given, gets one entry per output row:
/// the row of srcs[0] it is a copy of (equal by representation), or
/// kNoRow; the hash path copies none.
Result<Table> RollupFinalized(const std::vector<const Table*>& srcs,
                              const std::vector<std::string>& src_by,
                              const std::vector<AggSpec>& aggs,
                              const std::vector<std::string>& by,
                              std::vector<size_t>* copied = nullptr);

}  // namespace statcube

#endif  // STATCUBE_RELATIONAL_AGGREGATE_H_
