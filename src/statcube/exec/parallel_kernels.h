// Parallel operator kernels over the morsel scheduler (task_scheduler.h):
// the radix-partitioned group-by (vec_kernels.h) — from a Table, from
// dictionary-coded columns (CodedGroupBy, the route of the query executor
// and the ROLAP backends), or from rows already reduced to group ids and
// measure slabs (GroupIdRows) — the CUBE grouping-set lattice built on it,
// and MOLAP dense-array reductions.
//
// Determinism contract (tested by tests/parallel_equivalence_test.cc and
// documented in DESIGN.md §6): every kernel's output is **bit-identical for
// any thread count**, including 1. The group-by and CUBE also match their
// serial counterparts (GroupBy, CubeBy) bit for bit on every measure: the
// radix scatter replays each group's serial accumulation order and emits
// groups in serial first-occurrence order. The MOLAP reductions fix their
// combination order by morsel index, and morsel boundaries are a pure
// function of the input size and morsel_rows (never the thread count).

#ifndef STATCUBE_EXEC_PARALLEL_KERNELS_H_
#define STATCUBE_EXEC_PARALLEL_KERNELS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/exec/task_scheduler.h"
#include "statcube/molap/dense_array.h"
#include "statcube/relational/aggregate.h"
#include "statcube/relational/table.h"

namespace statcube::exec {

/// Knobs shared by every parallel kernel.
struct ExecOptions {
  /// Worker cap: 0 = DefaultThreads(); 1 = run inline on the caller (same
  /// morsel structure, so the result is identical); N > pool grows the pool.
  int threads = 0;
  /// Morsel size in rows (or cells / lattice units). The group-by and CUBE
  /// give the same bits at any size; for the MOLAP reductions it is part of
  /// the canonical decomposition, so changing it may legitimately change
  /// last-ulp FP results — it is NOT varied by the engine at run time.
  size_t morsel_rows = kDefaultMorselRows;
  /// nullptr = TaskScheduler::Global().
  TaskScheduler* scheduler = nullptr;
  /// Optional query-level stop context (token + deadline). Morsel loops stop
  /// claiming work once it fires and the kernel returns kCancelled /
  /// kDeadlineExceeded instead of a partial result. nullptr = never stops.
  const CancelContext* stop = nullptr;
  /// The group-by's cheap phases (radix scatter, per-partition
  /// aggregation — a few ns per row) fan out to the pool only when the rows
  /// per worker amortize a dispatch+barrier: n >= this * EffectiveThreads().
  /// Below that the scatter is skipped and one pass on the caller folds the
  /// rows in row order. 0 = always fan out (tests use this to exercise the
  /// parallel phases at small row counts). Either way the result is
  /// bit-identical: every group folds its rows in ascending row order.
  size_t vec_fanout_rows = 65536;

  /// The thread cap with defaults resolved.
  int EffectiveThreads() const {
    return threads <= 0 ? DefaultThreads() : threads;
  }
};

/// One aggregate's input to GroupIdStates: a measure slab — the numbers
/// and the flag bytes of EncodeSlabEntry — or null pointers for count()
/// without a column.
struct SlabView {
  const double* values = nullptr;
  const uint8_t* flags = nullptr;
  /// Evidence over these rows or a superset of them.
  SlabEvidence evidence;
};

/// Rows already reduced to dense group ids: the radix group-by's input
/// after its columnarize phase (vec_kernels.h), whoever produced them.
struct GroupIdRows {
  size_t rows = 0;
  /// Row r's group in [0, groups), numbered in first-occurrence order;
  /// nullptr puts every row in one group (an empty BY).
  const uint32_t* gids = nullptr;
  size_t groups = 0;
  std::vector<SlabView> slabs;  ///< one per aggregate
};

/// The radix group-by after columnarize: partition and aggregate, fanned
/// out only when there is more than one worker and enough rows per worker.
/// Returns `slabs.size()` states per group, group-major. Each group folds
/// its rows in ascending row order, so every state is bit-identical to the
/// serial GroupByStates' at any thread count.
Result<std::vector<AggState>> GroupIdStates(const GroupIdRows& in,
                                            const ExecOptions& options = {});

/// Emit: inserts the groups into a GroupedStates in ascending group id
/// order (first-occurrence order, so the map grows and iterates as the
/// serial GroupByStates' does), group g under the key `key_of(g, &key)`
/// writes.
GroupedStates EmitGroupedStates(
    size_t groups, size_t naggs, const std::vector<AggState>& states,
    const std::function<void(size_t, Row*)>& key_of);

/// A BY attribute of CodedGroupBy: row r's code is `codes[r]`, read
/// through `level_of` (code -> attribute code) when the attribute is a
/// hierarchy level; `values` holds the attribute's value per code.
struct CodedKey {
  const uint32_t* codes = nullptr;
  const uint32_t* level_of = nullptr;
  const std::vector<Value>* values = nullptr;
};

/// A WHERE of CodedGroupBy: row r passes when `keep[codes[r]]` is nonzero.
struct CodedFilter {
  const uint32_t* codes = nullptr;
  const uint8_t* keep = nullptr;
};

/// A group-by over dictionary-coded columns (DESIGN.md §14).
struct CodedGroupByInput {
  /// The table is named `name` + "_by_" + the BY names, or `name` + "_cube".
  std::string name;
  size_t rows = 0;
  std::vector<std::string> by_names;  ///< the BY columns' names
  std::vector<CodedKey> by;           ///< one per BY name
  std::vector<CodedFilter> filters;   ///< ANDed
  std::vector<AggSpec> aggs;          ///< output names set
  std::vector<SlabView> slabs;        ///< one per aggregate, over all rows
  bool cube = false;
  /// Spans for the caller's profile, around the pass over the rows and
  /// around the fold and emit; none when null.
  const char* pass_span = nullptr;
  const char* fold_span = nullptr;
};

/// GROUP BY or CUBE over code columns, bit-identical to GroupBy / CubeBy
/// over the decoded rows at any thread count. A morsel pass packs each
/// kept row's BY codes into one key, keys are numbered into dense group
/// ids in first-occurrence order, GroupIdStates folds the slabs of the kept
/// rows, and a GROUP BY emits its groups sorted by the ranks of their codes
/// (the order of Value::Compare on exact values). Returns nullopt, before
/// touching a row, when codes cannot group exactly — a BY attribute whose
/// values hold NaN or two entries Value::Compare calls equal — and for BY
/// codes that do not pack into 64 bits and CUBEs over more than 20
/// attributes. `options.stop` is checked by the pass and the fold; a pass
/// that filters or reads a level stops as "scan", any other as "groupby".
std::optional<Result<Table>> CodedGroupBy(const CodedGroupByInput& in,
                                          const ExecOptions& options = {});

/// Accumulator states per group over the radix pipeline of vec_kernels.h:
/// bit-identical to the serial GroupByStates, including the map's insertion
/// order. OutOfRange past 2^31 - 1 distinct tuples.
Result<GroupedStates> ParallelGroupByStates(
    const Table& input, const std::vector<std::string>& group_cols,
    const std::vector<AggSpec>& aggs, const ExecOptions& options = {});

/// Full group-by: identical output contract to relational GroupBy (same
/// schema, name, canonical sort).
Result<Table> ParallelGroupBy(const Table& input,
                              const std::vector<std::string>& group_cols,
                              const std::vector<AggSpec>& aggs,
                              const ExecOptions& options = {});

/// GROUP BY CUBE: the finest grouping is one parallel scan; every coarser
/// grouping rolls up through the lattice level-synchronously, one task per
/// grouping set within a level ([ZDN97]'s simultaneous aggregation,
/// parallelized). Output contract identical to CubeBy.
Result<Table> ParallelCubeBy(const Table& input,
                             const std::vector<std::string>& dims,
                             const std::vector<AggSpec>& aggs,
                             const ExecOptions& options = {});

/// ParallelCubeBy's lattice over its finest grouping, however computed:
/// `finest` must be bit-identical to GroupByStates(input, dims, aggs),
/// insertion order included; the table is named `name` + "_cube".
/// Refuses more than 20 dimensions, as CubeBy does.
Result<Table> CubeLattice(const std::string& name, GroupedStates finest,
                          const std::vector<std::string>& dims,
                          const std::vector<AggSpec>& aggs,
                          const ExecOptions& options = {});

/// Parallel DenseArray::SumRange: contiguous innermost segments are the
/// morsel units; per-morsel sums combine in ascending morsel order. Block
/// charges are identical to the serial walk (BlockCounter is atomic).
Result<double> ParallelSumRange(DenseArray& array,
                                const std::vector<DimRange>& ranges,
                                const ExecOptions& options = {});

/// The MOLAP marginal along `dim`: entry i is the sum over every cell whose
/// coordinate on `dim` is i (the paper's Figure 9 row/column totals). Each
/// entry is one independent slab reduction.
Result<std::vector<double>> MarginalSums(DenseArray& array, size_t dim);

/// Parallel MarginalSums: entries are computed concurrently; each entry is
/// produced by exactly one task walking its slab in index order, so the
/// vector is bit-identical to the serial one at any thread count.
Result<std::vector<double>> ParallelMarginalSums(
    DenseArray& array, size_t dim, const ExecOptions& options = {});

}  // namespace statcube::exec

#endif  // STATCUBE_EXEC_PARALLEL_KERNELS_H_
