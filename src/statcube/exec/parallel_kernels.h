// Parallel operator kernels over the morsel scheduler (task_scheduler.h):
// scan/filter, hash group-by with thread-local partial aggregation, the
// CUBE/ROLLUP grouping-set lattice, and MOLAP dense-array reductions.
//
// Determinism contract (tested by tests/parallel_equivalence_test.cc and
// documented in DESIGN.md §6): every kernel's output is **bit-identical for
// any thread count**, including 1. Morsel boundaries are a pure function of
// the input size and morsel_rows (never the thread count), every morsel is
// aggregated in row order, and per-morsel partials are merged in ascending
// morsel index — so the floating-point combination order is fixed. The tail
// is the same canonical sort the serial operators already perform, so a
// kernel's result also matches its serial counterpart exactly whenever
// addition over the measure is exact (integer-valued measures — every
// workload measure except the stock close price) and to the last ulp
// otherwise.

#ifndef STATCUBE_EXEC_PARALLEL_KERNELS_H_
#define STATCUBE_EXEC_PARALLEL_KERNELS_H_

#include <string>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/exec/task_scheduler.h"
#include "statcube/molap/dense_array.h"
#include "statcube/relational/aggregate.h"
#include "statcube/relational/table.h"

namespace statcube::exec {

/// Process-wide default for ExecOptions::vectorized: true when the
/// STATCUBE_VECTORIZED environment variable is set to anything but "0"
/// (read once, like STATCUBE_THREADS). Lets CI force the vectorized kernels
/// on for an entire test run without touching call sites.
bool DefaultVectorized();

/// Knobs shared by every parallel kernel.
struct ExecOptions {
  /// Worker cap: 0 = DefaultThreads(); 1 = run inline on the caller (same
  /// morsel structure, so the result is identical); N > pool grows the pool.
  int threads = 0;
  /// Morsel size in rows (or cells / lattice units); part of the canonical
  /// decomposition, so changing it may legitimately change last-ulp FP
  /// results — it is NOT varied by the engine at run time.
  size_t morsel_rows = kDefaultMorselRows;
  /// nullptr = TaskScheduler::Global().
  TaskScheduler* scheduler = nullptr;
  /// Optional query-level stop context (token + deadline). Morsel loops stop
  /// claiming work once it fires and the kernel returns kCancelled /
  /// kDeadlineExceeded instead of a partial result. nullptr = never stops.
  const CancelContext* stop = nullptr;
  /// Routes group-by (and everything built on it: CUBE, ROLLUP, the ROLAP
  /// backend, cache derivation) through the vectorized radix kernels
  /// (vec_kernels.h) instead of the scalar row-at-a-time morsel path.
  /// Output is bit-identical to the serial operators at any thread count
  /// (see vec_kernels.h for why this is exact, not last-ulp). Inputs past
  /// the kernel's 32-bit row indexes fall back to the scalar kernel
  /// transparently.
  bool vectorized = DefaultVectorized();
  /// The vectorized kernel's cheap phases (radix scatter, per-partition
  /// aggregation — a few ns per row) fan out to the pool only when the rows
  /// per worker amortize a dispatch+barrier: n >= this * EffectiveThreads().
  /// Below that they run inline on the caller. 0 = always fan out (tests
  /// use this to exercise the parallel phases at small row counts). Either
  /// way the result is bit-identical — the phase decomposition, not the
  /// execution layout, fixes the arithmetic.
  size_t vec_fanout_rows = 65536;

  /// The thread cap with defaults resolved.
  int EffectiveThreads() const {
    return threads <= 0 ? DefaultThreads() : threads;
  }
};

/// Accumulator states per group, computed with thread-local partial
/// aggregation and merged via AggState::Merge in ascending morsel order.
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

/// GROUP BY ROLLUP: parallel finest grouping, then the (cheap) prefix chain
/// serially — the n+1 prefixes form a dependency chain, so only the base
/// scan parallelizes. Output contract identical to RollupBy.
Result<Table> ParallelRollupBy(const Table& input,
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
