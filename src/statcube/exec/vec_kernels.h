/// \file
/// \brief The radix-partitioned group-by behind exec::ParallelGroupByStates
/// and exec::GroupIdStates (DESIGN.md §12), and the block-sum wrapper it
/// uses.
///
/// Instead of a row-at-a-time loop (build a key Row, hash Values, probe an
/// unordered_map, fold one AggState per row) the group-by runs a columnar
/// pipeline over the paper's §6.1 transposed layout. It has two front ends
/// and one back end:
///
///   1. **Columnarize** (ParallelGroupByStates, the front end for Tables) —
///      one parallel pass dictionary-encodes each morsel's group-column
///      *tuples* into dense local codes through an open-addressing
///      dictionary. Each tuple is encoded once into a fixed-width inline key
///      record (24 bytes per column) that is hashed word-at-a-time in the
///      same pass; probes confirm hash matches with a single `memcmp` of the
///      records (falling back to exact Value comparison only for long
///      strings, |numerics| >= 2^53, and NaN — cases where the record image
///      cannot prove Value::Compare equality). The same pass copies each
///      measure into a contiguous `double` slab plus a flag byte per row
///      (EncodeSlabEntry). Local dictionaries then merge in ascending morsel
///      order, so the global group id (gid) sequence follows global
///      first-occurrence order — exactly the serial scan's emplace order.
///      The query executor has the other front end: it computes the same
///      gids from a statistical object's code columns and hands over the
///      object's own measure slabs (GroupIdRows).
///   2. **Partition** (GroupIdStates, the back end) — a per-morsel histogram
///      + prefix-offset + scatter radix-partitions each row's gid *and
///      measure values* by the low bits of the dense gid into
///      `kRadixPartitions` buckets. The scatter is stable: within a
///      partition, rows keep ascending global row order.
///   3. **Aggregate** — one task per partition folds its partition-ordered
///      value slabs straight into flat per-gid AggState slices with
///      AggState::AddSlab (gids index directly — no hash table, no Row
///      allocation, no Value access; every load is sequential). Partitions
///      own disjoint gid sets, so there is no cross-thread merge of
///      thread-local partials at all.
///   4. **Emit** (EmitGroupedStates) — gids are already
///      first-occurrence-ordered, so groups insert into the output
///      GroupedStates by ascending gid; the table front end rebuilds each
///      key Row from the group's first input row (the exact representative
///      the serial map keeps).
///
/// Determinism contract: the output is **bit-identical for any thread count,
/// and bit-identical to the serial GroupByStates for every measure** —
/// including non-integral doubles, whose sums depend on the order of
/// addition. Two properties make this exact rather than approximate:
///
///   * the stable scatter hands each partition its rows in global row
///     order, so every group's AggState sees the exact floating-point
///     accumulation sequence of the serial scan;
///   * groups enter the output map in global first-occurrence order with
///     the same growth pattern as the serial map, so downstream consumers
///     that iterate it (the CUBE lattice rollup's merge order) see the
///     serial iteration order.
///
/// Reassociated (SIMD) summation is used only where vec_block.h's
/// `ReorderIsExact` proves it cannot change a bit; everything else keeps
/// the ordered loops. Phases 2 and 3 fan out to the pool only with more
/// than one worker and past `ExecOptions::vec_fanout_rows` rows per worker.
/// Otherwise a pool barrier costs more than the phase itself, so the
/// scatter is skipped and one pass on the caller folds the slabs in global
/// row order — the order the stable scatter would produce, so the results
/// are identical either way. Spans `vec.columnarize` / `vec.partition`
/// (fanned out only) / `vec.aggregate` / `vec.emit` and
/// `statcube.exec.vec.*` counters expose each phase.
///
/// Limits: row indexes are `size_t`, so the input size is unbounded; group
/// ids live in the dictionaries' `int32_t` slots, so more than 2^31 - 1
/// distinct tuples return OutOfRange.

#ifndef STATCUBE_EXEC_VEC_KERNELS_H_
#define STATCUBE_EXEC_VEC_KERNELS_H_

#include <cstddef>

namespace statcube::exec {

/// Number of radix partitions (a power of two). Partition id is the low
/// log2(kRadixPartitions) bits of the *dense* group id — gids are assigned
/// sequentially in first-occurrence order, so the low bits round-robin
/// groups across partitions regardless of key distribution; 64 partitions
/// keep per-partition state cache-resident while out-scaling kMaxThreads.
inline constexpr size_t kRadixPartitions = 64;

/// Picks the reassociated block sum when
/// `vec::ReorderIsExact(all_integral, max_abs, n)` holds and the ordered
/// loop otherwise; always bit-identical to `vec::SumBlockOrdered`. Lives in
/// exec (not common/vec_block.h with the primitives it wraps) because it
/// bumps the `statcube.exec.vec.block_sum_*` counters, and obs sits above
/// common in the layer DAG.
double SumBlockAuto(const double* v, size_t n, bool all_integral,
                    double max_abs);

}  // namespace statcube::exec

#endif  // STATCUBE_EXEC_VEC_KERNELS_H_
