/// \file
/// \brief The radix group-by's partition count and the block-sum wrapper
/// it uses.
///
/// The group-by itself is the radix fold inside exec::CodedGroupBy
/// (parallel_kernels.cc, DESIGN.md §12), over dense group ids in
/// first-occurrence order and measure slabs (EncodeSlabEntry). Determinism
/// contract: the output is **bit-identical for any thread count, and
/// bit-identical to the serial GroupByStates for every measure** —
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
/// the ordered loops.

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
