#include "statcube/exec/vec_kernels.h"

#include "statcube/common/vec_block.h"
#include "statcube/obs/metrics.h"

namespace statcube::exec {

// Block primitives live in common/vec_block.cc (namespace statcube::vec);
// only the metrics-instrumented SumBlockAuto wrapper stays at this layer.

namespace vec = ::statcube::vec;

double SumBlockAuto(const double* v, size_t n, bool all_integral,
                    double max_abs) {
  // Resolved once: GetCounter is a by-name map lookup under the registry
  // mutex, and this function runs once per block. Registry entries are
  // never erased (Reset() only zeroes values), so the references stay
  // valid for the process lifetime.
  static obs::Counter& fast_counter = obs::MetricsRegistry::Global()
      .GetCounter("statcube.exec.vec.block_sum_fast");
  static obs::Counter& ordered_counter = obs::MetricsRegistry::Global()
      .GetCounter("statcube.exec.vec.block_sum_ordered");
  if (vec::ReorderIsExact(all_integral, max_abs, n)) {
    if (obs::Enabled()) fast_counter.Add(1);
    return vec::SumBlockFast(v, n);
  }
  if (obs::Enabled()) ordered_counter.Add(1);
  return vec::SumBlockOrdered(v, n);
}

}  // namespace statcube::exec
