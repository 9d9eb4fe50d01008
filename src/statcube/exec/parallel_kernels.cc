#include "statcube/exec/parallel_kernels.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "statcube/common/mutex.h"
#include "statcube/common/str_util.h"
#include "statcube/common/vec_block.h"
#include "statcube/obs/query_profile.h"
#include "statcube/obs/resource.h"
#include "statcube/relational/cube_operator.h"

namespace statcube::exec {

namespace vec = ::statcube::vec;

namespace {

size_t NumMorsels(size_t n, size_t morsel) {
  return n == 0 ? 0 : (n + morsel - 1) / morsel;
}

ParallelForOptions LoopOptions(const char* label, const ExecOptions& options) {
  ParallelForOptions loop;
  loop.label = label;
  loop.morsel_size = options.morsel_rows == 0 ? kDefaultMorselRows
                                              : options.morsel_rows;
  loop.max_workers = options.EffectiveThreads();
  loop.scheduler = options.scheduler;
  loop.stop = options.stop;
  return loop;
}

// The stop state after a kernel's loops ran: kNone means every morsel was
// claimed and completed (monotonicity — a stop that fired during the loop is
// still visible here), anything else means the kernel must discard its
// partial output and report the stop.
StopReason StopAfter(const ExecOptions& options) {
  return options.stop == nullptr ? StopReason::kNone : options.stop->Check();
}

}  // namespace

Result<Table> ParallelGroupBy(const Table& input,
                              const std::vector<std::string>& group_cols,
                              const std::vector<AggSpec>& aggs,
                              const ExecOptions& options) {
  obs::Span span("op.groupby");
  STATCUBE_ASSIGN_OR_RETURN(
      GroupedStates states,
      ParallelGroupByStates(input, group_cols, aggs, options));
  Table out = StatesToTable(input.name() + "_by_" + Join(group_cols, "_"),
                            group_cols, aggs, states);
  obs::RecordOperator("groupby", input.num_rows(), out.num_rows());
  return out;
}

Result<Table> ParallelCubeBy(const Table& input,
                             const std::vector<std::string>& dims,
                             const std::vector<AggSpec>& aggs,
                             const ExecOptions& options) {
  if (dims.size() > 20)
    return Status::InvalidArgument("cube over >20 dimensions refused");
  obs::Span span("op.cube");
  // The finest grouping: one parallel scan of the input.
  STATCUBE_ASSIGN_OR_RETURN(GroupedStates base,
                            ParallelGroupByStates(input, dims, aggs, options));
  return CubeLattice(input.name(), std::move(base), dims, aggs, options);
}

Result<Table> CubeLattice(const std::string& name, GroupedStates finest,
                          const std::vector<std::string>& dims,
                          const std::vector<AggSpec>& aggs,
                          const ExecOptions& options) {
  if (dims.size() > 20)
    return Status::InvalidArgument("cube over >20 dimensions refused");
  size_t ndims = dims.size();
  uint32_t full = ndims == 0 ? 0 : ((1u << ndims) - 1);

  // Every coarser grouping rolls up from the parent with the lowest absent
  // dimension added — the same parent CubeBy picks, so the merged states are
  // identical. Groupings within one popcount level depend only on the level
  // above, so each level is one parallel loop (morsel = one grouping set).
  std::vector<GroupedStates> computed(size_t(full) + 1);
  computed[full] = std::move(finest);

  std::vector<std::vector<uint32_t>> levels(ndims);  // by popcount, asc mask
  for (uint32_t m = 0; m < full; ++m)
    levels[__builtin_popcount(m)].push_back(m);

  ParallelForOptions loop = LoopOptions("cube_rollup", options);
  loop.morsel_size = 1;  // one grouping set per task
  for (size_t level = ndims; level-- > 0;) {
    const std::vector<uint32_t>& masks = levels[level];
    ParallelFor(
        masks.size(),
        [&](size_t, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            uint32_t m = masks[i];
            uint32_t missing = full & ~m;
            uint32_t parent = m | (missing & (~missing + 1));
            computed[m] =
                RollupGroupedStates(computed[parent], parent, m, ndims);
          }
        },
        loop);
    if (StopReason r = StopAfter(options); r != StopReason::kNone)
      return StopStatus(r, "cube");
  }

  // Emission order matches CubeBy (popcount desc, mask asc); the canonical
  // sort would make any emission order equivalent anyway since every
  // dim/ALL pattern is unique.
  Table out(name + "_cube", CubeOutputSchema(dims, aggs));
  EmitCubeGrouping(computed[full], full, ndims, aggs, &out);
  for (size_t level = ndims; level-- > 0;)
    for (uint32_t m : levels[level])
      EmitCubeGrouping(computed[m], m, ndims, aggs, &out);
  SortCubeRows(&out, ndims);
  return out;
}

Result<double> ParallelSumRange(DenseArray& array,
                                const std::vector<DimRange>& ranges,
                                const ExecOptions& options) {
  // Same validation (and early-outs) as DenseArray::SumRange.
  if (ranges.size() != array.num_dims())
    return Status::InvalidArgument("range arity mismatch");
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].lo > ranges[i].hi || ranges[i].hi > array.shape()[i])
      return Status::OutOfRange("range invalid for dimension " +
                                std::to_string(i));
    if (ranges[i].lo == ranges[i].hi) return 0.0;  // empty slab
  }
  size_t ndims = array.num_dims();
  if (ndims <= 1) return array.SumRange(ranges);

  // Morsel unit: one contiguous innermost segment, i.e. one assignment of
  // the leading dims. Segment s decodes to leading coordinates in the same
  // row-major (last-leading-dim-fastest) order the serial odometer visits.
  size_t nsegments = 1;
  for (size_t i = 0; i + 1 < ndims; ++i) nsegments *= ranges[i].width();
  size_t inner_width = ranges[ndims - 1].width();

  // Strides of the flat array (recomputed; DenseArray keeps them private).
  std::vector<size_t> strides(ndims, 1);
  for (size_t i = ndims - 1; i-- > 0;)
    strides[i] = strides[i + 1] * array.shape()[i + 1];

  ParallelForOptions loop = LoopOptions("sum_range", options);
  // Scale the morsel so one morsel covers roughly kDefaultMorselRows cells.
  loop.morsel_size = std::max<size_t>(
      1, (options.morsel_rows == 0 ? kDefaultMorselRows
                                   : options.morsel_rows) /
             std::max<size_t>(1, inner_width));
  obs::RecordBytesTouched(nsegments * inner_width * sizeof(double));
  std::vector<double> parts(NumMorsels(nsegments, loop.morsel_size), 0.0);
  const std::vector<double>& cells = array.cells();
  BlockCounter& counter = array.counter();
  // Same exactness gate as DenseArray::SumRange: when the whole region's
  // sum is provably exact, segments may use the reassociated block kernel
  // — bit-identical to the ordered walk, and to the serial SumRange.
  bool fast = vec::ReorderIsExact(array.all_integral(), array.max_abs(),
                                  nsegments * inner_width);

  ParallelFor(
      nsegments,
      [&](size_t m, size_t begin, size_t end) {
        double sum = 0.0;
        std::vector<size_t> coord(ndims);
        coord[ndims - 1] = ranges[ndims - 1].lo;
        for (size_t s = begin; s < end; ++s) {
          size_t rem = s;
          for (size_t d = ndims - 1; d-- > 0;) {
            coord[d] = ranges[d].lo + rem % ranges[d].width();
            rem /= ranges[d].width();
          }
          size_t base = 0;
          for (size_t i = 0; i < ndims; ++i) base += coord[i] * strides[i];
          counter.ChargeBytes(inner_width * sizeof(double));
          if (fast) {
            sum += vec::SumBlockFast(&cells[base], inner_width);
          } else {
            for (size_t k = 0; k < inner_width; ++k) sum += cells[base + k];
          }
        }
        parts[m] = sum;
      },
      loop);

  if (StopReason r = StopAfter(options); r != StopReason::kNone)
    return StopStatus(r, "sum_range");
  double total = 0.0;
  for (double p : parts) total += p;
  return total;
}

Result<std::vector<double>> MarginalSums(DenseArray& array, size_t dim) {
  if (dim >= array.num_dims())
    return Status::OutOfRange("marginal dimension out of range");
  size_t ndims = array.num_dims();
  std::vector<double> out(array.shape()[dim], 0.0);
  std::vector<DimRange> ranges(ndims);
  for (size_t d = 0; d < ndims; ++d) ranges[d] = {0, array.shape()[d]};
  for (size_t i = 0; i < out.size(); ++i) {
    ranges[dim] = {i, i + 1};
    STATCUBE_ASSIGN_OR_RETURN(out[i], array.SumRange(ranges));
  }
  return out;
}

Result<std::vector<double>> ParallelMarginalSums(DenseArray& array,
                                                 size_t dim,
                                                 const ExecOptions& options) {
  if (dim >= array.num_dims())
    return Status::OutOfRange("marginal dimension out of range");
  size_t ndims = array.num_dims();
  size_t card = array.shape()[dim];
  std::vector<double> out(card, 0.0);
  obs::RecordBytesTouched(array.cells().size() * sizeof(double));

  ParallelForOptions loop = LoopOptions("marginal", options);
  // One marginal entry is a whole slab; a morsel of a few entries balances
  // well even for small cardinalities.
  loop.morsel_size = std::max<size_t>(
      1, std::min<size_t>(loop.morsel_size,
                          (card + size_t(loop.max_workers) * 4 - 1) /
                              std::max<size_t>(1, size_t(loop.max_workers) *
                                                      4)));
  Mutex err_mu;
  Status first_error = Status::OK();

  ParallelFor(
      card,
      [&](size_t, size_t begin, size_t end) {
        std::vector<DimRange> ranges(ndims);
        for (size_t d = 0; d < ndims; ++d) ranges[d] = {0, array.shape()[d]};
        for (size_t i = begin; i < end; ++i) {
          ranges[dim] = {i, i + 1};
          // Each entry walks its slab in the serial index order, so the
          // value is bit-identical to MarginalSums.
          Result<double> r = array.SumRange(ranges);
          if (!r.ok()) {
            MutexLock lock(err_mu);
            if (first_error.ok()) first_error = r.status();
            return;
          }
          out[i] = r.value();
        }
      },
      loop);

  if (!first_error.ok()) return first_error;
  if (StopReason r = StopAfter(options); r != StopReason::kNone)
    return StopStatus(r, "marginal");
  return out;
}

}  // namespace statcube::exec
