#include "statcube/molap/dense_array.h"

#include <algorithm>
#include <cstdint>

namespace statcube {

DenseArray::DenseArray(std::vector<size_t> shape) : shape_(std::move(shape)) {
  strides_.assign(shape_.size(), 1);
  size_t total = 1;
  for (size_t i = shape_.size(); i-- > 0;) {
    strides_[i] = total;
    total *= shape_[i];
  }
  cells_.assign(total, 0.0);
}

Result<size_t> DenseArray::Linearize(const std::vector<size_t>& coord) const {
  if (coord.size() != shape_.size())
    return Status::InvalidArgument("coordinate arity mismatch");
  size_t pos = 0;
  for (size_t i = 0; i < coord.size(); ++i) {
    if (coord[i] >= shape_[i])
      return Status::OutOfRange("coordinate " + std::to_string(coord[i]) +
                                " out of range for dimension " +
                                std::to_string(i));
    pos += coord[i] * strides_[i];
  }
  return pos;
}

std::vector<size_t> DenseArray::Delinearize(size_t pos) const {
  std::vector<size_t> coord(shape_.size());
  for (size_t i = 0; i < shape_.size(); ++i) {
    coord[i] = pos / strides_[i];
    pos %= strides_[i];
  }
  return coord;
}

Status DenseArray::Set(const std::vector<size_t>& coord, double v) {
  STATCUBE_ASSIGN_OR_RETURN(size_t pos, Linearize(coord));
  cells_[pos] = v;
  NoteWrite(v);
  return Status::OK();
}

Result<double> DenseArray::Get(const std::vector<size_t>& coord) const {
  STATCUBE_ASSIGN_OR_RETURN(size_t pos, Linearize(coord));
  return cells_[pos];
}

Result<std::vector<double>> DenseArray::SumRangeBy(
    const std::vector<DimRange>& ranges, const std::vector<size_t>& by,
    const CancelContext* stop) {
  const size_t ndims = shape_.size();
  if (ranges.size() != ndims)
    return Status::InvalidArgument("range arity mismatch");
  if (ndims == 0)
    return Status::InvalidArgument("a zero-dimensional array has no ranges");
  size_t total_cells = 1;
  for (size_t i = 0; i < ndims; ++i) {
    if (ranges[i].lo > ranges[i].hi || ranges[i].hi > shape_[i])
      return Status::OutOfRange("range invalid for dimension " +
                                std::to_string(i));
    total_cells *= ranges[i].width();
  }
  // Total g of a cell is the sum of its offsets into the ranges weighted by
  // step[d]: the row-major strides of the totals over `by` (the last
  // fastest), added once per listing, so a dimension listed twice lands on
  // the diagonal.
  std::vector<size_t> step(ndims, 0);
  size_t ntotals = 1;
  for (size_t i = by.size(); i-- > 0;) {
    if (by[i] >= ndims)
      return Status::OutOfRange("no dimension " + std::to_string(by[i]));
    step[by[i]] += ntotals;
    ntotals *= ranges[by[i]].width();
  }
  if (stop != nullptr)
    if (StopReason r = stop->Check(); r != StopReason::kNone)
      return StopStatus(r, "groupby");
  if (total_cells == 0) return std::vector<double>();  // empty sub-cube
  std::vector<double> totals(ntotals, 0.0);

  // Exactness gate for reassociated (SIMD) segment sums, the coded fold's
  // licence: when every cell ever written is a multiple of 2^e and the
  // whole sub-cube's sum stays within 2^(53+e), any association is exact,
  // so block-summing a segment into its total is bit-identical to adding
  // its cells one by one. Otherwise keep the strictly ordered accumulation.
  const bool fast = evidence_.Licenses(total_cells);
  // The innermost dimension contributes a contiguous segment per
  // combination of the leading ones; its cells go to one total, or, when
  // it is a BY dimension, `inner_step` apart.
  const size_t last = ndims - 1;
  const size_t width = ranges[last].width();
  const size_t inner_step = step[last];
  const size_t block = counter_.block_size();
  uint64_t blocks = 0, bytes = 0;
  // Cells left to add before the stop context is checked again.
  const size_t check_every = stop != nullptr ? 4096 : SIZE_MAX;
  size_t budget = check_every;
  std::vector<size_t> coord(ndims);
  size_t base = 0, g = 0;
  for (size_t i = 0; i < ndims; ++i) {
    coord[i] = ranges[i].lo;
    base += coord[i] * strides_[i];
  }
  while (true) {
    // One contiguous segment, tallied as one sequential read.
    blocks += (width * sizeof(double) + block - 1) / block;
    bytes += width * sizeof(double);
    const double* seg = &cells_[base];
    for (size_t k = 0; k < width;) {
      if (budget == 0) {
        if (StopReason r = stop->Check(); r != StopReason::kNone) {
          counter_.MergeRaw(blocks, bytes);
          return StopStatus(r, "groupby");
        }
        budget = check_every;
      }
      const size_t n = std::min(width - k, budget);
      if (inner_step != 0) {
        for (size_t j = k; j < k + n; ++j) totals[g + j * inner_step] += seg[j];
      } else if (fast) {
        totals[g] += vec::SumBlockFast(seg + k, n);
      } else {
        double t = totals[g];
        for (size_t j = k; j < k + n; ++j) t += seg[j];
        totals[g] = t;
      }
      budget -= n;
      k += n;
    }

    // Odometer over the leading dims.
    size_t d = last;
    bool done = true;
    while (d-- > 0) {
      if (++coord[d] < ranges[d].hi) {
        base += strides_[d];
        g += step[d];
        done = false;
        break;
      }
      coord[d] = ranges[d].lo;
      base -= (ranges[d].width() - 1) * strides_[d];
      g -= (ranges[d].width() - 1) * step[d];
    }
    if (done) break;
  }
  counter_.MergeRaw(blocks, bytes);
  return totals;
}

Result<double> DenseArray::SumRange(const std::vector<DimRange>& ranges) {
  STATCUBE_ASSIGN_OR_RETURN(std::vector<double> totals,
                            SumRangeBy(ranges, {}));
  return totals.empty() ? 0.0 : totals[0];
}

double DenseArray::Density(double null_value) const {
  if (cells_.empty()) return 0.0;
  size_t nonnull = 0;
  for (double c : cells_)
    if (c != null_value) ++nonnull;
  return double(nonnull) / double(cells_.size());
}

}  // namespace statcube
