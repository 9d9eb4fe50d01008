// Dense multidimensional array with row-major linearization (paper §6.2,
// Figure 20) — the storage model of MOLAP products: store the distinct
// values of each dimension once, then only the cells, addressed by the
// "fairly simple well-known calculation" pos = sum_i coord_i * stride_i.
//
// Range aggregation is one sequential pass over the selected sub-cube in
// array order, summing onto any chosen dimensions on the way. It charges
// the block counter one sequential byte range per contiguous innermost
// segment, which is what a disk-resident row-major array would read; the
// chunked array (Figure 23) improves exactly this.

#ifndef STATCUBE_MOLAP_DENSE_ARRAY_H_
#define STATCUBE_MOLAP_DENSE_ARRAY_H_

#include <cstdint>
#include <vector>

#include "statcube/common/block_counter.h"
#include "statcube/common/cancellation.h"
#include "statcube/common/status.h"
#include "statcube/common/vec_block.h"

namespace statcube {

/// A [lo, hi) slab per dimension.
struct DimRange {
  size_t lo = 0;
  size_t hi = 0;  ///< exclusive
  size_t width() const { return hi - lo; }
  /// Narrows to the intersection with [i, i + 1): i alone, or empty.
  void Keep(size_t i) {
    lo = lo > i ? lo : i;
    hi = hi < i + 1 ? hi : i + 1;
    if (hi < lo) hi = lo;
  }
};

/// Row-major dense array of doubles.
class DenseArray {
 public:
  /// `shape[i]` = cardinality of dimension i. Product must fit memory.
  explicit DenseArray(std::vector<size_t> shape);

  size_t num_dims() const { return shape_.size(); }
  const std::vector<size_t>& shape() const { return shape_; }
  size_t num_cells() const { return cells_.size(); }

  /// Row-major position of a coordinate.
  Result<size_t> Linearize(const std::vector<size_t>& coord) const;

  /// Inverse of Linearize.
  std::vector<size_t> Delinearize(size_t pos) const;

  Status Set(const std::vector<size_t>& coord, double v);
  Result<double> Get(const std::vector<size_t>& coord) const;

  double GetLinear(size_t pos) const { return cells_[pos]; }
  void SetLinear(size_t pos, double v) {
    cells_[pos] = v;
    NoteWrite(v);
  }

  /// The hyper-rectangle `ranges` (one DimRange per dimension) summed onto
  /// the dimensions `by`: one total per cell of its projection on `by`,
  /// the last of `by` varying fastest, and none when it is empty. A
  /// dimension listed twice keeps only its diagonal; the other totals stay
  /// 0.0. One pass in array order, so each total adds its cells in array
  /// order (segments are block-summed only where vec::ReorderIsExact makes
  /// that the same bits). Charges one sequential read per contiguous
  /// innermost segment, once at the end. Checks `stop` before the first
  /// cell and every few thousand cells; once it fires, returns
  /// StopStatus(reason, "groupby").
  Result<std::vector<double>> SumRangeBy(const std::vector<DimRange>& ranges,
                                         const std::vector<size_t>& by,
                                         const CancelContext* stop = nullptr);

  /// Sum over the hyper-rectangle `ranges`: SumRangeBy onto no dimension.
  Result<double> SumRange(const std::vector<DimRange>& ranges);

  /// Fraction of cells different from `null_value`.
  double Density(double null_value = 0.0) const;

  size_t ByteSize() const { return cells_.size() * sizeof(double); }

  BlockCounter& counter() { return counter_; }
  const std::vector<double>& cells() const { return cells_; }

 private:
  // Maintains the exactness evidence on every write path.
  void NoteWrite(double v) { evidence_.Note(v); }

  std::vector<size_t> shape_;
  std::vector<size_t> strides_;  // row-major
  std::vector<double> cells_;
  // Exactness evidence for reassociated (SIMD) summation
  // (common/vec_block.h) over every value ever written (the initial cells
  // are 0.0). Overwrites never clear history, so it may under-claim but
  // never over-claims.
  vec::ScaleEvidence evidence_;
  BlockCounter counter_;
};

}  // namespace statcube

#endif  // STATCUBE_MOLAP_DENSE_ARRAY_H_
