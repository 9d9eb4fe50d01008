// Dense multidimensional array with row-major linearization (paper §6.2,
// Figure 20) — the storage model of MOLAP products: store the distinct
// values of each dimension once, then only the cells, addressed by the
// "fairly simple well-known calculation" pos = sum_i coord_i * stride_i.
//
// Range aggregation charges the block counter one sequential byte range per
// contiguous innermost segment, which is what a disk-resident row-major
// array would read; the chunked array (Figure 23) improves exactly this.

#ifndef STATCUBE_MOLAP_DENSE_ARRAY_H_
#define STATCUBE_MOLAP_DENSE_ARRAY_H_

#include <cstdint>
#include <vector>

#include "statcube/common/block_counter.h"
#include "statcube/common/status.h"

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

  /// Sum over the hyper-rectangle `ranges` (one DimRange per dimension).
  /// Charges one sequential read per contiguous innermost segment.
  Result<double> SumRange(const std::vector<DimRange>& ranges);

  /// Fraction of cells different from `null_value`.
  double Density(double null_value = 0.0) const;

  size_t ByteSize() const { return cells_.size() * sizeof(double); }

  BlockCounter& counter() { return counter_; }
  const std::vector<double>& cells() const { return cells_; }

  /// Conservative exactness evidence for reassociated (SIMD) summation
  /// (common/vec_block.h): true while every value ever written was an integer
  /// (the initial cells are 0.0). Overwrites never clear history, so this
  /// may under-claim but never over-claims.
  bool all_integral() const { return all_integral_; }
  /// Upper bound on |cell| across every value ever written (overwrites keep
  /// the old bound — an over-estimate is still a sound gate input).
  double max_abs() const { return max_abs_; }

 private:
  // Maintains the exactness metadata on every write path. NaN is not
  // integral and its magnitude comparison is always false, so it pins
  // all_integral_ off; infinities blow the bound. Either disables the
  // reassociated fast path.
  void NoteWrite(double v) {
    double a = v < 0 ? -v : v;
    if (a > max_abs_) max_abs_ = a;
    if (all_integral_ && !IsIntegral(v)) all_integral_ = false;
  }
  static bool IsIntegral(double v);

  std::vector<size_t> shape_;
  std::vector<size_t> strides_;  // row-major
  std::vector<double> cells_;
  bool all_integral_ = true;
  double max_abs_ = 0.0;
  BlockCounter counter_;
};

}  // namespace statcube

#endif  // STATCUBE_MOLAP_DENSE_ARRAY_H_
