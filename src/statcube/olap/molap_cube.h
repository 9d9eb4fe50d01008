// The MOLAP backend: a statistical object materialized as a dense
// linearized array (paper §6.2/§6.6) with per-dimension dictionaries. This
// is what bench_rolap_molap races against the ROLAP star schema: cell
// addressing is arithmetic, slab summaries are sequential array scans, and
// the whole cross product is stored whether or not cells are occupied — the
// space/density trade-off at the heart of the §6.6 debate.

#ifndef STATCUBE_OLAP_MOLAP_CUBE_H_
#define STATCUBE_OLAP_MOLAP_CUBE_H_

#include <string>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/core/statistical_object.h"
#include "statcube/molap/dense_array.h"
#include "statcube/storage/dictionary.h"
#include "statcube/storage/stores.h"

namespace statcube {

/// A statistical object's measure as a dense multidimensional array.
class MolapCube {
 public:
  /// Materializes `measure` over the full cross product of the object's
  /// dimension values, scattered from its code columns and measure slab.
  /// Cells that collide (duplicate coordinates) are summed in row order;
  /// absent cells are zero.
  static Result<MolapCube> Build(const StatisticalObject& obj,
                                 const std::string& measure);

  size_t num_dims() const { return dicts_.size(); }
  const DenseArray& array() const { return array_; }
  DenseArray& mutable_array() { return array_; }

  /// Value of one cell addressed by dimension values.
  Result<double> GetCell(const std::vector<Value>& coord_values);

  /// The slab `filters` (dimension name = value, ANDed) fix: per
  /// dimension, the codes every filter on it keeps — all when none does,
  /// one when all agree, none (an empty range) when two disagree or a value
  /// never occurs. NotFound for a name that is not a dimension.
  Result<std::vector<DimRange>> FilterRanges(
      const std::vector<EqFilter>& filters) const;

  /// SUM over the slab FilterRanges fixes; 0 when it is empty.
  Result<double> SumWhere(const std::vector<EqFilter>& filters);

  /// The dictionary of dimension `d`: its values in code order.
  const Dictionary& dictionary(size_t d) const { return dicts_[d]; }

  /// Index of the dimension named `name`; NotFound if there is none.
  Result<size_t> DimIndex(const std::string& name) const;

  /// SUM over arbitrary value subsets per dimension (a dice). Dimensions
  /// not mentioned range over everything.
  struct DiceDim {
    std::string dim;
    std::vector<Value> values;
  };
  Result<double> SumDice(const std::vector<DiceDim>& dice);

  /// Occupied-cell fraction of the cross product.
  double density() const { return array_.Density(); }

  /// Bytes: the dense array plus the dimension dictionaries — the MOLAP
  /// footprint (stores the cross product but each dimension value once,
  /// Figure 20).
  size_t ByteSize() const;

  BlockCounter& counter() { return array_.counter(); }

 private:
  MolapCube(std::vector<std::string> dim_names, std::vector<Dictionary> dicts,
            DenseArray array)
      : dim_names_(std::move(dim_names)),
        dicts_(std::move(dicts)),
        array_(std::move(array)) {}

  std::vector<std::string> dim_names_;
  std::vector<Dictionary> dicts_;
  DenseArray array_;
};

}  // namespace statcube

#endif  // STATCUBE_OLAP_MOLAP_CUBE_H_
