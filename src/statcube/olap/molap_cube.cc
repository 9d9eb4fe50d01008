#include "statcube/olap/molap_cube.h"

namespace statcube {

Result<MolapCube> MolapCube::Build(const StatisticalObject& obj,
                                   const std::string& measure) {
  STATCUBE_ASSIGN_OR_RETURN(const SummaryMeasure* m,
                            obj.MeasureNamed(measure));
  const StatisticalObject::MeasureSlab& slab =
      obj.measure_slabs()[size_t(m - obj.measures().data())];
  size_t ndims = obj.dimensions().size();
  std::vector<std::string> names;
  std::vector<Dictionary> dicts(ndims);
  std::vector<size_t> shape(ndims);
  for (size_t i = 0; i < ndims; ++i) {
    names.push_back(obj.dimensions()[i].name());
    for (const Value& v : obj.dimensions()[i].values()) dicts[i].Encode(v);
    shape[i] = dicts[i].cardinality();
    if (shape[i] == 0)
      return Status::InvalidArgument("dimension '" + names[i] +
                                     "' has no values");
  }
  DenseArray array(shape);
  // Each row's cell, one code column at a time: per dimension, each
  // code-dictionary entry's offset in the row-major array (one Lookup per
  // entry, not per row), added to the rows' positions.
  const size_t n = slab.values.size();
  std::vector<size_t> pos(n, 0);
  size_t stride = array.num_cells();
  for (size_t i = 0; i < ndims; ++i) {
    stride /= shape[i];
    std::vector<size_t> offset;
    for (const Value& v : obj.code_columns()[i].dictionary) {
      STATCUBE_ASSIGN_OR_RETURN(uint32_t code, dicts[i].Lookup(v));
      offset.push_back(code * stride);
    }
    const uint32_t* codes = obj.code_columns()[i].codes.data();
    for (size_t r = 0; r < n; ++r) pos[r] += offset[codes[r]];
  }
  // Scatter the slab in row order: the same adds in the same order as the
  // cells' own values, so the same bits.
  for (size_t r = 0; r < n; ++r) {
    double v = (slab.flags[r] & kSlabNumeric) != 0 ? slab.values[r] : 0.0;
    array.SetLinear(pos[r], array.GetLinear(pos[r]) + v);
  }
  return MolapCube(std::move(names), std::move(dicts), std::move(array));
}

Result<size_t> MolapCube::DimIndex(const std::string& name) const {
  for (size_t i = 0; i < dim_names_.size(); ++i)
    if (dim_names_[i] == name) return i;
  return Status::NotFound("cube has no dimension '" + name + "'");
}

Result<double> MolapCube::GetCell(const std::vector<Value>& coord_values) {
  if (coord_values.size() != dicts_.size())
    return Status::InvalidArgument("coordinate arity mismatch");
  std::vector<size_t> coord(dicts_.size());
  for (size_t i = 0; i < dicts_.size(); ++i) {
    auto code = dicts_[i].Lookup(coord_values[i]);
    if (!code.ok()) return 0.0;
    coord[i] = *code;
  }
  STATCUBE_ASSIGN_OR_RETURN(double v, array_.Get(coord));
  array_.counter().ChargeBlocks(1);
  return v;
}

Result<std::vector<DimRange>> MolapCube::FilterRanges(
    const std::vector<EqFilter>& filters) const {
  std::vector<DimRange> ranges(dicts_.size());
  for (size_t i = 0; i < dicts_.size(); ++i)
    ranges[i] = {0, dicts_[i].cardinality()};
  for (const auto& f : filters) {
    STATCUBE_ASSIGN_OR_RETURN(size_t d, DimIndex(f.column));
    DimRange& r = ranges[d];
    auto code = dicts_[d].Lookup(f.value);
    if (!code.ok()) {
      r.hi = r.lo;  // value never occurs
      continue;
    }
    r.Keep(*code);
  }
  return ranges;
}

Result<double> MolapCube::SumWhere(const std::vector<EqFilter>& filters) {
  STATCUBE_ASSIGN_OR_RETURN(std::vector<DimRange> ranges,
                            FilterRanges(filters));
  return array_.SumRange(ranges);
}

Result<double> MolapCube::SumDice(const std::vector<DiceDim>& dice) {
  // Per dimension: the list of selected codes (all codes if unmentioned).
  std::vector<std::vector<size_t>> codes(dicts_.size());
  for (size_t i = 0; i < dicts_.size(); ++i) {
    codes[i].resize(dicts_[i].cardinality());
    for (size_t c = 0; c < codes[i].size(); ++c) codes[i][c] = c;
  }
  for (const auto& d : dice) {
    STATCUBE_ASSIGN_OR_RETURN(size_t di, DimIndex(d.dim));
    codes[di].clear();
    for (const Value& v : d.values) {
      auto code = dicts_[di].Lookup(v);
      if (code.ok()) codes[di].push_back(*code);
    }
    if (codes[di].empty()) return 0.0;
  }
  // Enumerate combinations of the leading dims; the innermost selected
  // codes read via Get (charged per cell block).
  size_t ndims = dicts_.size();
  std::vector<size_t> pick(ndims, 0);
  std::vector<size_t> coord(ndims);
  double sum = 0.0;
  while (true) {
    for (size_t i = 0; i < ndims; ++i) coord[i] = codes[i][pick[i]];
    STATCUBE_ASSIGN_OR_RETURN(double v, array_.Get(coord));
    array_.counter().ChargeBlocks(1);
    sum += v;
    size_t d = ndims;
    bool done = true;
    while (d-- > 0) {
      if (++pick[d] < codes[d].size()) {
        done = false;
        break;
      }
      pick[d] = 0;
    }
    if (done) break;
  }
  return sum;
}

size_t MolapCube::ByteSize() const {
  size_t b = array_.ByteSize();
  for (const auto& d : dicts_) b += d.ByteSize();
  return b;
}

}  // namespace statcube
