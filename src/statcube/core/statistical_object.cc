#include "statcube/core/statistical_object.h"

#include <algorithm>
#include <atomic>

#include "statcube/common/str_util.h"

namespace statcube {

uint64_t ObjectIdentity::Next() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void StatisticalObject::RebuildSchema() {
  Schema s;
  for (const auto& d : dims_) s.AddColumn(d.name(), ValueType::kString);
  for (const auto& m : measures_) s.AddColumn(m.name, ValueType::kDouble);
  Table t(name_, s);
  data_ = std::move(t);
  code_cols_.assign(dims_.size(), {});
  code_index_.assign(dims_.size(), {});
  registered_.assign(dims_.size(), {});
  slabs_.assign(measures_.size(), {});
}

Status StatisticalObject::AddDimension(Dimension dim) {
  if (data_.num_rows() > 0)
    return Status::InvalidArgument("cannot add dimensions after cells");
  for (const auto& d : dims_)
    if (d.name() == dim.name())
      return Status::AlreadyExists("dimension '" + dim.name() + "'");
  dims_.push_back(std::move(dim));
  identity_.Renew();
  RebuildSchema();
  return Status::OK();
}

Status StatisticalObject::AddMeasure(SummaryMeasure measure) {
  if (data_.num_rows() > 0)
    return Status::InvalidArgument("cannot add measures after cells");
  for (const auto& m : measures_)
    if (m.name == measure.name)
      return Status::AlreadyExists("measure '" + measure.name + "'");
  measures_.push_back(std::move(measure));
  identity_.Renew();
  RebuildSchema();
  return Status::OK();
}

Result<const Dimension*> StatisticalObject::DimensionNamed(
    const std::string& name) const {
  for (const auto& d : dims_)
    if (d.name() == name) return &d;
  return Status::NotFound("object '" + name_ + "' has no dimension '" + name +
                          "'");
}

Result<Dimension*> StatisticalObject::MutableDimensionNamed(
    const std::string& name) {
  for (auto& d : dims_)
    if (d.name() == name) {
      // Handing out a mutable hierarchy invalidates cached roll-ups, and
      // the handle may clear the registered values.
      identity_.Renew();
      std::vector<uint8_t>& reg = registered_[size_t(&d - dims_.data())];
      std::fill(reg.begin(), reg.end(), uint8_t{0});
      return &d;
    }
  return Status::NotFound("object '" + name_ + "' has no dimension '" + name +
                          "'");
}

Result<const SummaryMeasure*> StatisticalObject::MeasureNamed(
    const std::string& name) const {
  for (const auto& m : measures_)
    if (m.name == name) return &m;
  return Status::NotFound("object '" + name_ + "' has no measure '" + name +
                          "'");
}

Result<size_t> StatisticalObject::DimensionIndex(
    const std::string& name) const {
  for (size_t i = 0; i < dims_.size(); ++i)
    if (dims_[i].name() == name) return i;
  return Status::NotFound("object '" + name_ + "' has no dimension '" + name +
                          "'");
}

Status StatisticalObject::AddCell(const Row& dim_values,
                                  const Row& measure_values) {
  if (dim_values.size() != dims_.size())
    return Status::InvalidArgument("expected " + std::to_string(dims_.size()) +
                                   " dimension values, got " +
                                   std::to_string(dim_values.size()));
  if (measure_values.size() != measures_.size())
    return Status::InvalidArgument(
        "expected " + std::to_string(measures_.size()) +
        " measure values, got " + std::to_string(measure_values.size()));
  // Codes are dense per column and a column has at most one per row.
  if (data_.num_rows() >= size_t(UINT32_MAX))
    return Status::OutOfRange("object '" + name_ + "' is full");
  Row row;
  row.reserve(dim_values.size() + measure_values.size());
  for (size_t i = 0; i < dim_values.size(); ++i) {
    const Value& v = dim_values[i];
    CodeColumn& col = code_cols_[i];
    auto [it, added] =
        code_index_[i].try_emplace(v, uint32_t(col.dictionary.size()));
    if (added) {
      col.dictionary.push_back(v);
      registered_[i].push_back(0);
    }
    // Dimension::AddValue scans the registry. The registry only grows
    // between mutable handles, so once a representation has been
    // registered the call is a no-op: make it once per representation.
    if (registered_[i][it->second] == 0) {
      dims_[i].AddValue(v);
      registered_[i][it->second] = 1;
    }
    col.codes.push_back(it->second);
    row.push_back(v);
  }
  for (size_t j = 0; j < measure_values.size(); ++j) {
    MeasureSlab& slab = slabs_[j];
    double x = 0.0;
    slab.flags.push_back(
        EncodeSlabEntry(measure_values[j], &x, &slab.evidence));
    slab.values.push_back(x);
    row.push_back(measure_values[j]);
  }
  data_.AppendRowUnchecked(std::move(row));
  return Status::OK();
}

Result<StatisticalObject> StatisticalObject::FromTable(
    const Table& table, const std::vector<std::string>& dim_columns,
    const std::vector<SummaryMeasure>& measures,
    const std::vector<std::string>& temporal_columns) {
  StatisticalObject obj(table.name());
  for (const auto& dc : dim_columns) {
    STATCUBE_RETURN_NOT_OK(table.schema().IndexOf(dc).status());
    bool temporal = std::find(temporal_columns.begin(),
                              temporal_columns.end(),
                              dc) != temporal_columns.end();
    STATCUBE_RETURN_NOT_OK(obj.AddDimension(Dimension(
        dc, temporal ? DimensionKind::kTemporal : DimensionKind::kCategorical)));
  }
  for (const auto& m : measures) {
    STATCUBE_RETURN_NOT_OK(table.schema().IndexOf(m.name).status());
    STATCUBE_RETURN_NOT_OK(obj.AddMeasure(m));
  }
  STATCUBE_ASSIGN_OR_RETURN(std::vector<size_t> didx,
                            table.schema().IndexesOf(dim_columns));
  std::vector<std::string> mnames;
  for (const auto& m : measures) mnames.push_back(m.name);
  STATCUBE_ASSIGN_OR_RETURN(std::vector<size_t> midx,
                            table.schema().IndexesOf(mnames));
  for (const Row& r : table.rows()) {
    Row dv, mv;
    for (size_t i : didx) dv.push_back(r[i]);
    for (size_t i : midx) mv.push_back(r[i]);
    STATCUBE_RETURN_NOT_OK(obj.AddCell(dv, mv));
  }
  return obj;
}

std::string StatisticalObject::DescribeStructure() const {
  std::string out = "Statistical object: " + name_ + "\n";
  for (const auto& m : measures_) {
    out += "  Summary measure: " + m.name + " (" +
           std::string(AggFnName(m.default_fn)) + ", " +
           MeasureTypeName(m.type);
    if (!m.unit.empty()) out += ", unit=" + m.unit;
    out += ")\n";
  }
  std::vector<std::string> dnames;
  for (const auto& d : dims_) dnames.push_back(d.name());
  out += "  Dimensions: " + Join(dnames, ", ") + "\n";
  for (const auto& d : dims_) {
    for (const auto& h : d.hierarchies()) {
      // Render coarse --> fine like the paper: professional class -->
      // profession; year --> month --> day.
      std::vector<std::string> levels(h.levels().rbegin(), h.levels().rend());
      out += "  Classification hierarchy (" + d.name() + "): " +
             Join(levels, " --> ") + "\n";
    }
  }
  return out;
}

}  // namespace statcube
