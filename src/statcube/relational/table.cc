#include "statcube/relational/table.h"

#include <algorithm>

#include "statcube/common/str_util.h"
#include "statcube/obs/json.h"

namespace statcube {

Status Table::AppendRow(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()) + " for table '" + name_ + "'");
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Result<std::vector<Value>> Table::Column(const std::string& name) const {
  STATCUBE_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  std::vector<Value> out;
  out.reserve(rows_.size());
  for (const Row& r : rows_) out.push_back(r[idx]);
  return out;
}

Status Table::SortBy(const std::vector<std::string>& cols) {
  STATCUBE_ASSIGN_OR_RETURN(std::vector<size_t> idx, schema_.IndexesOf(cols));
  std::stable_sort(rows_.begin(), rows_.end(),
                   [&idx](const Row& a, const Row& b) {
                     for (size_t c : idx) {
                       int cmp = Value::Compare(a[c], b[c]);
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
  return Status::OK();
}

std::string Table::ToString(size_t max_rows) const {
  size_t ncols = schema_.num_columns();
  std::vector<size_t> widths(ncols);
  for (size_t c = 0; c < ncols; ++c) widths[c] = schema_.column(c).name.size();
  size_t shown = std::min(max_rows, rows_.size());
  for (size_t r = 0; r < shown; ++r)
    for (size_t c = 0; c < ncols; ++c)
      widths[c] = std::max(widths[c], rows_[r][c].ToString().size());

  std::string out = name_.empty() ? "" : (name_ + " (" +
      std::to_string(rows_.size()) + " rows)\n");
  for (size_t c = 0; c < ncols; ++c) {
    out += PadRight(schema_.column(c).name, widths[c]);
    out += (c + 1 < ncols) ? " | " : "\n";
  }
  for (size_t c = 0; c < ncols; ++c) {
    out += std::string(widths[c], '-');
    out += (c + 1 < ncols) ? "-+-" : "\n";
  }
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < ncols; ++c) {
      out += PadRight(rows_[r][c].ToString(), widths[c]);
      out += (c + 1 < ncols) ? " | " : "\n";
    }
  }
  if (shown < rows_.size()) {
    out += "... (" + std::to_string(rows_.size() - shown) + " more rows)\n";
  }
  return out;
}

std::string Table::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject().Key("name").String(name_).Key("columns").BeginArray();
  for (const auto& column : schema_.columns()) w.String(column.name);
  w.EndArray().Key("rows").Uint(rows_.size()).Key("data").BeginArray();
  for (const Row& row : rows_) {
    w.BeginArray();
    for (const Value& v : row) w.Cell(v);
    w.EndArray();
  }
  w.EndArray().EndObject();
  return w.Take();
}

size_t Table::ByteSize() const {
  size_t b = 0;
  for (const Row& r : rows_) {
    for (const Value& v : r) {
      b += sizeof(Value);
      if (v.type() == ValueType::kString) b += v.AsString().size();
    }
  }
  return b;
}

}  // namespace statcube
