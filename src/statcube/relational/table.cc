#include "statcube/relational/table.h"

#include <algorithm>
#include <string_view>

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

std::string Table::ToJson(std::vector<size_t>* row_offsets,
                          const JsonSplice* splice) const {
  obs::JsonWriter w;
  if (splice != nullptr)  // as many bytes per row as the earlier encoding
    w.Reserve(splice->json->size() / splice->row_offsets->size() *
              (rows_.size() + 2));
  w.BeginObject().Key("name").String(name_).Key("columns").BeginArray();
  for (const auto& column : schema_.columns()) w.String(column.name);
  w.EndArray().Key("rows").Uint(rows_.size()).Key("data").BeginArray();
  if (row_offsets != nullptr) {
    row_offsets->clear();
    row_offsets->reserve(rows_.size() + 1);
  }
  for (size_t r = 0; r < rows_.size();) {
    const size_t from = splice != nullptr ? (*splice->rows)[r] : kNoRow;
    if (from == kNoRow) {
      w.BeginArray();
      if (row_offsets != nullptr) row_offsets->push_back(w.size() - 1);
      for (const Value& v : rows_[r]) w.Cell(v);
      w.EndArray();
      ++r;
      continue;
    }
    // Rows [r, r + n) copy the earlier rows [from, from + n): one run of
    // bytes, from the first one's `[` to the last one's `]`.
    const std::vector<size_t>& old = *splice->row_offsets;
    size_t n = 1;
    while (r + n < rows_.size() && (*splice->rows)[r + n] == from + n) ++n;
    const size_t begin = old[from];
    const size_t end =
        from + n + 1 < old.size() ? old[from + n] - 1 : old.back();
    w.Raw(std::string_view(*splice->json).substr(begin, end - begin));
    if (row_offsets != nullptr) {
      const size_t at = w.size() - (end - begin);
      for (size_t k = 0; k < n; ++k)
        row_offsets->push_back(at + old[from + k] - begin);
    }
    r += n;
  }
  if (row_offsets != nullptr) row_offsets->push_back(w.size());
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
