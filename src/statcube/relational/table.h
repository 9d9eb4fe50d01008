// In-memory relation: a Schema plus a bag of rows. This is the logical
// container used by the relational operators; physical layouts with block
// accounting (row files, transposed files, bit-transposed files) live in
// src/statcube/storage.

#ifndef STATCUBE_RELATIONAL_TABLE_H_
#define STATCUBE_RELATIONAL_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/common/value.h"
#include "statcube/relational/schema.h"

namespace statcube {

/// "No row": a row index that names none (RollupFinalized's copy report,
/// JsonSplice).
inline constexpr size_t kNoRow = SIZE_MAX;

/// Rows whose bytes an earlier encoding already holds: that encoding
/// (Table::ToJson) and its row offsets, and for each row of the table
/// being encoded the earlier table's row it copies (equal by
/// representation, so its bytes are the same), or kNoRow.
struct JsonSplice {
  const std::string* json = nullptr;
  const std::vector<size_t>* row_offsets = nullptr;
  const std::vector<size_t>* rows = nullptr;
};

/// A named, schema-ed bag of rows.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Appends a row; the arity must match the schema.
  Status AppendRow(Row row);

  /// Unchecked append for hot loops (arity asserted in debug builds).
  void AppendRowUnchecked(Row row) { rows_.push_back(std::move(row)); }

  const Row& row(size_t i) const { return rows_[i]; }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>& mutable_rows() { return rows_; }

  /// Value at (row, column).
  const Value& at(size_t r, size_t c) const { return rows_[r][c]; }

  /// Extracts one column as a vector of values.
  Result<std::vector<Value>> Column(const std::string& name) const;

  /// Sorts rows in place by the given columns (Value total order).
  Status SortBy(const std::vector<std::string>& cols);

  /// Renders up to `max_rows` rows as an aligned ASCII table.
  std::string ToString(size_t max_rows = 20) const;

  /// Encodes every row as the JSON object
  /// `{"name":...,"columns":[...],"rows":N,"data":[[...],...]}`, each cell
  /// as obs::JsonWriter::Cell writes it (exact doubles; NaN and ±∞ as
  /// strings; NULL as null). The one table encoder: the /query envelope
  /// and the result cache's stored encodings both come from it.
  std::string ToJson() const { return ToJson(nullptr, nullptr); }

  /// ToJson, also writing where each row's bytes start in the result to
  /// `*row_offsets`: the offset of each row's `[`, then the end of the
  /// last row (num_rows() + 1 entries). With `splice`, each run of rows
  /// that copy consecutive rows of the earlier table is not encoded: its
  /// bytes, commas included, are copied from the earlier encoding, and the
  /// result is the same bytes.
  std::string ToJson(std::vector<size_t>* row_offsets,
                     const JsonSplice* splice = nullptr) const;

  /// Estimated in-memory size in bytes of the row data (used by the storage
  /// benchmarks for the "cross product is wasteful" observation of §4.3).
  size_t ByteSize() const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
};

}  // namespace statcube

#endif  // STATCUBE_RELATIONAL_TABLE_H_
