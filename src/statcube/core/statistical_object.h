// The Statistical Object — the data type the paper's conclusion argues
// database systems should support natively. Following STORM [RS90] (§4.1),
// an object is: one or more summary measures, a summary function per
// measure, a set of dimensions (category attributes), and zero or more
// classification hierarchies per dimension. A "complex statistical object"
// (§2.2) is simply one with several measures over the same dimensions.
//
// The object carries its macro-data as a table with one column per
// dimension (leaf category values) and one column per measure — the
// canonical relational representation of Figure 10, but *with* the
// category/summary semantics the paper says the bare relational model
// lacks. The OLAP layer (statcube/olap) evaluates S-operators and
// slice/dice/roll-up against this object via pluggable physical backends.
//
// Beside the table, every cell is also kept in the transposed,
// dictionary-coded form of §6.1 (Figs 18-19), current on append: one code
// column per dimension and one double slab per measure. The query executor
// runs on these (DESIGN.md §14).

#ifndef STATCUBE_CORE_STATISTICAL_OBJECT_H_
#define STATCUBE_CORE_STATISTICAL_OBJECT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/common/value.h"
#include "statcube/core/dimension.h"
#include "statcube/core/measure.h"
#include "statcube/relational/aggregate.h"
#include "statcube/relational/table.h"

namespace statcube {

/// An identity drawn from a process-wide counter, never reused. A copy
/// draws a fresh one; a move hands the identity over and the moved-from
/// side draws a fresh one. So a holder keeps the defaulted special members
/// and still never shares an identity.
class ObjectIdentity {
 public:
  ObjectIdentity() : id_(Next()) {}
  ObjectIdentity(const ObjectIdentity&) : id_(Next()) {}
  ObjectIdentity(ObjectIdentity&& other) noexcept : id_(other.id_) {
    other.Renew();
  }
  ObjectIdentity& operator=(const ObjectIdentity&) {
    Renew();
    return *this;
  }
  ObjectIdentity& operator=(ObjectIdentity&& other) noexcept {
    id_ = other.id_;
    other.Renew();
    return *this;
  }

  uint64_t value() const { return id_; }
  /// Draws a fresh identity.
  void Renew() { id_ = Next(); }

 private:
  static uint64_t Next();
  uint64_t id_;
};

/// A multidimensional summary dataset with explicit semantics.
class StatisticalObject {
 public:
  StatisticalObject() = default;
  explicit StatisticalObject(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// The object's identity. AddCell only appends, so rows [0, n) never
  /// change under one identity, and (identity, row count) names one
  /// version of the data: the result cache's notion of "same data". A
  /// copy, a moved-from object and every mutation but AddCell
  /// (AddDimension, AddMeasure, MutableDimensionNamed) get a fresh one.
  uint64_t identity() const { return identity_.value(); }

  /// Adds a dimension (before any cells).
  Status AddDimension(Dimension dim);

  /// Adds a summary measure (before any cells).
  Status AddMeasure(SummaryMeasure measure);

  const std::vector<Dimension>& dimensions() const { return dims_; }
  const std::vector<SummaryMeasure>& measures() const { return measures_; }

  /// Looks up a dimension by name.
  Result<const Dimension*> DimensionNamed(const std::string& name) const;
  /// Mutable handle; conservatively renews the identity (hierarchy edits
  /// change roll-up results, so cached answers must stop matching), and
  /// since the handle can clear the registered values, the next AddCell
  /// registers each of this dimension's values again.
  Result<Dimension*> MutableDimensionNamed(const std::string& name);

  /// Looks up a measure by name.
  Result<const SummaryMeasure*> MeasureNamed(const std::string& name) const;

  /// Index of a dimension by name.
  Result<size_t> DimensionIndex(const std::string& name) const;

  /// Appends one cell: `dim_values` in dimension order, `measure_values` in
  /// measure order; the only writer of rows. Leaf category values are
  /// registered on their dimensions automatically, once per representation
  /// (Dimension::AddValue again would be a no-op).
  Status AddCell(const Row& dim_values, const Row& measure_values);

  /// The macro-data: dimension columns then measure columns.
  const Table& data() const { return data_; }

  /// One dimension's column, dictionary-coded: `dictionary` holds each
  /// distinct representation (type and bits, SameRepr) in first-occurrence
  /// order, and row r's value is `dictionary[codes[r]]`, exactly.
  struct CodeColumn {
    std::vector<Value> dictionary;
    std::vector<uint32_t> codes;
  };
  /// One code column per dimension, in dimension order.
  const std::vector<CodeColumn>& code_columns() const { return code_cols_; }

  /// One measure as the aggregation kernels read it: per row the number
  /// and the flag byte of EncodeSlabEntry, plus the evidence over all rows.
  struct MeasureSlab {
    std::vector<double> values;
    std::vector<uint8_t> flags;
    SlabEvidence evidence;
  };
  /// One slab per measure, in measure order.
  const std::vector<MeasureSlab>& measure_slabs() const { return slabs_; }

  /// Builds a statistical object directly from a relational table —
  /// `dim_columns` become dimensions (kCategorical unless listed in
  /// `temporal_columns`), `measures` name existing numeric columns.
  static Result<StatisticalObject> FromTable(
      const Table& table, const std::vector<std::string>& dim_columns,
      const std::vector<SummaryMeasure>& measures,
      const std::vector<std::string>& temporal_columns = {});

  /// Renders the conceptual structure in the style of the paper's §2
  /// summaries:
  ///   Summary measure: employment (sum, flow)
  ///   Dimensions: sex, year, profession
  ///   Classification hierarchy: professional class --> profession
  std::string DescribeStructure() const;

 private:
  void RebuildSchema();

  ObjectIdentity identity_;
  std::string name_;
  std::vector<Dimension> dims_;
  std::vector<SummaryMeasure> measures_;
  Table data_;
  std::vector<CodeColumn> code_cols_;  // per dimension
  // Per dimension: representation -> code, and whether the code's value
  // was handed to Dimension::AddValue since the last mutable handle.
  std::vector<std::unordered_map<Value, uint32_t, std::hash<Value>, SameRepr>>
      code_index_;
  std::vector<std::vector<uint8_t>> registered_;
  std::vector<MeasureSlab> slabs_;  // per measure
};

}  // namespace statcube

#endif  // STATCUBE_CORE_STATISTICAL_OBJECT_H_
