/// \file
/// \brief A store of materialized group-by views that answers aggregate
/// queries from the cheapest materialized ancestor (paper §6.3): the
/// run-time counterpart of the lattice/greedy analysis.
///
/// Only distributive aggregates (sum, count, min, max) can be
/// re-aggregated from a view, which is what the store accepts. An answer
/// from a view and a refresh both roll up through RollupFinalized
/// (relational/aggregate.h), the roll-up the result cache derives with.

#ifndef STATCUBE_MATERIALIZE_VIEW_STORE_H_
#define STATCUBE_MATERIALIZE_VIEW_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/relational/aggregate.h"
#include "statcube/relational/table.h"

namespace statcube {

/// Materialized-view store over one base table.
class MaterializedCubeStore {
 public:
  /// `dims` are the cube dimensions (columns of `base`); `aggs` the
  /// distributive aggregates every view carries.
  static Result<MaterializedCubeStore> Create(Table base,
                                              std::vector<std::string> dims,
                                              std::vector<AggSpec> aggs);

  /// Materializes the view for `mask` (bit i = dims[i] grouped). Computed
  /// from the smallest already-materialized ancestor — materializing the
  /// whole lattice this way is itself the simultaneous-cube optimization.
  Status Materialize(uint32_t mask);

  /// Answers the group-by at `mask` from the smallest materialized ancestor
  /// (or the base table). Sets last_rows_scanned() to the ancestor's size —
  /// the [HUR96] linear cost actually paid.
  Result<Table> Query(uint32_t mask);

  /// Appends rows to the base table and *incrementally* folds them into
  /// every materialized view (distributive aggregates merge, so only the
  /// delta is aggregated — the §6.5 daily-append case without recomputing
  /// any view). Returns the rows re-aggregated (delta size × views), which
  /// the bench compares against full recomputation.
  Result<uint64_t> AppendAndRefresh(const std::vector<Row>& new_rows);

  /// Rows scanned by the last Query call.
  uint64_t last_rows_scanned() const { return last_rows_scanned_; }

  /// Extra rows stored by materialized views (excluding the base).
  uint64_t materialized_rows() const;

  /// Which views are materialized.
  std::vector<uint32_t> materialized_masks() const;

  /// Number of cube dimensions (mask width).
  size_t num_dims() const { return dims_.size(); }

 private:
  MaterializedCubeStore(Table base, std::vector<std::string> dims,
                        std::vector<AggSpec> aggs)
      : base_(std::move(base)), dims_(std::move(dims)), aggs_(std::move(aggs)) {}

  // Dimension-name list for a mask.
  std::vector<std::string> DimsOf(uint32_t mask) const;
  // Smallest materialized strict ancestor of mask, or -1 for the base.
  int64_t CheapestAncestor(uint32_t mask) const;

  Table base_;
  std::vector<std::string> dims_;
  std::vector<AggSpec> aggs_;
  std::map<uint32_t, Table> views_;
  uint64_t last_rows_scanned_ = 0;
};

}  // namespace statcube

#endif  // STATCUBE_MATERIALIZE_VIEW_STORE_H_
