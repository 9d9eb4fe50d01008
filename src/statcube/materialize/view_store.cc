#include "statcube/materialize/view_store.h"

#include "statcube/materialize/lattice.h"
#include "statcube/obs/query_profile.h"

namespace statcube {

Result<MaterializedCubeStore> MaterializedCubeStore::Create(
    Table base, std::vector<std::string> dims, std::vector<AggSpec> aggs) {
  STATCUBE_RETURN_NOT_OK(base.schema().IndexesOf(dims).status());
  if (dims.size() > 16)
    return Status::InvalidArgument("cube store over >16 dimensions refused");
  for (const auto& a : aggs)
    if (!Distributive(a.fn))
      return Status::InvalidArgument(
          std::string("aggregate '") + AggFnName(a.fn) +
          "' is not distributive; views could not be re-aggregated");
  return MaterializedCubeStore(std::move(base), std::move(dims),
                               std::move(aggs));
}

std::vector<std::string> MaterializedCubeStore::DimsOf(uint32_t mask) const {
  std::vector<std::string> out;
  for (size_t d = 0; d < dims_.size(); ++d)
    if (mask & (1u << d)) out.push_back(dims_[d]);
  return out;
}

int64_t MaterializedCubeStore::CheapestAncestor(uint32_t mask) const {
  int64_t best = -1;
  uint64_t best_size = base_.num_rows();
  for (const auto& [m, view] : views_) {
    if (Lattice::DerivableFrom(mask, m) && view.num_rows() <= best_size) {
      best = m;
      best_size = view.num_rows();
    }
  }
  return best;
}

Status MaterializedCubeStore::Materialize(uint32_t mask) {
  obs::Span span("viewstore.materialize");
  if (mask >= (uint32_t(1) << dims_.size()))
    return Status::OutOfRange("view mask");
  if (views_.count(mask)) return Status::OK();
  int64_t anc = CheapestAncestor(mask);
  Table view;
  if (anc < 0) {
    STATCUBE_ASSIGN_OR_RETURN(view, GroupBy(base_, DimsOf(mask), aggs_));
  } else {
    STATCUBE_ASSIGN_OR_RETURN(
        view, RollupFinalized({&views_.at(uint32_t(anc))},
                              DimsOf(uint32_t(anc)), aggs_, DimsOf(mask)));
  }
  views_.emplace(mask, std::move(view));
  return Status::OK();
}

Result<Table> MaterializedCubeStore::Query(uint32_t mask) {
  obs::Span span("viewstore.query");
  if (mask >= (uint32_t(1) << dims_.size()))
    return Status::OutOfRange("view mask");
  auto it = views_.find(mask);
  if (it != views_.end()) {
    last_rows_scanned_ = it->second.num_rows();
    obs::RecordViewStoreQuery(mask, /*hit=*/true, int64_t(mask),
                              last_rows_scanned_);
    return it->second;
  }
  int64_t anc = CheapestAncestor(mask);
  if (anc < 0) {
    last_rows_scanned_ = base_.num_rows();
    obs::RecordViewStoreQuery(mask, /*hit=*/false, /*ancestor_mask=*/-1,
                              last_rows_scanned_);
    return GroupBy(base_, DimsOf(mask), aggs_);
  }
  last_rows_scanned_ = views_.at(uint32_t(anc)).num_rows();
  obs::RecordViewStoreQuery(mask, /*hit=*/false, anc, last_rows_scanned_);
  return RollupFinalized({&views_.at(uint32_t(anc))}, DimsOf(uint32_t(anc)),
                         aggs_, DimsOf(mask));
}

Result<uint64_t> MaterializedCubeStore::AppendAndRefresh(
    const std::vector<Row>& new_rows) {
  // Stage the delta as a table and validate arity up front.
  Table delta("delta", base_.schema());
  for (const Row& r : new_rows) STATCUBE_RETURN_NOT_OK(delta.AppendRow(r));

  uint64_t reaggregated = 0;
  for (auto& [mask, view] : views_) {
    // Only the delta is aggregated at the view's grouping; the roll-up
    // onto the same grouping merges it into the view in one linear pass.
    const std::vector<std::string> dims = DimsOf(mask);
    STATCUBE_ASSIGN_OR_RETURN(Table delta_view, GroupBy(delta, dims, aggs_));
    STATCUBE_ASSIGN_OR_RETURN(
        view, RollupFinalized({&view, &delta_view}, dims, aggs_, dims));
    reaggregated += delta.num_rows();
  }
  // Finally append to the base.
  for (const Row& r : new_rows) base_.AppendRowUnchecked(r);
  obs::RecordViewStoreRefresh(reaggregated);
  return reaggregated;
}

uint64_t MaterializedCubeStore::materialized_rows() const {
  uint64_t n = 0;
  for (const auto& [m, view] : views_) n += view.num_rows();
  return n;
}

std::vector<uint32_t> MaterializedCubeStore::materialized_masks() const {
  std::vector<uint32_t> out;
  for (const auto& [m, view] : views_) out.push_back(m);
  return out;
}

}  // namespace statcube
