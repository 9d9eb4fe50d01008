#include "statcube/materialize/view_store.h"

#include "statcube/materialize/lattice.h"
#include "statcube/obs/query_profile.h"

namespace statcube {

Result<MaterializedCubeStore> MaterializedCubeStore::Create(
    Table base, std::vector<std::string> dims, std::vector<AggSpec> aggs) {
  STATCUBE_RETURN_NOT_OK(base.schema().IndexesOf(dims).status());
  if (dims.size() > 16)
    return Status::InvalidArgument("cube store over >16 dimensions refused");
  for (const auto& a : aggs) {
    switch (a.fn) {
      case AggFn::kSum:
      case AggFn::kCount:
      case AggFn::kCountAll:
      case AggFn::kMin:
      case AggFn::kMax:
        break;
      default:
        return Status::InvalidArgument(
            std::string("aggregate '") + AggFnName(a.fn) +
            "' is not distributive; views could not be re-aggregated");
    }
  }
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

Result<Table> MaterializedCubeStore::AggregateFrom(const Table& src,
                                                   uint32_t src_mask,
                                                   uint32_t mask) const {
  (void)src_mask;
  std::vector<AggSpec> combine;
  for (const auto& a : aggs_) {
    AggFn fn = a.fn;
    // Counts combine by summation; min/max by themselves; sums by sums.
    if (fn == AggFn::kCount || fn == AggFn::kCountAll) fn = AggFn::kSum;
    combine.push_back({fn, a.EffectiveName(), a.EffectiveName()});
  }
  return GroupBy(src, DimsOf(mask), combine);
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
        view, AggregateFrom(views_.at(uint32_t(anc)), uint32_t(anc), mask));
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
  return AggregateFrom(views_.at(uint32_t(anc)), uint32_t(anc), mask);
}

Result<uint64_t> MaterializedCubeStore::AppendAndRefresh(
    const std::vector<Row>& new_rows) {
  // Stage the delta as a table and validate arity up front.
  Table delta("delta", base_.schema());
  for (const Row& r : new_rows) STATCUBE_RETURN_NOT_OK(delta.AppendRow(r));

  uint64_t reaggregated = 0;
  for (auto& [mask, view] : views_) {
    // Aggregate the delta at this view's grouping...
    STATCUBE_ASSIGN_OR_RETURN(Table delta_view,
                              GroupBy(delta, DimsOf(mask), aggs_));
    reaggregated += delta.num_rows();
    // ... and merge into the stored view: distributive aggregates combine
    // group-wise (count -> sum, min/max -> min/max, sum -> sum).
    size_t ngroup = DimsOf(mask).size();
    // Index existing view rows by group key.
    std::unordered_map<Row, size_t, RowHash, RowEq> index;
    for (size_t i = 0; i < view.num_rows(); ++i) {
      Row key(view.row(i).begin(), view.row(i).begin() + long(ngroup));
      index.emplace(std::move(key), i);
    }
    for (const Row& dr : delta_view.rows()) {
      Row key(dr.begin(), dr.begin() + long(ngroup));
      auto it = index.find(key);
      if (it == index.end()) {
        view.AppendRowUnchecked(dr);
        continue;
      }
      Row& target = view.mutable_rows()[it->second];
      for (size_t a = 0; a < aggs_.size(); ++a) {
        size_t col = ngroup + a;
        const Value& add = dr[col];
        if (add.is_null()) continue;
        if (target[col].is_null()) {
          target[col] = add;
          continue;
        }
        switch (aggs_[a].fn) {
          case AggFn::kSum:
          case AggFn::kCount:
          case AggFn::kCountAll:
            target[col] = Value(target[col].AsDouble() + add.AsDouble());
            break;
          case AggFn::kMin:
            if (add.AsDouble() < target[col].AsDouble()) target[col] = add;
            break;
          case AggFn::kMax:
            if (add.AsDouble() > target[col].AsDouble()) target[col] = add;
            break;
          default:
            return Status::Internal("non-distributive aggregate in store");
        }
      }
    }
    // Keep deterministic order for comparisons.
    STATCUBE_RETURN_NOT_OK(view.SortBy(DimsOf(mask)));
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
