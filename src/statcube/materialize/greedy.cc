#include "statcube/materialize/greedy.h"

namespace statcube {

namespace {

ViewSelection Finish(const Lattice& lattice, std::vector<uint32_t> views) {
  ViewSelection out;
  out.benefit = lattice.Benefit(views);
  out.total_cost = lattice.TotalCost(views);
  for (uint32_t v : views) out.space_rows += lattice.size(v);
  out.views = std::move(views);
  return out;
}

}  // namespace

ViewSelection GreedySelect(const Lattice& lattice, size_t k) {
  std::vector<uint32_t> chosen;
  uint64_t current = lattice.TotalCost({});
  for (size_t pick = 0; pick < k; ++pick) {
    int best_view = -1;
    uint64_t best_cost = current;
    for (uint32_t v = 0; v < lattice.num_views(); ++v) {
      if (v == lattice.top()) continue;
      bool already = false;
      for (uint32_t c : chosen) already |= (c == v);
      if (already) continue;
      std::vector<uint32_t> trial = chosen;
      trial.push_back(v);
      uint64_t cost = lattice.TotalCost(trial);
      if (cost < best_cost) {
        best_cost = cost;
        best_view = static_cast<int>(v);
      }
    }
    if (best_view < 0) break;  // no view helps any more
    chosen.push_back(static_cast<uint32_t>(best_view));
    current = best_cost;
  }
  return Finish(lattice, std::move(chosen));
}

Result<ViewSelection> OptimalSelect(const Lattice& lattice, size_t k) {
  size_t nviews = lattice.num_views();
  if (nviews > 20)
    return Status::InvalidArgument(
        "exhaustive selection over >20 views refused");
  // Enumerate k-subsets of the non-top views.
  std::vector<uint32_t> candidates;
  for (uint32_t v = 0; v < nviews; ++v)
    if (v != lattice.top()) candidates.push_back(v);
  if (k > candidates.size()) k = candidates.size();

  std::vector<uint32_t> best;
  uint64_t best_cost = lattice.TotalCost({});
  std::vector<uint32_t> current;
  // Recursive combination enumeration.
  struct Rec {
    const Lattice& lattice;
    const std::vector<uint32_t>& candidates;
    size_t k;
    std::vector<uint32_t>& current;
    std::vector<uint32_t>& best;
    uint64_t& best_cost;
    void Run(size_t start) {
      if (current.size() == k) {
        uint64_t cost = lattice.TotalCost(current);
        if (cost < best_cost) {
          best_cost = cost;
          best = current;
        }
        return;
      }
      for (size_t i = start; i < candidates.size(); ++i) {
        current.push_back(candidates[i]);
        Run(i + 1);
        current.pop_back();
      }
    }
  };
  Rec rec{lattice, candidates, k, current, best, best_cost};
  rec.Run(0);
  return Finish(lattice, std::move(best));
}

ViewSelection GreedySelectWithBudget(const Lattice& lattice,
                                     uint64_t space_row_budget) {
  std::vector<uint32_t> chosen;
  uint64_t used = 0;
  uint64_t current = lattice.TotalCost({});
  while (true) {
    int best_view = -1;
    double best_rate = 0.0;
    uint64_t best_cost = current;
    for (uint32_t v = 0; v < lattice.num_views(); ++v) {
      if (v == lattice.top()) continue;
      bool already = false;
      for (uint32_t c : chosen) already |= (c == v);
      if (already) continue;
      uint64_t sz = lattice.size(v);
      if (sz == 0 || used + sz > space_row_budget) continue;
      std::vector<uint32_t> trial = chosen;
      trial.push_back(v);
      uint64_t cost = lattice.TotalCost(trial);
      double rate = double(current - cost) / double(sz);
      if (rate > best_rate) {
        best_rate = rate;
        best_view = static_cast<int>(v);
        best_cost = cost;
      }
    }
    if (best_view < 0) break;
    chosen.push_back(static_cast<uint32_t>(best_view));
    used += lattice.size(static_cast<uint32_t>(best_view));
    current = best_cost;
  }
  return Finish(lattice, std::move(chosen));
}

}  // namespace statcube
