// Greedy view selection ([HUR96], paper §6.3): given space for k extra
// views, repeatedly materialize the view with the largest marginal benefit.
// [HUR96] proves the greedy benefit is at least (1 - 1/e) ≈ 63% of optimal;
// the tests check greedy == optimal on small lattices and the bound in
// general.

#ifndef STATCUBE_MATERIALIZE_GREEDY_H_
#define STATCUBE_MATERIALIZE_GREEDY_H_

#include <cstdint>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/materialize/lattice.h"

namespace statcube {

/// Outcome of a selection run.
struct ViewSelection {
  std::vector<uint32_t> views;  ///< chosen views, in pick order
  uint64_t benefit = 0;         ///< total cost reduction vs. top-only
  uint64_t total_cost = 0;      ///< TotalCost with the chosen set
  uint64_t space_rows = 0;      ///< extra rows stored by the chosen views
};

/// Greedily picks `k` views (beyond the always-materialized top view).
ViewSelection GreedySelect(const Lattice& lattice, size_t k);

/// Exhaustive optimum over all k-subsets (exponential; for tests/benches on
/// small lattices only).
Result<ViewSelection> OptimalSelect(const Lattice& lattice, size_t k);

/// Greedy under a row budget instead of a view count: keep picking the
/// highest benefit-per-row view that still fits.
ViewSelection GreedySelectWithBudget(const Lattice& lattice,
                                     uint64_t space_row_budget);

}  // namespace statcube

#endif  // STATCUBE_MATERIALIZE_GREEDY_H_
