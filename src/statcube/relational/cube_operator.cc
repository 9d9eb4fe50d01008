#include "statcube/relational/cube_operator.h"

#include <algorithm>
#include <utility>

#include "statcube/common/str_util.h"

namespace statcube {

Schema CubeOutputSchema(const std::vector<std::string>& dims,
                        const std::vector<AggSpec>& aggs) {
  Schema s;
  for (const auto& d : dims) s.AddColumn(d, ValueType::kString);
  for (const auto& a : aggs) s.AddColumn(a.EffectiveName(), ValueType::kDouble);
  return s;
}

namespace {

// Sorts cube output deterministically by the dimension columns (total
// order: every row's dim/ALL pattern is unique).
void SortCubeRows(Table* t, size_t ndims) {
  std::sort(t->mutable_rows().begin(), t->mutable_rows().end(),
            [ndims](const Row& a, const Row& b) {
              for (size_t c = 0; c < ndims; ++c) {
                int cmp = Value::Compare(a[c], b[c]);
                if (cmp != 0) return cmp < 0;
              }
              return false;
            });
}

// Emits one grouping's states into `out`, padding absent dims with ALL.
// `mask` bit i set <=> dims[i] participates in the grouping; the grouped
// key holds the participating dims in dims order.
void EmitCubeGrouping(const GroupedStates& states, uint32_t mask, size_t ndims,
                      const std::vector<AggSpec>& aggs, Table* out) {
  // Every caller runs SortCubeRows over the assembled table.
  for (const auto& [key, st] : states) {
    Row row(ndims + aggs.size());
    size_t k = 0;
    for (size_t d = 0; d < ndims; ++d) {
      if (mask & (1u << d))
        row[d] = key[k++];
      else
        row[d] = Value::All();
    }
    for (size_t i = 0; i < aggs.size(); ++i)
      row[ndims + i] = st[i].Finalize(aggs[i].fn);
    out->AppendRowUnchecked(std::move(row));
  }
}

// Rolls `fine` (grouping `fine_mask`) up to `coarse_mask` by dropping the
// key positions of dims present in fine but not in coarse and merging
// states. Deterministic: iteration over `fine` and AggState::Merge order
// are pure functions of `fine`'s contents, insertion order included.
GroupedStates RollupGroupedStates(const GroupedStates& fine,
                                  uint32_t fine_mask, uint32_t coarse_mask,
                                  size_t ndims) {
  // Positions (within the fine key) to keep.
  std::vector<size_t> keep;
  size_t pos = 0;
  for (size_t d = 0; d < ndims; ++d) {
    if (fine_mask & (1u << d)) {
      if (coarse_mask & (1u << d)) keep.push_back(pos);
      ++pos;
    }
  }
  GroupedStates out;
  Row key(keep.size());
  for (const auto& [fkey, fst] : fine) {
    for (size_t i = 0; i < keep.size(); ++i) key[i] = fkey[keep[i]];
    auto it = out.find(key);
    if (it == out.end()) {
      out.emplace(key, fst);
    } else {
      for (size_t i = 0; i < fst.size(); ++i) it->second[i].Merge(fst[i]);
    }
  }
  return out;
}

}  // namespace

Result<Table> CubeByNaive(const Table& input,
                          const std::vector<std::string>& dims,
                          const std::vector<AggSpec>& aggs) {
  if (dims.size() > 20)
    return Status::InvalidArgument("cube over >20 dimensions refused");
  size_t ndims = dims.size();
  Table out(input.name() + "_cube", CubeOutputSchema(dims, aggs));
  for (uint32_t mask = 0; mask < (1u << ndims); ++mask) {
    std::vector<std::string> sub;
    for (size_t d = 0; d < ndims; ++d)
      if (mask & (1u << d)) sub.push_back(dims[d]);
    STATCUBE_ASSIGN_OR_RETURN(GroupedStates states,
                              GroupByStates(input, sub, aggs));
    EmitCubeGrouping(states, mask, ndims, aggs, &out);
  }
  SortCubeRows(&out, ndims);
  return out;
}

Result<Table> CubeFromFinest(const std::string& name, GroupedStates finest,
                             const std::vector<std::string>& dims,
                             const std::vector<AggSpec>& aggs,
                             const CancelContext* stop) {
  size_t ndims = dims.size();
  uint32_t full = ndims == 0 ? 0 : ((1u << ndims) - 1);
  Table out(name + "_cube", CubeOutputSchema(dims, aggs));
  std::vector<GroupedStates> computed(size_t(full) + 1);
  computed[full] = std::move(finest);
  EmitCubeGrouping(computed[full], full, ndims, aggs, &out);

  // Groupings by decreasing popcount, ascending mask within a level, so
  // every grouping rolls up from a computed parent with exactly one more
  // dimension: the lowest absent one. Rolling up from the parent with the
  // *smallest* state count would be cheaper; the lowest-bit choice keeps
  // the code simple and is within a constant factor.
  std::vector<std::vector<uint32_t>> levels(ndims);  // by popcount, asc mask
  for (uint32_t m = 0; m < full; ++m)
    levels[__builtin_popcount(m)].push_back(m);
  for (size_t level = ndims; level-- > 0;) {
    for (uint32_t m : levels[level]) {
      uint32_t missing = full & ~m;
      uint32_t parent = m | (missing & (~missing + 1));
      computed[m] = RollupGroupedStates(computed[parent], parent, m, ndims);
      EmitCubeGrouping(computed[m], m, ndims, aggs, &out);
    }
    if (stop != nullptr)
      if (StopReason r = stop->Check(); r != StopReason::kNone)
        return StopStatus(r, "cube");
  }
  SortCubeRows(&out, ndims);
  return out;
}

Result<Table> CubeBy(const Table& input, const std::vector<std::string>& dims,
                     const std::vector<AggSpec>& aggs) {
  if (dims.size() > 20)
    return Status::InvalidArgument("cube over >20 dimensions refused");
  // One scan of the input: the finest grouping.
  STATCUBE_ASSIGN_OR_RETURN(GroupedStates base,
                            GroupByStates(input, dims, aggs));
  return CubeFromFinest(input.name(), std::move(base), dims, aggs,
                        CurrentCancelContext());
}

Result<Table> RollupBy(const Table& input,
                       const std::vector<std::string>& dims,
                       const std::vector<AggSpec>& aggs) {
  // Groupings are uint32_t masks; a 32nd dimension would shift past them.
  if (dims.size() > 31)
    return Status::InvalidArgument("rollup over >31 dimensions refused");
  size_t ndims = dims.size();
  Table out(input.name() + "_rollup", CubeOutputSchema(dims, aggs));

  STATCUBE_ASSIGN_OR_RETURN(GroupedStates states,
                            GroupByStates(input, dims, aggs));
  uint32_t full = ndims == 0 ? 0 : ((1u << ndims) - 1);
  uint32_t mask = full;
  // Prefixes: (d1..dn), (d1..dn-1), ..., ().
  for (size_t len = ndims + 1; len-- > 0;) {
    uint32_t m = len == 0 ? 0 : ((1u << len) - 1);
    if (m != mask) {
      states = RollupGroupedStates(states, mask, m, ndims);
      mask = m;
    }
    EmitCubeGrouping(states, m, ndims, aggs, &out);
  }
  SortCubeRows(&out, ndims);
  return out;
}

uint64_t CubeUpperBound(const std::vector<uint64_t>& cardinalities) {
  uint64_t total = 1;
  for (uint64_t c : cardinalities) total *= (c + 1);
  return total;
}

}  // namespace statcube
