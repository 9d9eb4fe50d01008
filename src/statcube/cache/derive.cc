#include "statcube/cache/derive.h"

#include <algorithm>
#include <cmath>

#include "statcube/common/str_util.h"
#include "statcube/exec/parallel_kernels.h"
#include "statcube/relational/aggregate.h"

namespace statcube::cache {

namespace {

// Re-aggregation function applied to the *finalized* column: sums and both
// counts add up; min/max idempotently re-reduce.
AggFn ReaggFn(AggFn original) {
  switch (original) {
    case AggFn::kSum:
    case AggFn::kCount:
    case AggFn::kCountAll:
      return AggFn::kSum;
    case AggFn::kMin:
      return AggFn::kMin;
    case AggFn::kMax:
      return AggFn::kMax;
    default:
      return original;  // unreachable: QueryKey::derivable gates these out
  }
}

bool IsCount(AggFn fn) {
  return fn == AggFn::kCount || fn == AggFn::kCountAll;
}

// The direct paths name their output from the source table and the group
// list (`<source>_by_<dims>`, see relational GroupBy and the ROLAP backend);
// MOLAP uses the fixed name "groupby_molap". Rebase the cached name onto the
// requested group list so a derived table is indistinguishable from a
// directly computed one.
std::string DerivedName(const std::string& cached_name,
                        const std::vector<std::string>& cached_by,
                        const std::vector<std::string>& want_by) {
  std::string suffix = "_by_" + Join(cached_by, "_");
  if (cached_name.size() >= suffix.size() &&
      cached_name.compare(cached_name.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
    return cached_name.substr(0, cached_name.size() - suffix.size()) +
           "_by_" + Join(want_by, "_");
  }
  return cached_name;
}

}  // namespace

Result<Table> RollupDerived(const DerivedSource& src, const QueryKey& key,
                            int threads) {
  std::vector<AggSpec> respecs;
  respecs.reserve(src.agg_fns.size());
  for (size_t i = 0; i < src.agg_fns.size(); ++i)
    respecs.push_back(
        {ReaggFn(src.agg_fns[i]), src.agg_cols[i], src.agg_cols[i]});

  GroupedStates states;
  if (threads != 1) {
    exec::ExecOptions xo;
    xo.threads = threads;
    STATCUBE_ASSIGN_OR_RETURN(
        states, exec::ParallelGroupByStates(*src.result, key.by, respecs, xo));
  } else {
    STATCUBE_ASSIGN_OR_RETURN(
        states, GroupByStates(*src.result, key.by, respecs));
  }

  // StatesToTable with one twist: counts re-finalize to int64 (Finalize of
  // the kSum re-aggregate would say double, and a derived COUNT must render
  // exactly like a direct one).
  Schema schema;
  for (const auto& g : key.by) schema.AddColumn(g, ValueType::kString);
  for (const auto& r : respecs)
    schema.AddColumn(r.output_name, ValueType::kDouble);
  Table out(DerivedName(src.result->name(), src.by, key.by), schema);
  for (const auto& [group, st] : states) {
    Row row = group;
    for (size_t i = 0; i < respecs.size(); ++i) {
      if (IsCount(src.agg_fns[i])) {
        row.push_back(Value(int64_t(std::llround(st[i].sum))));
      } else {
        row.push_back(st[i].Finalize(respecs[i].fn));
      }
    }
    out.AppendRowUnchecked(std::move(row));
  }
  std::sort(out.mutable_rows().begin(), out.mutable_rows().end(),
            [n = key.by.size()](const Row& a, const Row& b) {
              for (size_t c = 0; c < n; ++c) {
                int cmp = Value::Compare(a[c], b[c]);
                if (cmp != 0) return cmp < 0;
              }
              return false;
            });
  return out;
}

}  // namespace statcube::cache
