#include "statcube/relational/aggregate.h"

#include <algorithm>
#include <cmath>

#include "statcube/common/cancellation.h"
#include "statcube/common/str_util.h"
#include "statcube/obs/query_profile.h"

namespace statcube {

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount:
      return "count";
    case AggFn::kCountAll:
      return "count_all";
    case AggFn::kSum:
      return "sum";
    case AggFn::kAvg:
      return "avg";
    case AggFn::kMin:
      return "min";
    case AggFn::kMax:
      return "max";
    case AggFn::kVariance:
      return "var";
    case AggFn::kStdDev:
      return "stddev";
  }
  return "?";
}

bool Distributive(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
    case AggFn::kCount:
    case AggFn::kCountAll:
    case AggFn::kMin:
    case AggFn::kMax:
      return true;
    case AggFn::kAvg:
    case AggFn::kVariance:
    case AggFn::kStdDev:
      return false;
  }
  return false;
}

std::string AggSpec::EffectiveName() const {
  if (!output_name.empty()) return output_name;
  std::string n = AggFnName(fn);
  if (!column.empty()) n += "_" + column;
  return n;
}

Value AggState::Finalize(AggFn fn) const {
  switch (fn) {
    case AggFn::kCount:
      return Value(count);
    case AggFn::kCountAll:
      return Value(rows);
    case AggFn::kSum:
      return count == 0 ? Value::Null() : Value(sum);
    case AggFn::kAvg:
      return count == 0 ? Value::Null() : Value(sum / double(count));
    case AggFn::kMin:
      return count == 0 ? Value::Null() : Value(min);
    case AggFn::kMax:
      return count == 0 ? Value::Null() : Value(max);
    case AggFn::kVariance: {
      if (count == 0) return Value::Null();
      double mean = sum / double(count);
      double var = sum_sq / double(count) - mean * mean;
      return Value(var < 0 ? 0.0 : var);  // clamp FP noise
    }
    case AggFn::kStdDev: {
      if (count == 0) return Value::Null();
      double mean = sum / double(count);
      double var = sum_sq / double(count) - mean * mean;
      return Value(std::sqrt(var < 0 ? 0.0 : var));
    }
  }
  return Value::Null();
}

Result<GroupedStates> GroupByStates(const Table& input,
                                    const std::vector<std::string>& group_cols,
                                    const std::vector<AggSpec>& aggs) {
  STATCUBE_ASSIGN_OR_RETURN(std::vector<size_t> gidx,
                            input.schema().IndexesOf(group_cols));
  // Resolve aggregate input columns; kCountAll may omit the column.
  std::vector<int64_t> aidx(aggs.size(), -1);
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].fn == AggFn::kCountAll && aggs[i].column.empty()) continue;
    STATCUBE_ASSIGN_OR_RETURN(size_t idx,
                              input.schema().IndexOf(aggs[i].column));
    aidx[i] = static_cast<int64_t>(idx);
  }

  // Serial loops have no ParallelForOptions to carry a stop context, so the
  // query-level one arrives through the thread-local CancelScope slot
  // (installed by QueryProfiled). Checked every 1024 rows — cheap against
  // the per-row hash work, fine-grained enough that a cancelled or expired
  // query stops within a morsel-sized batch.
  const CancelContext* stop = CurrentCancelContext();
  GroupedStates states;
  Row key(gidx.size());
  size_t rownum = 0;
  for (const Row& row : input.rows()) {
    if (stop != nullptr && (rownum++ & 1023) == 0)
      if (StopReason sr = stop->Check(); sr != StopReason::kNone)
        return StopStatus(sr, "groupby");
    for (size_t k = 0; k < gidx.size(); ++k) key[k] = row[gidx[k]];
    auto it = states.find(key);
    if (it == states.end())
      it = states.emplace(key, std::vector<AggState>(aggs.size())).first;
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (aidx[i] < 0) {
        ++it->second[i].rows;  // kCountAll without a column
      } else {
        it->second[i].Add(row[static_cast<size_t>(aidx[i])]);
      }
    }
  }
  return states;
}

Table StatesToTable(const std::string& name,
                    const std::vector<std::string>& group_cols,
                    const std::vector<AggSpec>& aggs,
                    const GroupedStates& states) {
  Schema out_schema;
  for (const auto& g : group_cols) out_schema.AddColumn(g, ValueType::kString);
  for (const auto& a : aggs)
    out_schema.AddColumn(a.EffectiveName(), ValueType::kDouble);

  Table out(name, out_schema);
  for (const auto& [key, st] : states) {
    Row row;
    row.reserve(key.size() + aggs.size());
    row.insert(row.end(), key.begin(), key.end());
    for (size_t i = 0; i < aggs.size(); ++i)
      row.push_back(st[i].Finalize(aggs[i].fn));
    out.AppendRowUnchecked(std::move(row));
  }
  // Deterministic order.
  std::sort(out.mutable_rows().begin(), out.mutable_rows().end(),
            [n = group_cols.size()](const Row& a, const Row& b) {
              for (size_t c = 0; c < n; ++c) {
                int cmp = Value::Compare(a[c], b[c]);
                if (cmp != 0) return cmp < 0;
              }
              return false;
            });
  return out;
}

Result<Table> GroupBy(const Table& input,
                      const std::vector<std::string>& group_cols,
                      const std::vector<AggSpec>& aggs) {
  obs::Span span("op.groupby");
  STATCUBE_ASSIGN_OR_RETURN(GroupedStates states,
                            GroupByStates(input, group_cols, aggs));
  Table out = StatesToTable(input.name() + "_by_" + Join(group_cols, "_"),
                            group_cols, aggs, states);
  obs::RecordOperator("groupby", input.num_rows(), out.num_rows());
  return out;
}

Result<Table> RollupFinalized(const Table& src,
                              const std::vector<std::string>& src_by,
                              const std::vector<AggSpec>& aggs,
                              const std::vector<std::string>& by) {
  std::vector<AggSpec> reagg;
  reagg.reserve(aggs.size());
  for (const AggSpec& a : aggs) {
    if (!Distributive(a.fn))
      return Status::InvalidArgument(std::string("aggregate '") +
                                     AggFnName(a.fn) +
                                     "' is not distributive; its finalized "
                                     "values do not re-aggregate");
    const AggFn fn =
        a.fn == AggFn::kMin || a.fn == AggFn::kMax ? a.fn : AggFn::kSum;
    reagg.push_back({fn, a.EffectiveName(), a.EffectiveName()});
  }
  STATCUBE_ASSIGN_OR_RETURN(GroupedStates states,
                            GroupByStates(src, by, reagg));

  std::string name = src.name();
  const std::string suffix = "_by_" + Join(src_by, "_");
  if (name.size() >= suffix.size() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
    name.replace(name.size() - suffix.size(), suffix.size(),
                 "_by_" + Join(by, "_"));
  Table out = StatesToTable(name, by, reagg, states);
  // A count's sum finalized as a double; GroupBy finalizes counts as int64.
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].fn != AggFn::kCount && aggs[i].fn != AggFn::kCountAll)
      continue;
    for (Row& row : out.mutable_rows()) {
      Value& v = row[by.size() + i];
      if (!v.is_null()) v = Value(int64_t(std::llround(v.AsDouble())));
    }
  }
  return out;
}

}  // namespace statcube
