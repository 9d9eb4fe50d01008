#include "statcube/relational/aggregate.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "statcube/common/cancellation.h"
#include "statcube/common/str_util.h"
#include "statcube/obs/query_profile.h"
#include "statcube/relational/cube_operator.h"

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

namespace {

// Folds `input`'s rows into `*states`, GroupByStates's loop: a key new to
// `*states` is inserted as its first row spells it.
Status AddStates(const Table& input, const std::vector<std::string>& group_cols,
                 const std::vector<AggSpec>& aggs, GroupedStates* states) {
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
  Row key(gidx.size());
  size_t rownum = 0;
  for (const Row& row : input.rows()) {
    if (stop != nullptr && (rownum++ & 1023) == 0)
      if (StopReason sr = stop->Check(); sr != StopReason::kNone)
        return StopStatus(sr, "groupby");
    for (size_t k = 0; k < gidx.size(); ++k) key[k] = row[gidx[k]];
    auto it = states->find(key);
    if (it == states->end())
      it = states->emplace(key, std::vector<AggState>(aggs.size())).first;
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (aidx[i] < 0) {
        ++it->second[i].rows;  // kCountAll without a column
      } else {
        it->second[i].Add(row[static_cast<size_t>(aidx[i])]);
      }
    }
  }
  return Status::OK();
}

// -1, 0 or 1 as row a's cells `ia` compare to row b's cells `ib`.
int CompareKeys(const Row& a, const std::vector<size_t>& ia, const Row& b,
                const std::vector<size_t>& ib) {
  for (size_t k = 0; k < ia.size(); ++k)
    if (int c = Value::Compare(a[ia[k]], b[ib[k]]); c != 0) return c;
  return 0;
}

bool IsNaN(const Value& v) {
  return v.type() == ValueType::kDouble && v.AsDouble() != v.AsDouble();
}

// The merge path of RollupFinalized: `srcs` onto their own grouping `by`.
// Repeatedly takes the least head key; the sources holding it combine, in
// source order, through AggState, as the hash path's one state per group
// does, and the row keeps the first such source's spelling, as its map
// does. The keys come out in the order StatesToTable sorts to. nullopt, to
// be redone by the hash path, once a key is not above the one before it —
// so some source is not strictly sorted — or is NaN, which compares equal
// to every number and so would join what a hash table keeps apart.
Result<std::optional<Table>> MergeSorted(const std::string& name,
                                         const std::vector<const Table*>& srcs,
                                         const std::vector<std::string>& by,
                                         const std::vector<AggSpec>& reagg) {
  // Per source: its key cells and its aggregate cells.
  std::vector<std::vector<size_t>> kidx(srcs.size()), aidx(srcs.size());
  for (size_t s = 0; s < srcs.size(); ++s) {
    STATCUBE_ASSIGN_OR_RETURN(kidx[s], srcs[s]->schema().IndexesOf(by));
    for (const AggSpec& a : reagg) {
      STATCUBE_ASSIGN_OR_RETURN(size_t col,
                                srcs[s]->schema().IndexOf(a.column));
      aidx[s].push_back(col);
    }
  }
  Table out(name, CubeOutputSchema(by, reagg));  // StatesToTable's
  size_t total = 0;
  for (const Table* src : srcs) total += src->num_rows();
  out.mutable_rows().reserve(total);
  const CancelContext* stop = CurrentCancelContext();
  std::vector<size_t> pos(srcs.size(), 0);
  std::vector<size_t> take;
  const Row* last = nullptr;  // the previous row's first source row
  size_t last_src = 0;
  for (size_t emitted = 0;; ++emitted) {
    if (stop != nullptr && (emitted & 1023) == 0)
      if (StopReason sr = stop->Check(); sr != StopReason::kNone)
        return StopStatus(sr, "groupby");
    take.clear();
    for (size_t s = 0; s < srcs.size(); ++s) {
      if (pos[s] == srcs[s]->num_rows()) continue;
      const int c = take.empty()
                        ? -1
                        : CompareKeys(srcs[s]->row(pos[s]), kidx[s],
                                      srcs[take[0]]->row(pos[take[0]]),
                                      kidx[take[0]]);
      if (c < 0) take.clear();
      if (c <= 0) take.push_back(s);
    }
    if (take.empty()) return std::optional<Table>(std::move(out));
    const Row& first = srcs[take[0]]->row(pos[take[0]]);
    if (last != nullptr &&
        CompareKeys(*last, kidx[last_src], first, kidx[take[0]]) >= 0)
      return std::optional<Table>();
    for (size_t s : take)
      for (size_t col : kidx[s])
        if (IsNaN(srcs[s]->row(pos[s])[col])) return std::optional<Table>();
    Row row;
    row.reserve(by.size() + reagg.size());
    for (size_t col : kidx[take[0]]) row.push_back(first[col]);
    for (size_t i = 0; i < reagg.size(); ++i) {
      AggState st;
      for (size_t s : take) st.Add(srcs[s]->row(pos[s])[aidx[s][i]]);
      row.push_back(st.Finalize(reagg[i].fn));
    }
    out.AppendRowUnchecked(std::move(row));
    last = &first;
    last_src = take[0];
    for (size_t s : take) ++pos[s];
  }
}

}  // namespace

Result<GroupedStates> GroupByStates(const Table& input,
                                    const std::vector<std::string>& group_cols,
                                    const std::vector<AggSpec>& aggs) {
  GroupedStates states;
  STATCUBE_RETURN_NOT_OK(AddStates(input, group_cols, aggs, &states));
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

Result<Table> RollupFinalized(const std::vector<const Table*>& srcs,
                              const std::vector<std::string>& src_by,
                              const std::vector<AggSpec>& aggs,
                              const std::vector<std::string>& by) {
  if (srcs.empty()) return Status::InvalidArgument("no table to roll up");
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

  std::string name = srcs[0]->name();
  const std::string suffix = "_by_" + Join(src_by, "_");
  if (name.size() >= suffix.size() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
    name.replace(name.size() - suffix.size(), suffix.size(),
                 "_by_" + Join(by, "_"));

  // Sources grouped by `by` itself merge in one linear pass; otherwise, or
  // when a source turns out not to be strictly sorted, one hash pass over
  // the sources in order.
  std::optional<Table> merged;
  if (by == src_by) {
    STATCUBE_ASSIGN_OR_RETURN(merged, MergeSorted(name, srcs, by, reagg));
  }
  Table out;
  if (merged) {
    out = *std::move(merged);
  } else {
    GroupedStates states;
    for (const Table* src : srcs)
      STATCUBE_RETURN_NOT_OK(AddStates(*src, by, reagg, &states));
    out = StatesToTable(name, by, reagg, states);
  }
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
