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

// -1, 0 or 1 as row a's cells `ia` compare to row b's cells `ib`, in
// Value::Compare's order. Two strings, a dimension's usual cells, compare
// here without the call: the merge compares each row's key two or three
// times.
int CompareKeys(const Row& a, const std::vector<size_t>& ia, const Row& b,
                const std::vector<size_t>& ib) {
  for (size_t k = 0; k < ia.size(); ++k) {
    const Value& x = a[ia[k]];
    const Value& y = b[ib[k]];
    int c;
    if (x.type() == ValueType::kString && y.type() == ValueType::kString) {
      c = x.AsString().compare(y.AsString());
      c = (c > 0) - (c < 0);
    } else {
      c = Value::Compare(x, y);
    }
    if (c != 0) return c;
  }
  return 0;
}

bool IsNaN(const Value& v) {
  return v.type() == ValueType::kDouble && v.AsDouble() != v.AsDouble();
}

// A count re-adds as a sum, which finalizes as a double; GroupBy
// finalizes counts as int64.
void CountAsInt64(Value& v) {
  if (!v.is_null()) v = Value(int64_t(std::llround(v.AsDouble())));
}

// True when `v`, an aggregate cell that one source alone holds, comes out
// of its re-aggregation (AggState::Add, Finalize, CountAsInt64 for a
// `count`) as itself: NULL; in a count an int64 that a double holds
// exactly; elsewhere a double other than NaN (a NaN min or max finalizes
// to ±∞) and -0.0 (0.0 + -0.0 is 0.0). Such a cell is copied, not merged.
bool RefinalizesToItself(const Value& v, bool count) {
  constexpr int64_t kExact = int64_t(1) << 53;
  switch (v.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return count && v.AsInt64() >= -kExact && v.AsInt64() <= kExact;
    case ValueType::kDouble: {
      const double d = v.AsDouble();
      return !count && d == d && !(d == 0.0 && std::signbit(d));
    }
    default:
      return false;
  }
}

// The merge path of RollupFinalized: `srcs` onto their own grouping `by`.
// Repeatedly takes the least head key. A key one source alone holds keeps
// that source's row, copied whole, when the source is laid out as the
// output (its keys, then its aggregates, and nothing more) and each
// aggregate cell refinalizes to itself; otherwise the sources holding the
// key combine, in source order, through AggState, as the hash path's one
// state per group does, and the row keeps the first such source's
// spelling, as its map does. Either way a row has the hash path's bits,
// and the keys come out in the order StatesToTable sorts to. nullopt, to
// be redone by the hash path, once a key is not above the one before it —
// so some source is not strictly sorted — or is NaN, which compares equal
// to every number and so would join what a hash table keeps apart.
// `*copied`, when given, gets per output row the row of srcs[0] it
// copies, or kNoRow.
Result<std::optional<Table>> MergeSorted(const std::string& name,
                                         const std::vector<const Table*>& srcs,
                                         const std::vector<std::string>& by,
                                         const std::vector<AggSpec>& reagg,
                                         const std::vector<char>& counts,
                                         std::vector<size_t>* copied) {
  // Per source: its key cells, its aggregate cells and whether they are
  // its whole row in the output's order.
  std::vector<std::vector<size_t>> kidx(srcs.size()), aidx(srcs.size());
  std::vector<char> whole(srcs.size());
  for (size_t s = 0; s < srcs.size(); ++s) {
    STATCUBE_ASSIGN_OR_RETURN(kidx[s], srcs[s]->schema().IndexesOf(by));
    for (const AggSpec& a : reagg) {
      STATCUBE_ASSIGN_OR_RETURN(size_t col,
                                srcs[s]->schema().IndexOf(a.column));
      aidx[s].push_back(col);
    }
    std::vector<size_t> cols = kidx[s];
    cols.insert(cols.end(), aidx[s].begin(), aidx[s].end());
    whole[s] = srcs[s]->num_columns() == cols.size();
    for (size_t c = 0; c < cols.size(); ++c) whole[s] &= cols[c] == c;
  }
  Table out(name, CubeOutputSchema(by, reagg));  // StatesToTable's
  size_t total = 0;
  for (const Table* src : srcs) total += src->num_rows();
  out.mutable_rows().reserve(total);
  if (copied != nullptr) {
    copied->clear();
    copied->reserve(total);
  }
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
    bool copy = take.size() == 1 && whole[take[0]];
    for (size_t i = 0; copy && i < reagg.size(); ++i)
      copy = RefinalizesToItself(first[by.size() + i], counts[i]);
    if (copy) {
      out.AppendRowUnchecked(first);
    } else {
      Row row;
      row.reserve(by.size() + reagg.size());
      for (size_t col : kidx[take[0]]) row.push_back(first[col]);
      for (size_t i = 0; i < reagg.size(); ++i) {
        AggState st;
        for (size_t s : take) st.Add(srcs[s]->row(pos[s])[aidx[s][i]]);
        Value v = st.Finalize(reagg[i].fn);
        if (counts[i]) CountAsInt64(v);
        row.push_back(std::move(v));
      }
      out.AppendRowUnchecked(std::move(row));
    }
    if (copied != nullptr)
      copied->push_back(copy && take[0] == 0 ? pos[0] : kNoRow);
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
                              const std::vector<std::string>& by,
                              std::vector<size_t>* copied) {
  if (srcs.empty()) return Status::InvalidArgument("no table to roll up");
  std::vector<AggSpec> reagg;
  reagg.reserve(aggs.size());
  std::vector<char> counts;  // a count re-adds as a sum, finalizes as int64
  counts.reserve(aggs.size());
  for (const AggSpec& a : aggs) {
    if (!Distributive(a.fn))
      return Status::InvalidArgument(std::string("aggregate '") +
                                     AggFnName(a.fn) +
                                     "' is not distributive; its finalized "
                                     "values do not re-aggregate");
    const AggFn fn =
        a.fn == AggFn::kMin || a.fn == AggFn::kMax ? a.fn : AggFn::kSum;
    reagg.push_back({fn, a.EffectiveName(), a.EffectiveName()});
    counts.push_back(a.fn == AggFn::kCount || a.fn == AggFn::kCountAll);
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
  if (by == src_by) {
    STATCUBE_ASSIGN_OR_RETURN(
        std::optional<Table> merged,
        MergeSorted(name, srcs, by, reagg, counts, copied));
    if (merged) return *std::move(merged);
  }
  GroupedStates states;
  for (const Table* src : srcs)
    STATCUBE_RETURN_NOT_OK(AddStates(*src, by, reagg, &states));
  Table out = StatesToTable(name, by, reagg, states);
  for (size_t i = 0; i < aggs.size(); ++i)
    if (counts[i])
      for (Row& row : out.mutable_rows()) CountAsInt64(row[by.size() + i]);
  if (copied != nullptr) copied->assign(out.num_rows(), kNoRow);
  return out;
}

}  // namespace statcube
