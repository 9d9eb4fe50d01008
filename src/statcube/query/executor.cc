// Query execution: the relational executor, which plans once and then runs
// on the object's code columns (or, for the shapes codes cannot group
// exactly, on its rows), the row-at-a-time reference behind Query(), the
// cube-backend route and QueryProfiled. Not in parser.cc: there, GCC 12
// inlines less into ParseQuery and BM_ParseOnly slows by a fifth (best of
// 18 runs on a 4-vCPU Xeon: 1150-1185 ns, against 913-984 ns with this file
// apart).

#include <algorithm>
#include <cctype>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "statcube/cache/derive.h"
#include "statcube/cache/result_cache.h"
#include "statcube/common/cancellation.h"
#include "statcube/common/str_util.h"
#include "statcube/exec/parallel_kernels.h"
#include "statcube/obs/flight_recorder.h"
#include "statcube/obs/query_registry.h"
#include "statcube/query/cache_key.h"
#include "statcube/query/parser.h"
#include "statcube/relational/cube_operator.h"

namespace statcube {
namespace {

using ReprIndex =
    std::unordered_map<Value, uint32_t, std::hash<Value>, SameRepr>;

// A referenced hierarchy level: its cell is the ancestor at `level` of the
// row's leaf. The row pass finds it once per distinct leaf, the first time
// it meets it (`memo`). For the coded pass the plan fills `level_of` once
// per entry of the leaf's dictionary, and `dictionary` holds the distinct
// ancestors by representation.
struct LevelRollup {
  size_t leaf_col;
  const ClassificationHierarchy* hier;
  size_t level;
  std::unordered_map<Value, Value, std::hash<Value>, SameRepr> memo;
  std::vector<Value> dictionary;
  std::vector<uint32_t> level_of;  // leaf code -> dictionary index
};

// Column i < base width is a base column; base width + j is rollups[j].
struct ScanPlan {
  std::vector<LevelRollup> rollups;
  std::vector<std::pair<size_t, Value>> where;  // column = literal
  std::vector<size_t> project;                  // columns the row pass emits
  Schema schema;                                // base, then derived columns
  Schema out_schema;

  bool Scans() const { return !rollups.empty() || !where.empty(); }
};

// Fills `lr`'s code map: Ancestors once per leaf dictionary entry.
Status CodeLevel(const StatisticalObject& obj, LevelRollup* lr) {
  const std::vector<Value>& leaves =
      obj.code_columns()[lr->leaf_col].dictionary;
  ReprIndex index;
  lr->level_of.reserve(leaves.size());
  for (const Value& leaf : leaves) {
    STATCUBE_ASSIGN_OR_RETURN(std::vector<Value> anc,
                              lr->hier->Ancestors(0, leaf, lr->level));
    Value v = anc.empty() ? Value::Null() : std::move(anc.front());
    auto [it, added] = index.try_emplace(v, uint32_t(lr->dictionary.size()));
    if (added) lr->dictionary.push_back(std::move(v));
    lr->level_of.push_back(it->second);
  }
  return Status::OK();
}

// Each referenced attribute that is a hierarchy level, not a dimension or a
// measure, becomes a derived column (leaf -> its ancestor at that level):
// Figure 13's implied roll-up, with the leaf dimension still addressable.
// `coded` also builds each level's code map, under its rollup span.
Result<ScanPlan> PlanQuery(const StatisticalObject& obj,
                           const ParsedQuery& query, bool coded) {
  obs::Span plan_span("plan");
  ScanPlan plan;
  Schema& schema = plan.schema;
  schema = obj.data().schema();
  std::set<std::string> referenced(query.by.begin(), query.by.end());
  for (const auto& [attr, v] : query.where) referenced.insert(attr);
  for (const auto& attr : referenced) {
    if (obj.DimensionNamed(attr).ok()) continue;  // plain dimension
    if (schema.Contains(attr)) continue;          // measure or derived
    // Find a hierarchy level with this name on some dimension.
    bool resolved = false;
    for (const auto& d : obj.dimensions()) {
      auto lv = d.LevelNamed(attr);
      if (!lv.ok() || lv->second == 0) continue;
      obs::Span rollup_span("rollup:" + attr);
      const auto [hier, level] = *lv;
      // A non-strict path would assign several ancestors to one cell;
      // refuse rather than silently double-count.
      for (size_t step = 0; step < level; ++step) {
        if (!hier->IsStrictAt(step))
          return Status::NotSummarizable(
              "attribute '" + attr + "' reached through non-strict "
              "hierarchy '" + hier->name() + "'");
      }
      STATCUBE_ASSIGN_OR_RETURN(size_t leaf_col, schema.IndexOf(d.name()));
      schema.AddColumn(attr, ValueType::kString);
      plan.rollups.push_back({leaf_col, hier, level, {}, {}, {}});
      if (coded) STATCUBE_RETURN_NOT_OK(CodeLevel(obj, &plan.rollups.back()));
      obs::RecordOperator("rollup", obj.data().num_rows(),
                          obj.data().num_rows());
      resolved = true;
      break;
    }
    if (!resolved)
      return Status::NotFound("no dimension, level or measure named '" +
                              attr + "'");
  }
  for (const auto& [attr, v] : query.where) {
    STATCUBE_ASSIGN_OR_RETURN(size_t col, schema.IndexOf(attr));
    plan.where.emplace_back(col, v);
  }
  // Keep BY and aggregate columns; GroupBy reports unknown names.
  std::vector<std::string> needed = query.by;
  for (const auto& a : query.aggs) needed.push_back(a.column);
  for (const auto& name : needed) {
    if (Result<size_t> col = schema.IndexOf(name); col.ok()) {
      plan.out_schema.AddColumn(name, schema.column(*col).type);
      plan.project.push_back(*col);
    }
  }
  return plan;
}

std::vector<AggSpec> NamedAggs(const ParsedQuery& query) {
  std::vector<AggSpec> aggs = query.aggs;
  for (auto& a : aggs)
    if (a.output_name.empty()) a.output_name = a.EffectiveName();
  return aggs;
}

// ------------------------------------------------------------- row route

// The row route's group-by input: one pass over the base rows in place —
// derived cells come from the memos, WHERE uses Value::Compare as
// expr::ColumnEq does, passing rows are kept projected, and the stop
// context is checked every 1024 rows — or, with nothing to derive or
// filter, no pass (nullopt): the base table itself is the input.
Result<std::optional<Table>> RowPass(const StatisticalObject& obj,
                                     ScanPlan& plan,
                                     const CancelContext* stop) {
  if (!plan.Scans()) return std::optional<Table>();
  const Table& base = obj.data();
  const size_t nbase = base.num_columns();
  std::vector<const Value*> derived(plan.rollups.size());
  Status failed;  // why cell() returned nullptr
  auto cell = [&](const Row& row, size_t col) -> const Value* {
    if (col < nbase) return &row[col];
    const Value*& slot = derived[col - nbase];
    if (slot != nullptr) return slot;
    LevelRollup& lr = plan.rollups[col - nbase];
    const Value& leaf = row[lr.leaf_col];
    auto it = lr.memo.find(leaf);
    if (it == lr.memo.end()) {
      auto anc = lr.hier->Ancestors(0, leaf, lr.level);
      if (!anc.ok()) {
        failed = anc.status();
        return nullptr;
      }
      it = lr.memo.emplace(leaf, anc->empty() ? Value::Null() : anc->front())
               .first;
    }
    return slot = &it->second;
  };

  std::optional<obs::Span> filter_span;
  if (!plan.where.empty()) filter_span.emplace("filter");
  Table rows(base.name() + (plan.where.empty() ? "" : "_sel"),
             plan.out_schema);
  if (plan.where.empty()) rows.mutable_rows().reserve(base.num_rows());
  for (size_t r = 0; r < base.num_rows(); ++r) {
    if (stop != nullptr && (r & 1023) == 0)
      if (StopReason sr = stop->Check(); sr != StopReason::kNone)
        return StopStatus(sr, "scan");
    const Row& row = base.row(r);
    std::fill(derived.begin(), derived.end(), nullptr);
    bool pass = true;
    for (size_t i = 0; pass && i < plan.where.size(); ++i) {
      const Value* v = cell(row, plan.where[i].first);
      if (v == nullptr) return failed;
      pass = Value::Compare(*v, plan.where[i].second) == 0;
    }
    if (!pass) continue;
    Row projected;
    projected.reserve(plan.project.size());
    for (size_t col : plan.project) {
      const Value* v = cell(row, col);
      if (v == nullptr) return failed;
      projected.push_back(*v);
    }
    rows.AppendRowUnchecked(std::move(projected));
  }
  if (!plan.where.empty())
    obs::RecordOperator("select", base.num_rows(), rows.num_rows());
  return std::optional<Table>(std::move(rows));
}

// ----------------------------------------------------------- coded route

// A BY or WHERE attribute on the code columns: the leaf dimension's codes,
// read through a level's code map when the attribute is a level.
struct CodedAttr {
  size_t dim;                       // the leaf dimension
  const uint32_t* level_of;         // leaf code -> attribute code, or null
  const std::vector<Value>* values;  // the attribute's value per code
};

// Plan column `col` as a coded attribute; nullopt for a measure.
std::optional<CodedAttr> AttrOf(const StatisticalObject& obj,
                                const ScanPlan& plan, size_t col) {
  const size_t ndims = obj.dimensions().size();
  const size_t nbase = obj.data().num_columns();
  if (col < ndims)
    return CodedAttr{col, nullptr, &obj.code_columns()[col].dictionary};
  if (col < nbase) return std::nullopt;
  const LevelRollup& lr = plan.rollups[col - nbase];
  return CodedAttr{lr.leaf_col, lr.level_of.data(), &lr.dictionary};
}

// True when grouping by code is grouping by Value::Compare: the entries
// hold no NaN and no two that Compare calls equal. Entries are distinct by
// representation, so strings, NULL and ALL are never equal to another
// entry; numbers are checked through their double images (1 and 1.0,
// -0.0 and 0.0, the int64 2^53 + 1 and the double 2^53).
bool GroupsExactly(const std::vector<Value>& values) {
  std::unordered_set<double> doubles;  // 0.0 and -0.0 collide here
  for (const Value& v : values) {
    if (v.type() != ValueType::kDouble) continue;
    const double d = v.AsDouble();
    if (d != d || !doubles.insert(d).second) return false;
  }
  if (doubles.empty()) return true;
  for (const Value& v : values)
    if (v.type() == ValueType::kInt64 && doubles.count(v.AsDouble()) != 0)
      return false;
  return true;
}

// Splitmix64 finalizer for the packed-key table.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Packed BY code tuple -> dense group id in first-occurrence order. Direct
// addressing while the key space is small, else open addressing sized for
// one group per row.
class GroupIds {
 public:
  GroupIds(uint64_t key_space, size_t rows) {
    direct_ = key_space <= std::max<uint64_t>(uint64_t(1) << 16, 2 * rows);
    size_t slots = size_t(key_space);
    if (!direct_) {
      slots = 16;
      while (slots < 2 * rows) slots <<= 1;
      slot_keys_.resize(slots);
    }
    ids_.assign(slots, kEmpty);
    mask_ = slots - 1;
  }

  uint32_t Find(uint64_t key) {
    size_t i = direct_ ? size_t(key) : size_t(Mix64(key)) & mask_;
    for (;;) {
      uint32_t& id = ids_[i];
      if (id == kEmpty) {
        id = uint32_t(keys_.size());
        if (!direct_) slot_keys_[i] = key;
        keys_.push_back(key);
        return id;
      }
      if (direct_ || slot_keys_[i] == key) return id;
      i = (i + 1) & mask_;
    }
  }

  /// Per group id: its packed key.
  const std::vector<uint64_t>& keys() const { return keys_; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  bool direct_;
  size_t mask_;
  std::vector<uint32_t> ids_;
  std::vector<uint64_t> slot_keys_;
  std::vector<uint64_t> keys_;
};

// The executor on the code columns (DESIGN.md §14): a WHERE is a keep
// array per leaf code, a level is its code map, each kept row's packed BY
// codes become a dense group id, and the ids with the measure slabs enter
// the radix kernel after its columnarize phase. No row gets a Value hash,
// a Value compare or a Row. Returns nullopt, before touching a row, for the
// shapes codes cannot group exactly: a BY or WHERE on a measure, an
// aggregate over anything but a measure, a BY attribute whose values
// GroupsExactly refuses — and for BY codes that do not pack into 64 bits
// and CUBEs over more than 20 attributes, which the row route handles
// (and refuses) as it always has.
std::optional<Result<Table>> ExecuteCoded(const StatisticalObject& obj,
                                          const ParsedQuery& query,
                                          const ScanPlan& plan,
                                          const exec::ExecOptions& options) {
  const size_t ndims = obj.dimensions().size();
  const std::vector<AggSpec> aggs = NamedAggs(query);
  std::vector<int64_t> measure(aggs.size(), -1);  // -1: count()
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].fn == AggFn::kCountAll && aggs[i].column.empty()) continue;
    Result<size_t> col = plan.schema.IndexOf(aggs[i].column);
    if (!col.ok() || *col < ndims || *col >= obj.data().num_columns())
      return std::nullopt;
    measure[i] = int64_t(*col - ndims);
  }
  if (query.cube && query.by.size() > 20) return std::nullopt;
  const size_t nby = query.by.size();
  std::vector<CodedAttr> by;
  uint64_t key_space = 1;
  for (const std::string& name : query.by) {
    std::optional<CodedAttr> a = AttrOf(obj, plan, *plan.schema.IndexOf(name));
    if (!a || !GroupsExactly(*a->values) ||
        __builtin_mul_overflow(key_space, uint64_t(a->values->size()),
                               &key_space))
      return std::nullopt;
    by.push_back(*a);
  }
  // WHERE: per leaf dimension, the codes every predicate on it (on the
  // dimension or on one of its levels) keeps.
  std::vector<std::pair<size_t, std::vector<uint8_t>>> keep;
  for (const auto& [col, literal] : plan.where) {
    std::optional<CodedAttr> a = AttrOf(obj, plan, col);
    if (!a) return std::nullopt;
    const size_t nleaves = obj.code_columns()[a->dim].dictionary.size();
    auto it = std::find_if(keep.begin(), keep.end(),
                           [&](const auto& k) { return k.first == a->dim; });
    if (it == keep.end())
      it = keep.insert(keep.end(),
                       {a->dim, std::vector<uint8_t>(nleaves, 1)});
    std::vector<uint8_t> match(a->values->size());
    for (size_t c = 0; c < match.size(); ++c)
      match[c] = Value::Compare((*a->values)[c], literal) == 0;
    for (size_t leaf = 0; leaf < nleaves; ++leaf)
      it->second[leaf] &= match[a->level_of ? a->level_of[leaf] : leaf];
  }

  // The pass, in two steps. Morsels, in parallel when there are workers:
  // each row's packed BY codes, or kDropped when a WHERE drops it. Then in
  // row order: each kept row's dense group id, numbered on first
  // occurrence. With a WHERE it is the "filter" span, as the row pass is.
  constexpr uint64_t kDropped = UINT64_MAX;
  if (key_space == kDropped) return std::nullopt;
  const CancelContext* stop = options.stop;
  const size_t n = obj.data().num_rows();
  std::vector<uint32_t> gids;
  std::vector<uint32_t> kept;  // row indexes, when a WHERE drops rows
  GroupIds groups(key_space, n);
  {
    std::optional<obs::Span> filter_span;
    if (!plan.where.empty()) filter_span.emplace("filter");
    std::vector<std::pair<const uint32_t*, const uint8_t*>> filters;
    for (const auto& [dim, k] : keep)
      filters.emplace_back(obj.code_columns()[dim].codes.data(), k.data());
    std::vector<const uint32_t*> by_codes;
    std::vector<uint64_t> by_card;
    for (const CodedAttr& a : by) {
      by_codes.push_back(obj.code_columns()[a.dim].codes.data());
      by_card.push_back(a.values->size());
    }
    if (obs::Enabled())
      obs::RecordBytesTouched(n * sizeof(uint32_t) *
                              (filters.size() + by_codes.size()));
    auto keys = std::make_unique_for_overwrite<uint64_t[]>(n);
    exec::ParallelForOptions loop;
    loop.label = "coded_pass";
    loop.max_workers = options.EffectiveThreads();
    loop.scheduler = options.scheduler;
    loop.stop = stop;
    // One worker takes large morsels: the stop context is still checked
    // between them, and fewer morsels cost less bookkeeping.
    loop.morsel_size = loop.max_workers == 1 ? size_t(1) << 16
                                             : options.morsel_rows;
    exec::ParallelFor(
        n,
        [&](size_t, size_t begin, size_t end) {
          for (size_t r = begin; r < end; ++r) {
            bool pass = true;
            for (const auto& [codes, k] : filters)
              pass = pass && k[codes[r]] != 0;
            uint64_t key = 0;
            for (size_t k = 0; pass && k < nby; ++k) {
              uint32_t c = by_codes[k][r];
              if (by[k].level_of != nullptr) c = by[k].level_of[c];
              key = key * by_card[k] + c;
            }
            keys[r] = pass ? key : kDropped;
          }
        },
        loop);
    if (stop != nullptr)
      if (StopReason sr = stop->Check(); sr != StopReason::kNone)
        return StopStatus(sr, plan.Scans() ? "scan" : "groupby");
    if (nby > 0) gids.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      if (keys[r] == kDropped) continue;
      if (!keep.empty()) kept.push_back(uint32_t(r));
      if (nby > 0) gids.push_back(groups.Find(keys[r]));
    }
    if (!plan.where.empty()) obs::RecordOperator("select", n, kept.size());
  }
  const size_t nkept = keep.empty() ? n : kept.size();

  // Measure slabs: the object's own, or gathered over the kept rows once
  // per measure. The object's evidence covers a superset of the kept rows,
  // so it holds.
  const std::vector<StatisticalObject::MeasureSlab>& slabs =
      obj.measure_slabs();
  std::vector<std::vector<double>> values(slabs.size());
  std::vector<std::vector<uint8_t>> flags(slabs.size());
  exec::GroupIdRows in;
  in.rows = nkept;
  in.gids = nby == 0 ? nullptr : gids.data();
  in.groups = nby == 0 ? 1 : groups.keys().size();
  for (int64_t mi : measure) {
    exec::SlabView view;
    if (mi >= 0) {
      const size_t m = size_t(mi);
      view = {slabs[m].values.data(), slabs[m].flags.data(),
              slabs[m].evidence};
      if (!keep.empty()) {
        if (values[m].size() != nkept) {
          values[m].resize(nkept);
          flags[m].resize(nkept);
          for (size_t e = 0; e < nkept; ++e) {
            values[m][e] = slabs[m].values[kept[e]];
            flags[m][e] = slabs[m].flags[kept[e]];
          }
        }
        view.values = values[m].data();
        view.flags = flags[m].data();
      }
    }
    in.slabs.push_back(view);
  }

  obs::Span agg_span("aggregate");
  obs::Span op_span(query.cube ? "op.cube" : "op.groupby");
  STATCUBE_ASSIGN_OR_RETURN(std::vector<AggState> states,
                            exec::GroupIdStates(in, options));
  const size_t naggs = aggs.size();
  const size_t ngroups = nkept == 0 ? 0 : in.groups;
  // Group g's code of BY attribute k, unpacked from its key.
  std::vector<std::vector<uint32_t>> codes(nby,
                                           std::vector<uint32_t>(ngroups));
  for (size_t g = 0; nby > 0 && g < ngroups; ++g) {
    uint64_t key = groups.keys()[g];
    for (size_t k = nby; k-- > 0;) {
      codes[k][g] = uint32_t(key % by[k].values->size());
      key /= by[k].values->size();
    }
  }
  auto value = [&](size_t k, size_t g) -> const Value& {
    return (*by[k].values)[codes[k][g]];
  };
  const std::string name =
      obj.data().name() + (plan.where.empty() ? "" : "_sel");
  if (query.cube) {
    GroupedStates finest = exec::EmitGroupedStates(
        ngroups, naggs, states, [&](size_t g, Row* key) {
          key->resize(nby);
          for (size_t k = 0; k < nby; ++k) (*key)[k] = value(k, g);
        });
    return exec::CubeLattice(name, std::move(finest), query.by, aggs,
                             options);
  }

  // GROUP BY: one row per group, in the order StatesToTable sorts to —
  // Value::Compare on the BY columns, which on exact values is the order
  // of the codes' ranks, so the groups sort by integers.
  std::vector<uint64_t> rank_key(ngroups, 0);
  for (size_t k = 0; k < nby; ++k) {
    const std::vector<Value>& vals = *by[k].values;
    std::vector<uint32_t> sorted(vals.size());
    for (size_t c = 0; c < vals.size(); ++c) sorted[c] = uint32_t(c);
    std::sort(sorted.begin(), sorted.end(), [&](uint32_t a, uint32_t b) {
      return Value::Compare(vals[a], vals[b]) < 0;
    });
    std::vector<uint64_t> rank(vals.size());
    for (size_t p = 0; p < sorted.size(); ++p) rank[sorted[p]] = p;
    for (size_t g = 0; g < ngroups; ++g)
      rank_key[g] = rank_key[g] * vals.size() + rank[codes[k][g]];
  }
  std::vector<uint32_t> order(ngroups);
  for (size_t g = 0; g < ngroups; ++g) order[g] = uint32_t(g);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return rank_key[a] < rank_key[b];
  });
  Table out(name + "_by_" + Join(query.by, "_"),
            CubeOutputSchema(query.by, aggs));  // StatesToTable's schema
  out.mutable_rows().reserve(ngroups);
  for (uint32_t g : order) {
    Row row(nby + naggs);
    for (size_t k = 0; k < nby; ++k) row[k] = value(k, g);
    for (size_t i = 0; i < naggs; ++i)
      row[nby + i] = states[size_t(g) * naggs + i].Finalize(aggs[i].fn);
    out.AppendRowUnchecked(std::move(row));
  }
  obs::RecordOperator("groupby", nkept, out.num_rows());
  return out;
}

}  // namespace

// Plans, then runs on the code columns; the shapes they cannot group
// exactly take the row pass and the kernel's columnarize front end. Either
// way the radix kernel groups, at every thread count.
Result<Table> ExecuteQuery(const StatisticalObject& obj,
                           const ParsedQuery& query, int threads,
                           const CancelContext* stop) {
  if (stop == nullptr) stop = CurrentCancelContext();
  STATCUBE_ASSIGN_OR_RETURN(ScanPlan plan,
                            PlanQuery(obj, query, /*coded=*/true));
  const exec::ExecOptions options{.threads = threads, .stop = stop};
  if (std::optional<Result<Table>> coded =
          ExecuteCoded(obj, query, plan, options))
    return *std::move(coded);
  STATCUBE_ASSIGN_OR_RETURN(std::optional<Table> rows,
                            RowPass(obj, plan, stop));
  const Table& input = rows ? *rows : obj.data();
  const std::vector<AggSpec> aggs = NamedAggs(query);
  obs::Span agg_span("aggregate");
  return query.cube ? exec::ParallelCubeBy(input, query.by, aggs, options)
                    : exec::ParallelGroupBy(input, query.by, aggs, options);
}

// The reference: the row pass, then the serial operators.
Result<Table> Query(const StatisticalObject& obj, const std::string& text) {
  STATCUBE_ASSIGN_OR_RETURN(ParsedQuery q, ParseQuery(text));
  STATCUBE_ASSIGN_OR_RETURN(ScanPlan plan, PlanQuery(obj, q, /*coded=*/false));
  STATCUBE_ASSIGN_OR_RETURN(std::optional<Table> rows,
                            RowPass(obj, plan, CurrentCancelContext()));
  const Table& input = rows ? *rows : obj.data();
  const std::vector<AggSpec> aggs = NamedAggs(q);
  obs::Span agg_span("aggregate");
  return q.cube ? CubeBy(input, q.by, aggs) : GroupBy(input, q.by, aggs);
}

Result<Table> ExecuteQueryOnBackend(const StatisticalObject& obj,
                                    const ParsedQuery& query,
                                    CubeBackend& backend, int threads) {
  if (query.cube)
    return Status::Unimplemented("BY CUBE is not backend-expressible");
  if (query.aggs.size() != 1 || query.aggs[0].fn != AggFn::kSum)
    return Status::Unimplemented(
        "cube backends answer exactly one SUM aggregate");
  for (const auto& b : query.by)
    if (!obj.DimensionNamed(b).ok())
      return Status::Unimplemented("BY '" + b + "' is not a plain dimension");
  CubeQuery cq;
  cq.threads = threads;
  cq.group_dims = query.by;
  for (const auto& [attr, v] : query.where) {
    if (!obj.DimensionNamed(attr).ok())
      return Status::Unimplemented("WHERE '" + attr +
                                   "' is not a plain dimension");
    cq.filters.push_back({attr, v});
  }
  obs::Span span("execute");
  return backend.GroupBySum(cq);
}

const char* QueryEngineName(QueryEngine engine) {
  switch (engine) {
    case QueryEngine::kRelational: return "relational";
    case QueryEngine::kMolap: return "molap";
    case QueryEngine::kRolap: return "rolap";
    case QueryEngine::kRolapBitmap: return "rolap+bitmap";
  }
  return "?";
}

Result<QueryEngine> EngineFromName(const std::string& name) {
  std::string n = name;
  for (char& c : n) c = char(std::tolower(static_cast<unsigned char>(c)));
  if (n == "relational") return QueryEngine::kRelational;
  if (n == "molap") return QueryEngine::kMolap;
  if (n == "rolap") return QueryEngine::kRolap;
  if (n == "rolap+bitmap" || n == "bitmap") return QueryEngine::kRolapBitmap;
  return Status::InvalidArgument("unknown engine '" + name +
                                 "' (relational|molap|rolap|rolap+bitmap)");
}

Result<ProfiledQuery> QueryProfiled(const StatisticalObject& obj,
                                    const std::string& text,
                                    const QueryOptions& options) {
  obs::EnabledScope enabled(true);
  obs::ProfileScope scope;

  ParsedQuery q;
  STATCUBE_ASSIGN_OR_RETURN(q, ParseQuery(text));

  // Stop configuration: a token copy shared with the caller (if any) plus
  // the absolute deadline. The CancelScope hands it to the executor's pass
  // and group-by thread-locally.
  CancellationToken token =
      options.cancel != nullptr ? *options.cancel : CancellationToken();
  CancelContext cctx;
  cctx.token = &token;
  cctx.deadline_us =
      options.deadline_us != 0 ? SteadyNowUs() + options.deadline_us : 0;
  CancelScope cancel_scope(&cctx);

  // Enroll in the live /queryz registry for the duration of execution. The
  // scope is declared after ProfileScope on purpose: it unregisters first,
  // so the registry's borrowed accumulator pointer never dangles.
  obs::ActiveQueryInfo active_info;
  active_info.query = text;
  active_info.engine = QueryEngineName(options.engine);
  active_info.cache_mode = cache::ModeName(options.cache);
  active_info.tenant = options.tenant;
  active_info.threads = options.threads;
  active_info.deadline_us = cctx.deadline_us;
  active_info.token = token;
  active_info.resources = &scope.resources();
  obs::ActiveQueryScope active(std::move(active_info));

  // A query stopped by cancellation or deadline still produces a profile —
  // with outcome "cancelled" / "deadline_exceeded" — so /profiles and the
  // slow-query table tell the whole story, but it is never offered to the
  // result cache (partial work must not masquerade as an answer).
  auto fail = [&](const Status& st) -> Status {
    obs::QueryProfile p = scope.Take();
    p.outcome = st.code() == StatusCode::kCancelled ? "cancelled"
                                                    : "deadline_exceeded";
    p.tenant = options.tenant;
    if (p.backend.empty()) p.backend = "relational";
    if (options.record) obs::FlightRecorder::Global().Record(p, text);
    return st;
  };
  auto is_stop = [](const Status& st) {
    return st.code() == StatusCode::kCancelled ||
           st.code() == StatusCode::kDeadlineExceeded;
  };
  // Admission check: a pre-cancelled token or an already-expired deadline
  // stops the query before it touches any data.
  if (StopReason r = cctx.Check(); r != StopReason::kNone)
    return fail(StopStatus(r, "admission"));

  Table out;
  bool executed = false;

  // Result-cache route: an exact entry is returned byte-for-byte; under
  // Mode::kDerive a cached superset grouping is rolled up instead of
  // touching base data. Either way the backends below are skipped entirely
  // (profile backend "cache"). Key building failures — e.g. a query with no
  // aggregates, which cannot parse anyway — just disable caching.
  cache::ResultCache& rc = cache::ResultCache::Global();
  Result<cache::QueryKey> key = Status::Unimplemented("cache off");
  if (options.cache != cache::Mode::kOff) {
    obs::Span lookup_span("cache.lookup");
    key = query::BuildQueryKey(obj, q, options.engine);
    if (key.ok()) {
      if (std::optional<Table> hit = rc.Lookup(*key)) {
        out = *std::move(hit);
        executed = true;
        scope.profile().cache = "hit";
      } else if (options.cache == cache::Mode::kDerive && key->derivable) {
        if (std::optional<cache::DerivedSource> src =
                rc.FindDerivationSource(*key)) {
          obs::Span derive_span("cache.derive");
          const auto derive_start = std::chrono::steady_clock::now();
          Result<Table> derived =
              cache::RollupDerived(*src, *key, options.threads);
          if (derived.ok()) {
            out = *std::move(derived);
            executed = true;
            scope.profile().cache = "derived";
            rc.NoteDerivedHit();
            // Offer the derived table as an exact entry for next time;
            // admission weighs the (cheap) re-derivation cost, so tiny
            // roll-ups stay derive-on-demand.
            uint64_t derive_us =
                uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - derive_start)
                             .count());
            // The source was shape-matched, so the derived table has the
            // request's predicted shape.
            rc.Insert(*key, out, key->backend_shaped, derive_us);
          }
        }
      }
      if (!executed) scope.profile().cache = "miss";
    }
  }
  const bool from_cache = executed;
  if (from_cache) scope.profile().backend = "cache";
  const auto exec_start = std::chrono::steady_clock::now();

  // Cube-engine route: build the backend for the query's measure (its cost
  // is part of the profile, under its own span) and execute there when the
  // query is backend-expressible; otherwise fall back to the relational
  // executor — the profile's backend field says which path answered.
  bool backend_answered = false;
  if (!executed && options.engine != QueryEngine::kRelational) {
    Result<std::unique_ptr<CubeBackend>> backend =
        Status::Internal("unreachable");
    {
      obs::Span build_span("backend.build");
      const std::string& measure =
          q.aggs.empty() ? std::string() : q.aggs[0].column;
      switch (options.engine) {
        case QueryEngine::kMolap:
          backend = MakeMolapBackend(obj, measure);
          break;
        case QueryEngine::kRolap:
          backend = MakeRolapBackend(obj, measure);
          break;
        case QueryEngine::kRolapBitmap:
          backend = MakeRolapBackend(obj, measure,
                                     {.build_bitmap_indexes = true});
          break;
        case QueryEngine::kRelational:
          break;
      }
    }
    if (backend.ok()) {
      Result<Table> res =
          ExecuteQueryOnBackend(obj, q, **backend, options.threads);
      if (res.ok()) {
        out = std::move(res).value();
        executed = true;
        backend_answered = true;
      } else if (is_stop(res.status())) {
        return fail(res.status());
      } else if (res.status().code() != StatusCode::kUnimplemented) {
        return res.status();
      }
    }
    // Backend build failures (e.g. the aggregate column is not a measure)
    // also fall through to the relational executor, which reports the
    // precise error if the query is genuinely wrong.
  }
  if (!executed) {
    Result<Table> res = Status::Internal("unreachable");
    {
      obs::Span exec_span("execute");
      res = ExecuteQuery(obj, q, options.threads);
    }
    if (!res.ok()) {
      if (is_stop(res.status())) return fail(res.status());
      return res.status();
    }
    out = std::move(res).value();
  }

  // Post-execution stop check, before the cache is offered anything: an
  // engine that cannot stop mid-flight (the cube backends check nothing
  // between blocks) still reports the stop here, so a cancelled or expired
  // query is *never* admitted to the result cache — and the /queryz cancel
  // smoke behaves identically across engines.
  if (StopReason r = cctx.Check(); r != StopReason::kNone)
    return fail(StopStatus(r, "post-execution"));

  // Offer a freshly computed result back to the cache; admission compares
  // the measured execution cost (backend build included — that is what a
  // recomputation would pay) against the cost floor.
  if (!from_cache && key.ok()) {
    obs::Span insert_span("cache.insert");
    uint64_t exec_us = uint64_t(std::chrono::duration_cast<
                                    std::chrono::microseconds>(
                                    std::chrono::steady_clock::now() -
                                    exec_start)
                                    .count());
    rc.Insert(*key, out, backend_answered, exec_us);
  }

  ProfiledQuery pq;
  pq.table = std::move(out);
  pq.profile = scope.Take();
  pq.profile.result_rows = pq.table.num_rows();
  pq.profile.outcome = "ok";
  pq.profile.tenant = options.tenant;
  if (pq.profile.backend.empty()) pq.profile.backend = "relational";
  // Retain the completed profile in the flight recorder so /profiles (and
  // post-hoc debugging) can see it; queries over the slow threshold emit
  // one structured slow_query log line from inside Record.
  if (options.record)
    pq.profile_id = obs::FlightRecorder::Global().Record(pq.profile, text);
  return pq;
}

}  // namespace statcube
