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

// The executor on the code columns (DESIGN.md §14): a WHERE is a keep
// array per leaf code, a level is its code map, and exec::CodedGroupBy
// groups the kept rows' codes and folds the object's measure slabs. No row
// gets a Value hash, a Value compare or a Row. Returns nullopt, before
// touching a row, for the shapes codes cannot group exactly: a BY or WHERE
// on a measure, an aggregate over anything but a measure, and whatever
// CodedGroupBy declines — which the row route handles (and refuses) as it
// always has.
std::optional<Result<Table>> ExecuteCoded(const StatisticalObject& obj,
                                          const ParsedQuery& query,
                                          const ScanPlan& plan,
                                          const exec::ExecOptions& options) {
  const size_t ndims = obj.dimensions().size();
  exec::CodedGroupByInput in;
  in.name = obj.data().name() + (plan.where.empty() ? "" : "_sel");
  in.rows = obj.data().num_rows();
  in.by_names = query.by;
  in.aggs = NamedAggs(query);
  in.cube = query.cube;
  // With a WHERE the pass is the "filter" span, as the row pass is.
  in.pass_span = plan.where.empty() ? nullptr : "filter";
  in.fold_span = "aggregate";
  for (const AggSpec& a : in.aggs) {
    if (a.fn == AggFn::kCountAll && a.column.empty()) {
      in.slabs.emplace_back();  // count()
      continue;
    }
    Result<size_t> col = plan.schema.IndexOf(a.column);
    if (!col.ok() || *col < ndims || *col >= obj.data().num_columns())
      return std::nullopt;
    const StatisticalObject::MeasureSlab& slab =
        obj.measure_slabs()[*col - ndims];
    in.slabs.push_back(
        {slab.values.data(), slab.flags.data(), slab.evidence});
  }
  for (const std::string& name : query.by) {
    std::optional<CodedAttr> a = AttrOf(obj, plan, *plan.schema.IndexOf(name));
    if (!a) return std::nullopt;
    in.by.push_back(
        {obj.code_columns()[a->dim].codes.data(), a->level_of, a->values});
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
  for (const auto& [dim, k] : keep)
    in.filters.push_back({obj.code_columns()[dim].codes.data(), k.data()});
  return exec::CodedGroupBy(in, options);
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

Status BackendExpressible(const StatisticalObject& obj,
                          const ParsedQuery& query) {
  if (query.cube)
    return Status::Unimplemented("BY CUBE is not backend-expressible");
  if (query.aggs.size() != 1 || query.aggs[0].fn != AggFn::kSum)
    return Status::Unimplemented(
        "cube backends answer exactly one SUM aggregate");
  if (!obj.MeasureNamed(query.aggs[0].column).ok())
    return Status::Unimplemented("SUM over '" + query.aggs[0].column +
                                 "', which is not a measure");
  for (const auto& b : query.by)
    if (!obj.DimensionNamed(b).ok())
      return Status::Unimplemented("BY '" + b + "' is not a plain dimension");
  for (const auto& [attr, v] : query.where)
    if (!obj.DimensionNamed(attr).ok())
      return Status::Unimplemented("WHERE '" + attr +
                                   "' is not a plain dimension");
  return Status::OK();
}

Result<Table> ExecuteQueryOnBackend(const StatisticalObject& obj,
                                    const ParsedQuery& query,
                                    CubeBackend& backend, int threads) {
  STATCUBE_RETURN_NOT_OK(BackendExpressible(obj, query));
  CubeQuery cq;
  cq.threads = threads;
  cq.group_dims = query.by;
  for (const auto& [attr, v] : query.where) cq.filters.push_back({attr, v});
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

  // The answer is built once and from here on only referenced: a cache hit
  // shares the cached table and its stored encoding, and a computed table
  // is moved in and then shared with the cache.
  std::shared_ptr<const Table> out;
  std::shared_ptr<const std::string> json;
  bool executed = false;

  // Result-cache route: an exact entry is returned as stored; under
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
      if (cache::CachedResult hit = rc.Lookup(*key); hit.table != nullptr) {
        out = std::move(hit.table);
        json = std::move(hit.json);
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
            out = std::make_shared<const Table>(std::move(derived).value());
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
            json = rc.Insert(*key, out, key->backend_shaped, derive_us);
          }
        }
      }
      if (!executed) scope.profile().cache = "miss";
    }
  }
  const bool from_cache = executed;
  if (from_cache) scope.profile().backend = "cache";
  const auto exec_start = std::chrono::steady_clock::now();

  // Cube-engine route: when the query is backend-expressible, build the
  // backend for its measure (its cost is part of the profile, under its own
  // span) and execute there; otherwise, without a build, fall back to the
  // relational executor — the profile's backend field says which path
  // answered. A backend that declines a query it cannot group exactly
  // (Unimplemented, olap/backend.h) falls back the same way.
  bool backend_answered = false;
  if (!executed && options.engine != QueryEngine::kRelational &&
      BackendExpressible(obj, q).ok()) {
    Result<std::unique_ptr<CubeBackend>> backend =
        Status::Internal("unreachable");
    {
      obs::Span build_span("backend.build");
      const std::string& measure = q.aggs[0].column;
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
        out = std::make_shared<const Table>(std::move(res).value());
        executed = true;
        backend_answered = true;
      } else if (is_stop(res.status())) {
        return fail(res.status());
      } else if (res.status().code() != StatusCode::kUnimplemented) {
        return res.status();
      }
    }
    // A failed build (MOLAP refuses a dimension without values) also falls
    // through to the relational executor.
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
    out = std::make_shared<const Table>(std::move(res).value());
  }

  // Post-execution stop check, before the cache is offered anything: every
  // engine checks the stop context between morsels, but one that fires
  // after the last morsel is still reported here, so a cancelled or expired
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
    json = rc.Insert(*key, out, backend_answered, exec_us);
  }

  ProfiledQuery pq;
  pq.table = std::move(out);
  pq.json = std::move(json);
  pq.profile = scope.Take();
  pq.profile.result_rows = pq.table->num_rows();
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
