// Experiment P2 (DESIGN.md §7): what the result cache buys on the hot query
// path. Five costs on the same 200k-row retail object:
//
//   ColdExecute  — the backend price a miss pays (cache off),
//   FoldAppend   — what the first query after a 1,000-cell append pays in
//                  derive mode: the appended rows alone, aggregated and
//                  merged into the cached answer (`cache: folded`), for a
//                  12-group answer; FoldAppendFine for the finest
//                  dashboard grouping on an object with the dashboard's
//                  200 products and 40 stores (~8,000 groups, ~900 of them
//                  touched), where copying the untouched groups and their
//                  stored bytes is most of the fold,
//   KeyBuild     — the fixed per-query overhead the cache adds (normalize
//                  the group-by/WHERE; paid on every cached query, hit or
//                  miss),
//   WarmHit      — exact-key reuse,
//   DeriveRollup — the derivation a derived hit runs: find the cached
//                  superset grouping (BY product, store) and roll it up
//                  BY store with RollupFinalized,
//
// plus WorkloadReplayWarm: the stats_server query mix (§ examples/) replayed
// against a warm cache in derive mode — the end-to-end speedup the
// EXPERIMENTS.md P2 recipe measures from /metrics. Counter hit_rate is
// (hits + derived_hits) / (hits + misses) over the run.

#include <benchmark/benchmark.h>

#include <optional>
#include <string>

#include "statcube/query/cache_key.h"
#include "statcube/cache/result_cache.h"
#include "statcube/query/parser.h"
#include "statcube/relational/aggregate.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

// Same scale as bench_parallel's BigRetailFlat so the cold numbers are
// comparable across benches.
const StatisticalObject& BigRetail() {
  static const StatisticalObject* obj = [] {
    RetailOptions opt;
    opt.num_rows = 200000;
    opt.seed = 17;
    return new StatisticalObject(MakeRetailWorkload(opt)->object);
  }();
  return *obj;
}

// BigRetail's rows over e2e_bench dashboard_live's dimensions: 200
// products × 40 stores, so BY product, store has ~8,000 groups, of which a
// 1,000-cell append touches ~900 (BigRetail's 50 × 12 has 588, most of
// them touched).
const StatisticalObject& DashboardRetail() {
  static const StatisticalObject* obj = [] {
    RetailOptions opt;
    opt.num_products = 200;
    opt.num_stores = 40;
    opt.num_cities = 8;
    opt.num_days = 360;
    opt.num_rows = 200000;
    opt.seed = 17;
    return new StatisticalObject(MakeRetailWorkload(opt)->object);
  }();
  return *obj;
}

QueryOptions Opts(cache::Mode mode) {
  QueryOptions o;
  o.cache = mode;
  o.threads = 1;
  o.record = false;  // keep the flight recorder out of the timings
  return o;
}

constexpr const char* kQuery = "SELECT sum(amount) BY store";
constexpr const char* kSuperset = "SELECT sum(amount) BY product, store";

// The backend price every miss pays: full relational execution, cache off.
void BM_ColdExecute(benchmark::State& state) {
  const auto& obj = BigRetail();
  for (auto _ : state) {
    auto r = QueryProfiled(obj, kQuery, Opts(cache::Mode::kOff));
    benchmark::DoNotOptimize(r->table->num_rows());
  }
  state.counters["rows"] = double(obj.data().num_rows());
}
BENCHMARK(BM_ColdExecute)->Unit(benchmark::kMicrosecond);

// The query after an append, in derive mode: each iteration appends 1,000
// cells with quarter-valued amounts (untimed), then asks `text` once. The
// cached answer is one version old, so the query folds the appended rows
// into it instead of executing over every row. Uses only AddCell and
// QueryProfiled, so the same source times a tree without the fold, where
// the query executes. A fixed iteration count bounds the object's growth.
void FoldAfterAppends(benchmark::State& state, const StatisticalObject& base,
                      const char* text) {
  StatisticalObject obj = base;  // a copy: appends stay local
  auto& rc = cache::ResultCache::Global();
  rc.Clear();
  (void)QueryProfiled(obj, text, Opts(cache::Mode::kDerive));  // seed
  const Table& data = obj.data();
  const size_t ndims = obj.dimensions().size();
  size_t next = 0;
  std::string outcome;
  size_t groups = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int k = 0; k < 1000; ++k, ++next) {
      const Row& like = data.row((next * 7919) % data.num_rows());
      Row dims(like.begin(), like.begin() + ndims);
      (void)obj.AddCell(dims, {Value(int64_t(1 + next % 9)),
                               Value(double(1 + next % 20000) / 4)});
    }
    state.ResumeTiming();
    auto r = QueryProfiled(obj, text, Opts(cache::Mode::kDerive));
    outcome = r->profile.cache;
    groups = r->table->num_rows();
    benchmark::DoNotOptimize(groups);
  }
  state.SetLabel(outcome);
  state.counters["rows"] = double(obj.data().num_rows());
  state.counters["groups"] = double(groups);
}

void BM_FoldAppend(benchmark::State& state) {
  FoldAfterAppends(state, BigRetail(), kQuery);
}
BENCHMARK(BM_FoldAppend)->Unit(benchmark::kMicrosecond)->Iterations(200);

// The finest dashboard panel (e2e_bench's dashboard_live), whose answer
// has a group per product and store.
void BM_FoldAppendFine(benchmark::State& state) {
  FoldAfterAppends(state, DashboardRetail(),
                   "SELECT sum(amount), sum(qty) BY product, store");
}
BENCHMARK(BM_FoldAppendFine)->Unit(benchmark::kMicrosecond)->Iterations(200);

// Fixed overhead the cache adds to every query: canonical key construction
// (normalized group-by/WHERE).
void BM_KeyBuild(benchmark::State& state) {
  const auto& obj = BigRetail();
  auto parsed = ParseQuery(kQuery);
  for (auto _ : state) {
    auto key =
        query::BuildQueryKey(obj, *parsed, QueryEngine::kRelational);
    benchmark::DoNotOptimize(key->exact.size());
  }
}
BENCHMARK(BM_KeyBuild)->Unit(benchmark::kMicrosecond);

// Exact-key reuse: one cold query seeds the cache, every iteration hits.
void BM_WarmHit(benchmark::State& state) {
  const auto& obj = BigRetail();
  auto& rc = cache::ResultCache::Global();
  rc.Clear();
  (void)QueryProfiled(obj, kQuery, Opts(cache::Mode::kDerive));  // seed
  for (auto _ : state) {
    auto r = QueryProfiled(obj, kQuery, Opts(cache::Mode::kDerive));
    benchmark::DoNotOptimize(r->table->num_rows());
  }
}
BENCHMARK(BM_WarmHit)->Unit(benchmark::kMicrosecond);

// Lattice roll-up: only the superset grouping is cached; every iteration
// finds it and regroups its 600 rows instead of scanning 200k. A derived
// hit through QueryProfiled does this once and then admits the answer, so
// its next request is an exact hit (WarmHit).
void BM_DeriveRollup(benchmark::State& state) {
  const auto& obj = BigRetail();
  auto& rc = cache::ResultCache::Global();
  rc.Clear();
  (void)QueryProfiled(obj, kSuperset, Opts(cache::Mode::kDerive));  // seed
  auto key =
      query::BuildQueryKey(obj, *ParseQuery(kQuery), QueryEngine::kRelational);
  if (!key.ok() || !rc.FindDerivationSource(*key)) {
    state.SkipWithError("no derivation source for the query");
    return;
  }
  for (auto _ : state) {
    std::optional<cache::DerivedSource> src = rc.FindDerivationSource(*key);
    auto t = RollupFinalized({src->result.get()}, src->by, src->aggs, key->by);
    benchmark::DoNotOptimize(t->num_rows());
  }
}
BENCHMARK(BM_DeriveRollup)->Unit(benchmark::kMicrosecond);

// End-to-end: the stats_server replay mix against a warm derive-mode cache.
// One priming round, then each iteration replays the whole mix.
void BM_WorkloadReplayWarm(benchmark::State& state) {
  const auto& obj = BigRetail();
  struct Q {
    const char* text;
    QueryEngine engine;
  };
  const Q mix[] = {
      {"SELECT sum(amount) BY store", QueryEngine::kMolap},
      {"SELECT sum(amount) BY store", QueryEngine::kRolap},
      {"SELECT sum(amount) BY city", QueryEngine::kRelational},
      {"SELECT sum(qty), avg(amount) BY category", QueryEngine::kRelational},
      {"SELECT sum(amount) BY month WHERE city = 'city1'",
       QueryEngine::kRelational},
      {"SELECT sum(amount) BY CUBE(city, month)", QueryEngine::kRelational},
      {"SELECT count() WHERE price_range = 'premium'",
       QueryEngine::kRelational},
  };
  auto& rc = cache::ResultCache::Global();
  rc.Clear();
  auto replay = [&](cache::Mode mode) {
    for (const Q& q : mix) {
      QueryOptions o = Opts(mode);
      o.engine = q.engine;
      auto r = QueryProfiled(obj, q.text, o);
      benchmark::DoNotOptimize(r->table->num_rows());
    }
  };
  replay(cache::Mode::kDerive);  // prime
  const auto before = rc.stats();
  for (auto _ : state) replay(cache::Mode::kDerive);
  const auto after = rc.stats();
  const double lookups = double((after.hits - before.hits) +
                                (after.misses - before.misses));
  state.counters["hit_rate"] =
      lookups == 0 ? 0
                   : double((after.hits - before.hits) +
                            (after.derived_hits - before.derived_hits)) /
                         lookups;
  state.counters["queries"] = double(std::size(mix));
}
BENCHMARK(BM_WorkloadReplayWarm)->Unit(benchmark::kMicrosecond);

// The same mix with the cache off: the cold-path baseline WorkloadReplayWarm
// is measured against.
void BM_WorkloadReplayCold(benchmark::State& state) {
  const auto& obj = BigRetail();
  struct Q {
    const char* text;
    QueryEngine engine;
  };
  const Q mix[] = {
      {"SELECT sum(amount) BY store", QueryEngine::kMolap},
      {"SELECT sum(amount) BY store", QueryEngine::kRolap},
      {"SELECT sum(amount) BY city", QueryEngine::kRelational},
      {"SELECT sum(qty), avg(amount) BY category", QueryEngine::kRelational},
      {"SELECT sum(amount) BY month WHERE city = 'city1'",
       QueryEngine::kRelational},
      {"SELECT sum(amount) BY CUBE(city, month)", QueryEngine::kRelational},
      {"SELECT count() WHERE price_range = 'premium'",
       QueryEngine::kRelational},
  };
  for (auto _ : state) {
    for (const Q& q : mix) {
      QueryOptions o = Opts(cache::Mode::kOff);
      o.engine = q.engine;
      auto r = QueryProfiled(obj, q.text, o);
      benchmark::DoNotOptimize(r->table->num_rows());
    }
  }
  state.counters["queries"] = double(std::size(mix));
}
BENCHMARK(BM_WorkloadReplayCold)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace statcube

BENCHMARK_MAIN();
