// Experiment P2 (DESIGN.md §7): what the result cache buys on the hot query
// path. Four costs on the same 200k-row retail object:
//
//   ColdExecute  — the backend price a miss pays (cache off),
//   KeyBuild     — the fixed per-query overhead the cache adds (normalize +
//                  fingerprint; paid on every cached query, hit or miss),
//   WarmHit      — exact-key reuse,
//   DerivedHit   — lattice roll-up from a cached superset grouping
//                  (BY product, store answered from cache, regrouped BY
//                  store), per thread count,
//
// plus WorkloadReplayWarm: the stats_server query mix (§ examples/) replayed
// against a warm cache in derive mode — the end-to-end speedup the
// EXPERIMENTS.md P2 recipe measures from /metrics. Counter hit_rate is
// (hits + derived_hits) / (hits + misses) over the run.

#include <benchmark/benchmark.h>

#include "statcube/query/cache_key.h"
#include "statcube/cache/result_cache.h"
#include "statcube/query/parser.h"
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

QueryOptions Opts(cache::Mode mode, int threads = 1) {
  QueryOptions o;
  o.cache = mode;
  o.threads = threads;
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

// Fixed overhead the cache adds to every query: canonical key construction
// (dataset fingerprint + normalized group-by/WHERE).
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
  rc.set_admit_min_us(0);
  rc.Clear();
  (void)QueryProfiled(obj, kQuery, Opts(cache::Mode::kOn));  // seed
  for (auto _ : state) {
    auto r = QueryProfiled(obj, kQuery, Opts(cache::Mode::kOn));
    benchmark::DoNotOptimize(r->table->num_rows());
  }
}
BENCHMARK(BM_WarmHit)->Unit(benchmark::kMicrosecond);

// Lattice roll-up: only the superset grouping is cached; every iteration
// regroups its 600 rows instead of scanning 200k. Arg(N) = rollup threads.
void BM_DerivedHit(benchmark::State& state) {
  const auto& obj = BigRetail();
  auto& rc = cache::ResultCache::Global();
  rc.set_admit_min_us(0);
  rc.Clear();
  (void)QueryProfiled(obj, kSuperset, Opts(cache::Mode::kDerive));  // seed
  // Keep the derived result OUT of the cache (it would turn iteration 2
  // into an exact hit): raise the admission bar so only the seeded superset
  // stays resident and every iteration re-derives.
  rc.set_admit_min_us(uint64_t(1) << 60);
  const int threads = int(state.range(0));
  for (auto _ : state) {
    auto r = QueryProfiled(obj, kQuery, Opts(cache::Mode::kDerive, threads));
    benchmark::DoNotOptimize(r->table->num_rows());
  }
  rc.set_admit_min_us(0);
  state.counters["threads"] = double(threads);
}
BENCHMARK(BM_DerivedHit)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

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
  rc.set_admit_min_us(0);
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
