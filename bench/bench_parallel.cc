// Experiments P1 and P4 (DESIGN.md §6, §12): thread sweep of the parallel
// kernels (statcube/exec) over two §6 aggregation shapes — the coded
// group-by and the CUBE built on it. Both run as queries through
// ExecuteQuery: the coded pass (exec::CodedGroupBy) packs each row's BY
// codes into a key over the workers' morsels, and the fold adds the rows
// on the caller in row order into per-function slot arrays — a slot per
// key when the key space is dense, else per group id numbered in
// first-occurrence order. A CUBE numbers its keys and rolls its finest
// grouping up through CubeBy's lattice on the caller, so only its pass
// scales with the workers.
// BM_ExecuteFinestPanel is the dashboard's finest panel at one thread, at
// a size whose fold state does not fit in the L1 cache.
// Arg(N) is the worker count (1/2/4/8); the 1-thread row is the serial
// baseline cost, so speedup(N) = real_time(1) / real_time(N). On a machine
// with fewer cores than N the pool oversubscribes (EnsureThreads), which
// bounds but does not fake the scaling curve — record the core count with
// the numbers.
//
// Determinism of the measured WORK: the dataset seed is pinned (seed 17,
// 200k rows) so every run — and both sides of a tools/bench_diff.py
// comparison — aggregates the exact same rows; a drifting dataset would
// make cross-commit real_time deltas meaningless.
//
// Counters: threads, rows processed per iteration.

#include <benchmark/benchmark.h>

#include "statcube/exec/parallel_kernels.h"
#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

// One big retail object shared by every group-by/CUBE case: ~200k fact rows
// over 50 products x 12 stores x 60 days, Zipf-skewed. The seed is pinned
// so baseline and candidate commits measure identical work (see the file
// comment).
const StatisticalObject& BigRetail() {
  static const StatisticalObject* obj = [] {
    RetailOptions opt;
    opt.num_rows = 200000;
    opt.seed = 17;  // pinned: never change without regenerating baselines
    return new StatisticalObject(MakeRetailWorkload(opt)->object);
  }();
  return *obj;
}

// The dashboard's finest panel at its post-append size: 90,000 rows over
// 200 products x 40 stores, about 8,000 groups. Its fold state outgrows
// the L1 cache, which BigRetail's 600 groups fit in. Seed pinned as above.
const StatisticalObject& PanelRetail() {
  static const StatisticalObject* obj = [] {
    RetailOptions opt;
    opt.num_products = 200;
    opt.num_stores = 40;
    opt.num_cities = 8;
    opt.num_days = 360;
    opt.num_rows = 90000;
    opt.seed = 17;
    return new StatisticalObject(MakeRetailWorkload(opt)->object);
  }();
  return *obj;
}

// Times `text` over `obj` through ExecuteQuery with state.range(0) workers.
void RunQuery(benchmark::State& state, const char* text,
              const StatisticalObject& obj = BigRetail()) {
  const ParsedQuery q = ParseQuery(text).ValueOrDie();
  for (auto _ : state) {
    auto t = ExecuteQuery(obj, q, int(state.range(0)));
    benchmark::DoNotOptimize(t->num_rows());
  }
  state.counters["threads"] = double(state.range(0));
  state.counters["rows"] = double(obj.data().num_rows());
}

void BM_ExecuteGroupBy(benchmark::State& state) {
  RunQuery(state, "SELECT sum(amount), count(qty) BY product, store");
}
BENCHMARK(BM_ExecuteGroupBy)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ExecuteCubeBy(benchmark::State& state) {
  RunQuery(state, "SELECT sum(amount) BY CUBE(category, city, month)");
}
BENCHMARK(BM_ExecuteCubeBy)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ExecuteFinestPanel(benchmark::State& state) {
  RunQuery(state, "SELECT sum(amount), sum(qty) BY product, store",
           PanelRetail());
}
BENCHMARK(BM_ExecuteFinestPanel)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace statcube

BENCHMARK_MAIN();
