// Experiments P1 and P4 (DESIGN.md §6, §12): thread sweep of the parallel
// kernels (statcube/exec) over two §6 aggregation shapes — the coded
// group-by and the CUBE lattice built on it. Both run as queries through
// ExecuteQuery: the coded pass (exec::CodedGroupBy) numbers rows into
// group ids over the workers' morsels, the fold adds them on the caller in
// row order, and a CUBE rolls up one grouping set per task per level.
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

// Times `text` through ExecuteQuery with state.range(0) workers.
void RunQuery(benchmark::State& state, const char* text) {
  const StatisticalObject& obj = BigRetail();
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

}  // namespace
}  // namespace statcube

BENCHMARK_MAIN();
