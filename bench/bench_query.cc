// Query-language overhead (§5.1): the paper argues explicit statistical
// semantics permit concise query languages; this bench shows the text layer
// costs only parsing — execution is dominated by the same group-by the
// hand-built pipeline runs — and that hierarchy-level inference costs one
// ancestor lookup per distinct leaf plus a memo probe per row.
// TextQueryAtFourThreads times the parallel path across input sizes.
//
// Counters: none; compare wall times of adjacent benchmarks.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

const StatisticalObject& Sales() {
  static StatisticalObject obj = [] {
    RetailOptions opt;
    opt.num_products = 30;
    opt.num_stores = 8;
    opt.num_days = 30;
    opt.num_rows = 20000;
    return MakeRetailWorkload(opt)->object;
  }();
  return obj;
}

void BM_ParseOnly(benchmark::State& state) {
  for (auto _ : state) {
    auto q = ParseQuery(
        "SELECT sum(amount), avg(qty) BY city WHERE product = 'prod1'");
    benchmark::DoNotOptimize(q.ok());
  }
}
BENCHMARK(BM_ParseOnly);

void BM_TextQueryByDimension(benchmark::State& state) {
  (void)Sales();
  for (auto _ : state) {
    auto r = Query(Sales(), "SELECT sum(amount) BY store");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_TextQueryByDimension);

void BM_HandBuiltGroupBy(benchmark::State& state) {
  (void)Sales();
  for (auto _ : state) {
    auto r = GroupBy(Sales().data(), {"store"},
                     {{AggFn::kSum, "amount", "sum_amount"}});
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_HandBuiltGroupBy);

void BM_TextQueryWithHierarchyInference(benchmark::State& state) {
  // "city" is a hierarchy level: each distinct store is rolled up once, and
  // the scan reads every row's city from that memo.
  (void)Sales();
  for (auto _ : state) {
    auto r = Query(Sales(), "SELECT sum(amount) BY city");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_TextQueryWithHierarchyInference);

void BM_TextQueryCube(benchmark::State& state) {
  (void)Sales();
  for (auto _ : state) {
    auto r = Query(Sales(), "SELECT sum(amount) BY CUBE(city, month)");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_TextQueryCube);

void BM_TextQueryRollupFiltered(benchmark::State& state) {
  // The ad-hoc analyst shape: group by one level, filter on a level of
  // another dimension. The scan probes the city memo on every row and the
  // month memo only on the rows the WHERE keeps.
  (void)Sales();
  for (auto _ : state) {
    auto r = Query(Sales(), "SELECT sum(amount) BY month WHERE city = 'city1'");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_TextQueryRollupFiltered);

// The same language at threads = 4 (the CLI's default on a 4-core box)
// through QueryProfiled, cache off: the parallel group-by's fixed cost per
// query shows at the small end. Arg = rows of a seed-17 retail object.
void TextQueryAtFourThreads(benchmark::State& state, const char* text) {
  static std::map<int64_t, std::unique_ptr<StatisticalObject>> objects;
  std::unique_ptr<StatisticalObject>& obj = objects[state.range(0)];
  if (obj == nullptr) {
    RetailOptions opt;
    opt.num_rows = int(state.range(0));
    opt.seed = 17;
    obj = std::make_unique<StatisticalObject>(MakeRetailWorkload(opt)->object);
  }
  QueryOptions o;
  o.threads = 4;
  o.record = false;
  for (auto _ : state) {
    auto r = QueryProfiled(*obj, text, o);
    benchmark::DoNotOptimize(r->table.num_rows());
  }
}
BENCHMARK_CAPTURE(TextQueryAtFourThreads, by_store,
                  "SELECT sum(amount) BY store")
    ->Arg(600)->Arg(5000)->Arg(30000)->Arg(200000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(TextQueryAtFourThreads, by_city,
                  "SELECT sum(amount), avg(qty) BY city")
    ->Arg(600)->Arg(5000)->Arg(30000)->Arg(200000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(TextQueryAtFourThreads, cube,
                  "SELECT sum(amount) BY CUBE(city, month)")
    ->Arg(600)->Arg(5000)->Arg(30000)->Arg(200000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace statcube

BENCHMARK_MAIN();
