// Query-language overhead (§5.1): the paper argues explicit statistical
// semantics permit concise query languages; this bench shows the text layer
// costs only parsing plus the executor, which runs on the object's code
// columns, and that hierarchy-level inference costs one ancestor lookup per
// distinct leaf. BM_TextQuery* time ExecuteQuery(ParseQuery(...)) at one
// thread; BM_TextQueryReference times the same filtered roll-up through
// Query(), the row-at-a-time reference, so the gap shows.
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

// The production path: parse, then the executor at one thread.
Result<Table> Run(const std::string& text) {
  STATCUBE_ASSIGN_OR_RETURN(ParsedQuery q, ParseQuery(text));
  return ExecuteQuery(Sales(), q);
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
    auto r = Run("SELECT sum(amount) BY store");
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
  // the pass reads every row's city through the store -> city code map.
  (void)Sales();
  for (auto _ : state) {
    auto r = Run("SELECT sum(amount) BY city");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_TextQueryWithHierarchyInference);

void BM_TextQueryCube(benchmark::State& state) {
  (void)Sales();
  for (auto _ : state) {
    auto r = Run("SELECT sum(amount) BY CUBE(city, month)");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_TextQueryCube);

void BM_TextQueryRollupFiltered(benchmark::State& state) {
  // The ad-hoc analyst shape: group by one level, filter on a level of
  // another dimension. The WHERE is one keep byte per store code, the BY
  // one month code per day code.
  (void)Sales();
  for (auto _ : state) {
    auto r = Run("SELECT sum(amount) BY month WHERE city = 'city1'");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_TextQueryRollupFiltered);

void BM_TextQueryReference(benchmark::State& state) {
  // BM_TextQueryRollupFiltered through Query(): a memo probe and a Value
  // compare per row, a Row per kept row, then the serial group-by.
  (void)Sales();
  for (auto _ : state) {
    auto r =
        Query(Sales(), "SELECT sum(amount) BY month WHERE city = 'city1'");
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_TextQueryReference);

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
    benchmark::DoNotOptimize(r->table->num_rows());
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
