// Ablation bench for DESIGN.md's design choices:
//  * backend: MOLAP array vs plain ROLAP scan vs ROLAP with bitmap indexes
//    (the ROLAP proponents' "encoding and compression" rebuttal, §6.6) —
//    what a query pays per call once built, and what a cube-engine request
//    pays end to end: the build from the object's code columns and one
//    GroupBySum, on the census object of the sdb_census workload;
//  * summarizability enforcement: what the §3.3.2 safety checks cost per
//    roll-up;
//  * weighted-average maintenance: the §5.1 sum/count bookkeeping vs naive
//    unweighted cells.
//
// Counters: bytes (read per query), store_bytes.

#include <benchmark/benchmark.h>

#include "statcube/olap/backend.h"
#include "statcube/olap/operators.h"
#include "statcube/olap/sparse_cube.h"
#include "statcube/workload/census.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

const RetailData& Data() {
  static RetailData data = [] {
    RetailOptions opt;
    opt.num_products = 40;
    opt.num_stores = 10;
    opt.num_days = 60;
    opt.num_rows = 25000;
    return *MakeRetailWorkload(opt);
  }();
  return data;
}

void RunBackend(benchmark::State& state, CubeBackend* backend) {
  int i = 0;
  for (auto _ : state) {
    backend->counter().Reset();
    double v = *backend->Sum(
        {{"product", Value("prod" + std::to_string(i % 40))}});
    benchmark::DoNotOptimize(v);
    ++i;
  }
  state.counters["bytes"] = double(backend->counter().bytes_read());
  state.counters["store_bytes"] = double(backend->ByteSize());
}

void BM_BackendMolap(benchmark::State& state) {
  auto b = MakeMolapBackend(Data().object, "amount").ValueOrDie();
  RunBackend(state, b.get());
}
BENCHMARK(BM_BackendMolap);

void BM_BackendRolapScan(benchmark::State& state) {
  auto b = MakeRolapBackend(Data().object, "amount").ValueOrDie();
  RunBackend(state, b.get());
}
BENCHMARK(BM_BackendRolapScan);

void BM_BackendRolapBitmap(benchmark::State& state) {
  auto b = MakeRolapBackend(Data().object, "amount",
                            {.build_bitmap_indexes = true})
               .ValueOrDie();
  RunBackend(state, b.get());
}
BENCHMARK(BM_BackendRolapBitmap);

// The census object of e2e_bench's sdb_census: 20 states x 10 counties in
// 4 regions, 43,200 dense cells.
const StatisticalObject& Census() {
  static StatisticalObject obj = [] {
    CensusOptions opt;
    opt.num_states = 20;
    opt.counties_per_state = 10;
    opt.states_per_region = 5;
    return *MakeCensusWorkload(opt);
  }();
  return obj;
}

enum class Engine { kMolap, kRolap, kRolapBitmap };

Result<std::unique_ptr<CubeBackend>> Build(Engine engine) {
  switch (engine) {
    case Engine::kMolap:
      return MakeMolapBackend(Census(), "population");
    case Engine::kRolap:
      return MakeRolapBackend(Census(), "population");
    case Engine::kRolapBitmap:
      return MakeRolapBackend(Census(), "population",
                              {.build_bitmap_indexes = true});
  }
  return Status::Internal("unknown engine");
}

// What QueryProfiled pays per cube-engine request before it can answer.
void BM_BackendBuild(benchmark::State& state, Engine engine) {
  (void)Census();
  size_t bytes = 0;
  for (auto _ : state) {
    auto b = Build(engine).ValueOrDie();
    bytes = b->ByteSize();
    benchmark::DoNotOptimize(b.get());
  }
  state.counters["store_bytes"] = double(bytes);
}
BENCHMARK_CAPTURE(BM_BackendBuild, molap, Engine::kMolap);
BENCHMARK_CAPTURE(BM_BackendBuild, rolap, Engine::kRolap);
BENCHMARK_CAPTURE(BM_BackendBuild, rolap_bitmap, Engine::kRolapBitmap);

// An sdb_census shape on a built backend: population by race and sex in
// one year, at one worker.
void BM_BackendGroupBySum(benchmark::State& state, Engine engine) {
  auto b = Build(engine).ValueOrDie();
  CubeQuery q;
  q.group_dims = {"race", "sex"};
  q.filters = {{"year", Value(int64_t(1991))}};
  size_t rows = 0;
  for (auto _ : state) {
    Table t = b->GroupBySum(q).ValueOrDie();
    rows = t.num_rows();
    benchmark::DoNotOptimize(t);
  }
  state.counters["rows"] = double(rows);
}
BENCHMARK_CAPTURE(BM_BackendGroupBySum, molap, Engine::kMolap);
BENCHMARK_CAPTURE(BM_BackendGroupBySum, rolap, Engine::kRolap);
BENCHMARK_CAPTURE(BM_BackendGroupBySum, rolap_bitmap, Engine::kRolapBitmap);

void BM_BackendSparseMolap(benchmark::State& state) {
  // The header-compressed MOLAP flavor: pays a log factor per slab segment,
  // stores only occupied runs.
  auto cube = SparseMolapCube::Build(Data().object, "amount").ValueOrDie();
  int i = 0;
  for (auto _ : state) {
    double v =
        *cube.SumWhere({{"product", Value("prod" + std::to_string(i % 40))}});
    benchmark::DoNotOptimize(v);
    ++i;
  }
  state.counters["store_bytes"] = double(cube.ByteSize());
  state.counters["compression_x"] = cube.compression_ratio();
}
BENCHMARK(BM_BackendSparseMolap);

void BM_RollupWithEnforcement(benchmark::State& state) {
  const StatisticalObject& obj = Data().object;
  for (auto _ : state) {
    auto r = SAggregate(obj, "store", "by_city", 1,
                        {.enforce_summarizability = true});
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_RollupWithEnforcement);

void BM_RollupWithoutEnforcement(benchmark::State& state) {
  const StatisticalObject& obj = Data().object;
  for (auto _ : state) {
    auto r = SAggregate(obj, "store", "by_city", 1,
                        {.enforce_summarizability = false});
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_RollupWithoutEnforcement);

void BM_ProjectWeightedAvg(benchmark::State& state) {
  // Object with an avg measure + weight: the §5.1 bookkeeping.
  StatisticalObject obj("w");
  (void)obj.AddDimension(Dimension("a"));
  (void)obj.AddDimension(Dimension("b"));
  (void)obj.AddMeasure({"avg_v", "", MeasureType::kValuePerUnit, AggFn::kAvg,
                        "n"});
  (void)obj.AddMeasure({"n", "", MeasureType::kFlow, AggFn::kSum, ""});
  for (int a = 0; a < 100; ++a)
    for (int b = 0; b < 50; ++b)
      (void)obj.AddCell({Value("a" + std::to_string(a)),
                         Value("b" + std::to_string(b))},
                        {Value(double(a + b)), Value(int64_t(1 + b))});
  for (auto _ : state) {
    auto r = SProject(obj, "b", {.enforce_summarizability = false});
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_ProjectWeightedAvg);

void BM_ProjectUnweightedAvg(benchmark::State& state) {
  StatisticalObject obj("u");
  (void)obj.AddDimension(Dimension("a"));
  (void)obj.AddDimension(Dimension("b"));
  (void)obj.AddMeasure({"avg_v", "", MeasureType::kValuePerUnit, AggFn::kAvg,
                        ""});
  for (int a = 0; a < 100; ++a)
    for (int b = 0; b < 50; ++b)
      (void)obj.AddCell({Value("a" + std::to_string(a)),
                         Value("b" + std::to_string(b))},
                        {Value(double(a + b))});
  for (auto _ : state) {
    auto r = SProject(obj, "b", {.enforce_summarizability = false});
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_ProjectUnweightedAvg);

}  // namespace
}  // namespace statcube

BENCHMARK_MAIN();
