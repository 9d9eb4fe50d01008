// Observability overhead: the v2 instrumentation contract is that a query
// with observability DISABLED pays only relaxed atomic loads and branches
// at every instrumentation site (<3% vs an uninstrumented build), while
// ENABLED adds span recording, per-worker resource attribution, and metric
// counters. Adjacent disabled/enabled pairs make the cost visible; the
// sampler benchmarks price one /statusz tick and one sparkline render.
//
// Counters: none; compare wall times of adjacent benchmarks.

#include <benchmark/benchmark.h>

#include <atomic>

#include "statcube/common/cancellation.h"
#include "statcube/exec/task_scheduler.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/query_profile.h"
#include "statcube/obs/query_registry.h"
#include "statcube/obs/timeseries_ring.h"
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

// ------------------------------------ query path, instrumentation off/on

void BM_QueryObsDisabled(benchmark::State& state) {
  (void)Sales();
  obs::EnabledScope off(false);
  for (auto _ : state) {
    auto q = ParseQuery("SELECT sum(amount) BY store");
    auto r = ExecuteQuery(Sales(), *q);
    benchmark::DoNotOptimize(r->num_rows());
  }
}
BENCHMARK(BM_QueryObsDisabled);

void BM_QueryObsEnabled(benchmark::State& state) {
  (void)Sales();
  obs::EnabledScope on(true);
  for (auto _ : state) {
    QueryOptions opt;
    opt.record = false;  // price the instrumentation, not the recorder copy
    auto r = QueryProfiled(Sales(), "SELECT sum(amount) BY store", opt);
    benchmark::DoNotOptimize(r->table.num_rows());
  }
}
BENCHMARK(BM_QueryObsEnabled);

// ------------------------- parallel fan-out, instrumentation off/on

void RunFanout(exec::TaskScheduler& pool) {
  exec::ParallelForOptions opt;
  opt.scheduler = &pool;
  opt.morsel_size = 256;
  opt.max_workers = 4;
  std::atomic<uint64_t> sum{0};
  exec::ParallelFor(
      16384,
      [&sum](size_t, size_t begin, size_t end) {
        uint64_t local = 0;
        for (size_t i = begin; i < end; ++i) local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
      },
      opt);
  benchmark::DoNotOptimize(sum.load());
}

void BM_ParallelForObsDisabled(benchmark::State& state) {
  obs::EnabledScope off(false);
  exec::TaskScheduler pool(4);
  for (auto _ : state) RunFanout(pool);
}
BENCHMARK(BM_ParallelForObsDisabled);

void BM_ParallelForObsEnabledTraced(benchmark::State& state) {
  obs::EnabledScope on(true);
  exec::TaskScheduler pool(4);
  for (auto _ : state) {
    obs::ProfileScope scope;  // full context: trace + resource accumulator
    RunFanout(pool);
    benchmark::DoNotOptimize(scope.Take().resources.cpu_us);
  }
}
BENCHMARK(BM_ParallelForObsEnabledTraced);

// -------------------- cancellation checks, disarmed vs armed (PR 7 bar)

// Same fan-out with no stop context (the default every pre-existing caller
// gets: one null test per morsel) vs an armed-but-never-fired context (one
// relaxed token load + deadline compare per morsel). Adjacent pairs keep
// the <3% disabled-path bar measurable.
void RunFanoutWithStop(exec::TaskScheduler& pool, const CancelContext* stop) {
  exec::ParallelForOptions opt;
  opt.scheduler = &pool;
  opt.morsel_size = 256;
  opt.max_workers = 4;
  opt.stop = stop;
  std::atomic<uint64_t> sum{0};
  exec::ParallelFor(
      16384,
      [&sum](size_t, size_t begin, size_t end) {
        uint64_t local = 0;
        for (size_t i = begin; i < end; ++i) local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
      },
      opt);
  benchmark::DoNotOptimize(sum.load());
}

void BM_ParallelForCancelDisabled(benchmark::State& state) {
  obs::EnabledScope off(false);
  exec::TaskScheduler pool(4);
  for (auto _ : state) RunFanoutWithStop(pool, nullptr);
}
BENCHMARK(BM_ParallelForCancelDisabled);

void BM_ParallelForCancelArmed(benchmark::State& state) {
  obs::EnabledScope off(false);
  exec::TaskScheduler pool(4);
  CancellationToken token;
  CancelContext stop;
  stop.token = &token;
  stop.deadline_us = SteadyNowUs() + 3600ull * 1000 * 1000;  // never fires
  for (auto _ : state) RunFanoutWithStop(pool, &stop);
}
BENCHMARK(BM_ParallelForCancelArmed);

// The per-query registry rendezvous QueryProfiled added: one Register +
// one Unregister (two map ops under an uncontended mutex) per query.
void BM_QueryRegistryEnterExit(benchmark::State& state) {
  CancellationToken token;
  for (auto _ : state) {
    obs::ActiveQueryInfo info;
    info.query = "SELECT sum(amount) BY store";
    info.engine = "relational";
    info.cache_mode = "off";
    info.threads = 4;
    info.token = token;
    obs::ActiveQueryScope scope(std::move(info));
    benchmark::DoNotOptimize(scope.id());
  }
}
BENCHMARK(BM_QueryRegistryEnterExit);

// ----------------------------------------------- /statusz sampling costs

void BM_SamplerTick(benchmark::State& state) {
  obs::MetricSamplerOptions opt;
  opt.ring_capacity = 120;
  opt.percentile_window = 30;
  obs::MetricSampler sampler(opt);
  sampler.AddDefaultStatuszSeries();
  obs::Histogram& lat =
      obs::MetricsRegistry::Global().GetHistogram("statcube.query.latency_us");
  for (auto _ : state) {
    lat.Observe(1234.0);  // keep the window non-degenerate
    sampler.SampleOnce();
  }
}
BENCHMARK(BM_SamplerTick);

void BM_RingPush(benchmark::State& state) {
  obs::TimeSeriesRing ring(120);
  double v = 0;
  for (auto _ : state) ring.Push(v += 1.0);
  benchmark::DoNotOptimize(ring.Last());
}
BENCHMARK(BM_RingPush);

void BM_RingSnapshot(benchmark::State& state) {
  obs::TimeSeriesRing ring(120);
  for (int i = 0; i < 240; ++i) ring.Push(double(i));
  for (auto _ : state) {
    auto snap = ring.Snapshot();
    benchmark::DoNotOptimize(snap.data());
  }
}
BENCHMARK(BM_RingSnapshot);

}  // namespace
}  // namespace statcube

BENCHMARK_MAIN();
