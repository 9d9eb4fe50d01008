// Serving-layer overhead: what the front door adds on top of the query it
// admits. The admission cycle (TenantRegistry::Admit + Release) and the
// execute-or-shed gate (AdmissionQueue::Enter + Exit) are priced alone —
// they run under one mutex each, so their cost bounds the serving layer's
// scalability — then ServeRequest is measured end to end against the same
// query issued through QueryProfiled directly, making the envelope cost
// (JSON parse, validation, admission, result encoding) visible as the
// difference. Rejection paths are benchmarked too: a 429 must be far
// cheaper than the query it refuses, or shedding does not shed load.
//
// Counters: BM_ServeCachedHit's response_kb (the envelope it sends);
// otherwise compare wall times of adjacent benchmarks.

#include <benchmark/benchmark.h>

#include <string>

#include "statcube/cache/result_cache.h"
#include "statcube/obs/http_server.h"
#include "statcube/query/parser.h"
#include "statcube/serve/admission_queue.h"
#include "statcube/serve/front_door.h"
#include "statcube/serve/json_value.h"
#include "statcube/serve/tenant_registry.h"
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

constexpr char kBody[] =
    R"({"query":"SELECT sum(amount) BY store","tenant":"bench"})";

// --------------------------------------------------------- admission cycle

void BM_TenantAdmitRelease(benchmark::State& state) {
  serve::TenantQuota quota;
  quota.rate_qps = 1e12;  // bucket arithmetic runs, never rejects
  quota.burst = 1e12;
  quota.bytes_per_sec = 1'000'000'000;
  quota.byte_burst = 1'000'000'000;
  serve::TenantRegistry tenants(quota);
  for (auto _ : state) {
    serve::Admission a = tenants.Admit("bench");
    benchmark::DoNotOptimize(a.ok());
    tenants.Release("bench", 1024, true);
  }
}
BENCHMARK(BM_TenantAdmitRelease);

void BM_TenantAdmitRejectedRate(benchmark::State& state) {
  serve::TenantQuota quota;
  quota.rate_qps = 1e-9;  // bucket effectively never refills
  quota.burst = 1;
  serve::TenantRegistry tenants(quota);
  (void)tenants.Admit("bench");  // spend the only token
  tenants.Release("bench", 0, true);
  for (auto _ : state) {
    serve::Admission a = tenants.Admit("bench");
    benchmark::DoNotOptimize(a.retry_after_ms);
  }
}
BENCHMARK(BM_TenantAdmitRejectedRate);

void BM_QueueEnterExit(benchmark::State& state) {
  serve::AdmissionQueue gate(
      {.max_active = 4, .max_queued = 16, .max_wait_ms = 1000});
  for (auto _ : state) {
    serve::EnterOutcome e = gate.Enter();
    benchmark::DoNotOptimize(e);
    gate.Exit();
  }
}
BENCHMARK(BM_QueueEnterExit);

// ------------------------------------------------------------ request JSON

void BM_ParseRequestJson(benchmark::State& state) {
  const std::string body = kBody;
  for (auto _ : state) {
    auto v = serve::ParseJson(body);
    benchmark::DoNotOptimize(v.ok());
  }
}
BENCHMARK(BM_ParseRequestJson);

// ------------------------------------------------- end-to-end serving path

void BM_ServeRequestOk(benchmark::State& state) {
  (void)Sales();
  serve::QueryFrontDoor door(Sales());
  obs::HttpRequest req;
  req.method = "POST";
  req.path = "/query";
  req.body = kBody;
  for (auto _ : state) {
    obs::HttpResponse resp = door.ServeRequest(req);
    benchmark::DoNotOptimize(resp.body.size());
  }
}
BENCHMARK(BM_ServeRequestOk);

// The same query through QueryProfiled directly: the difference vs
// BM_ServeRequestOk is the serving envelope.
void BM_QueryProfiledDirect(benchmark::State& state) {
  (void)Sales();
  QueryOptions qopt;
  qopt.tenant = "bench";
  for (auto _ : state) {
    auto r = QueryProfiled(Sales(), "SELECT sum(amount) BY store", qopt);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_QueryProfiledDirect);

void BM_ServeRequestRejected429(benchmark::State& state) {
  serve::FrontDoorOptions opt;
  opt.default_quota.rate_qps = 1e-9;
  opt.default_quota.burst = 1;
  serve::QueryFrontDoor door(Sales(), opt);
  obs::HttpRequest req;
  req.method = "POST";
  req.path = "/query";
  req.body = kBody;
  (void)door.ServeRequest(req);  // spend the token
  for (auto _ : state) {
    obs::HttpResponse resp = door.ServeRequest(req);
    benchmark::DoNotOptimize(resp.status);
  }
}
BENCHMARK(BM_ServeRequestRejected429);

void BM_ServeRequestBadJson400(benchmark::State& state) {
  serve::QueryFrontDoor door(Sales());
  obs::HttpRequest req;
  req.method = "POST";
  req.path = "/query";
  req.body = "{\"query\":";  // truncated
  for (auto _ : state) {
    obs::HttpResponse resp = door.ServeRequest(req);
    benchmark::DoNotOptimize(resp.status);
  }
}
BENCHMARK(BM_ServeRequestBadJson400);

// A warm dashboard panel: the finest one (BY product, store: about 7.8k
// rows) over a 50k-row retail object, answered from the result cache. A hit
// shares the cached table and splices its stored encoding into the
// envelope, so what remains is the request parse, admission, the key build
// and copying the stored bytes into the envelope.
void BM_ServeCachedHit(benchmark::State& state) {
  static const StatisticalObject* obj = [] {
    RetailOptions opt;
    opt.num_products = 200;
    opt.num_categories = 8;
    opt.num_stores = 40;
    opt.num_cities = 8;
    opt.num_days = 360;
    opt.num_rows = 50000;
    return new StatisticalObject(MakeRetailWorkload(opt)->object);
  }();
  auto& rc = cache::ResultCache::Global();
  rc.set_admit_min_us(0);
  rc.Clear();
  serve::QueryFrontDoor door(*obj);
  obs::HttpRequest req;
  req.method = "POST";
  req.path = "/query";
  req.body =
      R"({"query":"SELECT sum(amount), sum(qty) BY product, store",)"
      R"("cache":"derive","tenant":"bench"})";
  (void)door.ServeRequest(req);  // the miss that admits the answer
  if (door.ServeRequest(req).body.find(R"("cache":"hit")") ==
      std::string::npos) {
    state.SkipWithError("the panel is not answered from the cache");
    return;
  }
  size_t bytes = 0;
  for (auto _ : state) {
    obs::HttpResponse resp = door.ServeRequest(req);
    bytes = resp.body.size();
    benchmark::DoNotOptimize(bytes);
  }
  rc.Clear();
  rc.set_admit_min_us(cache::ResultCache::Options().admit_min_us);
  state.counters["response_kb"] = double(bytes) / 1024;
}
BENCHMARK(BM_ServeCachedHit)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------- result encoding

void BM_TableToJson(benchmark::State& state) {
  auto r = Query(Sales(), "SELECT sum(amount) BY product, store");
  for (auto _ : state) {
    std::string json = serve::TableToJson(*r);
    benchmark::DoNotOptimize(json.size());
  }
}
BENCHMARK(BM_TableToJson);

}  // namespace
}  // namespace statcube

BENCHMARK_MAIN();
