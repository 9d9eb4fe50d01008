// Always-on telemetry demo: replays a mixed OLAP workload in a loop against
// the retail statistical object while the embedded stats server serves the
// numbers. Point a Prometheus scraper (or curl) at it:
//
//   ./build/examples/stats_server --port=8080 &
//   curl localhost:8080/metrics     # Prometheus text, latency histograms
//   curl localhost:8080/profiles    # last N query profiles (flight recorder)
//   curl localhost:8080/statusz     # HTML: uptime, QPS/p99 sparklines
//   curl localhost:8080/tracez      # recent trace trees (?format=json)
//   curl localhost:8080/queryz      # in-flight queries (?format=json)
//   curl localhost:8080/healthz
//
// The workload rotates through the paper's query shapes (rollup by hierarchy
// level, filtered group-by, CUBE) across all three engines, so the §6.6
// ROLAP-vs-MOLAP cost split is visible live in statcube_backend_* counters.
//
// Flags:
//   --port=P           listen port (default 8080; 0 = kernel-assigned)
//   --iterations=N     stop after N workload rounds (default 0 = forever)
//   --delay-ms=D       sleep between queries (default 50)
//   --slow-query-us=T  slow-query log threshold (default 20000)
//   --flight-capacity=N  flight-recorder ring size (default 128, max 65536)
//   --statusz-sample-ms=D  /statusz sampling interval (default 1000)
//   --cache=M          result-cache mode off|derive (default off);
//                      with the cache on, round 1 is cold and every later
//                      round hits — statcube_cache_* in /metrics shows the
//                      hit rate live (the EXPERIMENTS.md P2 recipe)
//   --rows=N           retail workload size in rows (default 20000; the CI
//                      cancellation smoke raises it so queries stay
//                      in-flight long enough to show up on /queryz)
//   --default-deadline-ms=N  per-query execution budget (default 0 = none);
//                      expired queries return DeadlineExceeded and are
//                      recorded with outcome "deadline_exceeded"
//   --max-query-ms=N   stuck-query watchdog hard limit (default 0 = log
//                      only): queries in flight past it are auto-cancelled
//                      (statcube.query.watchdog_cancelled counts them)
//   --quiet            suppress the per-round progress line
//   --no-workload      skip the background replay loop and only serve —
//                      what tools/loadgen wants, so the front door's numbers
//                      are not polluted by the demo workload
//
// Query front door (serve/front_door.h) — POST /query is always on:
//   --max-active=N         queries executing at once (default 4)
//   --max-queue=N          waiters beyond that before 503-shedding (def. 16)
//   --max-wait-ms=N        longest queued wait before shedding (def. 2000)
//                          The HTTP server runs max-active + max-queue + 1
//                          workers: a running or queued query holds one, and
//                          the spare serves /healthz and /metrics while the
//                          gate is full. max-active + max-queue <= 1024.
//   --tenant-max-concurrent=N  per-tenant in-flight cap (default 16)
//   --tenant-qps=Q         per-tenant request rate (default 0 = unlimited)
//   --tenant-burst=B       token-bucket capacity (default max(1, qps))
//   --tenant-bytes-per-sec=N  per-tenant response-byte budget (default 0)
//
//   curl -s localhost:8080/query -d '{"query":"SELECT sum(amount) BY store",
//     "engine":"molap","tenant":"demo"}'
//
// Per-tenant counters land on /statusz (tenants section) and 429s carry a
// Retry-After header computed from the refused bucket's refill rate.
//
// The query lifecycle control plane is live here too: /queryz lists the
// in-flight query with its elapsed wall/CPU time, and
// POST /queryz/cancel?id=N stops it mid-morsel (the profile shows outcome
// "cancelled"). A QueryWatchdog thread sweeps the registry once a second,
// logging a structured stuck_query line for anything slower than 10 s.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "statcube/obs/flight_recorder.h"
#include "statcube/obs/http_server.h"
#include "statcube/obs/log.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/query_registry.h"
#include "statcube/obs/timeseries_ring.h"
#include "statcube/query/parser.h"
#include "statcube/serve/front_door.h"
#include "statcube/workload/retail.h"

using namespace statcube;

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

struct WorkloadQuery {
  const char* text;
  QueryEngine engine;
};

// The replayed mix: every engine answers the same backend-expressible
// queries; rollups and CUBE exercise the relational path.
const WorkloadQuery kWorkload[] = {
    {"SELECT sum(amount) BY store", QueryEngine::kMolap},
    {"SELECT sum(amount) BY store", QueryEngine::kRolap},
    {"SELECT sum(amount) BY store", QueryEngine::kRolapBitmap},
    {"SELECT sum(amount) BY city", QueryEngine::kRelational},
    {"SELECT sum(qty), avg(amount) BY category", QueryEngine::kRelational},
    {"SELECT sum(amount) BY month WHERE city = 'city1'",
     QueryEngine::kRelational},
    {"SELECT sum(amount) BY product WHERE store = 'store2'",
     QueryEngine::kRolap},
    {"SELECT sum(amount) BY CUBE(city, month)", QueryEngine::kRelational},
    {"SELECT count() WHERE price_range = 'premium'",
     QueryEngine::kRelational},
};

}  // namespace

int main(int argc, char** argv) {
  int port = 8080;
  long iterations = 0;
  long delay_ms = 50;
  long slow_query_us = 20000;
  long flight_capacity = 0;  // 0 = keep the default
  long statusz_sample_ms = 1000;
  long rows = 20000;
  long default_deadline_ms = 0;
  long max_query_ms = 0;
  bool quiet = false;
  bool no_workload = false;
  cache::Mode cache_mode = cache::Mode::kOff;
  serve::FrontDoorOptions fdopt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--port=", 0) == 0) {
      port = atoi(arg.c_str() + strlen("--port="));
    } else if (arg.rfind("--iterations=", 0) == 0) {
      iterations = atol(arg.c_str() + strlen("--iterations="));
    } else if (arg.rfind("--delay-ms=", 0) == 0) {
      delay_ms = atol(arg.c_str() + strlen("--delay-ms="));
    } else if (arg.rfind("--slow-query-us=", 0) == 0) {
      slow_query_us = atol(arg.c_str() + strlen("--slow-query-us="));
    } else if (arg.rfind("--flight-capacity=", 0) == 0) {
      flight_capacity = atol(arg.c_str() + strlen("--flight-capacity="));
      if (flight_capacity < 1 ||
          size_t(flight_capacity) > obs::FlightRecorder::kMaxCapacity) {
        fprintf(stderr, "--flight-capacity must be in [1, %zu]\n",
                obs::FlightRecorder::kMaxCapacity);
        return 1;
      }
    } else if (arg.rfind("--statusz-sample-ms=", 0) == 0) {
      statusz_sample_ms = atol(arg.c_str() + strlen("--statusz-sample-ms="));
      if (statusz_sample_ms < 10) {
        fprintf(stderr, "--statusz-sample-ms must be >= 10\n");
        return 1;
      }
    } else if (arg.rfind("--cache=", 0) == 0) {
      auto mode = cache::ModeFromName(arg.substr(strlen("--cache=")));
      if (!mode.ok()) {
        fprintf(stderr, "%s\n", mode.status().ToString().c_str());
        return 1;
      }
      cache_mode = *mode;
    } else if (arg.rfind("--rows=", 0) == 0) {
      rows = atol(arg.c_str() + strlen("--rows="));
      if (rows < 1) {
        fprintf(stderr, "--rows must be >= 1\n");
        return 1;
      }
    } else if (arg.rfind("--default-deadline-ms=", 0) == 0) {
      default_deadline_ms =
          atol(arg.c_str() + strlen("--default-deadline-ms="));
      if (default_deadline_ms < 0) {
        fprintf(stderr, "--default-deadline-ms must be >= 0\n");
        return 1;
      }
    } else if (arg.rfind("--max-query-ms=", 0) == 0) {
      max_query_ms = atol(arg.c_str() + strlen("--max-query-ms="));
      if (max_query_ms < 0) {
        fprintf(stderr, "--max-query-ms must be >= 0\n");
        return 1;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--no-workload") {
      no_workload = true;
    } else if (arg.rfind("--max-active=", 0) == 0) {
      fdopt.queue.max_active = atoi(arg.c_str() + strlen("--max-active="));
      if (fdopt.queue.max_active < 1) {
        fprintf(stderr, "--max-active must be >= 1\n");
        return 1;
      }
    } else if (arg.rfind("--max-queue=", 0) == 0) {
      fdopt.queue.max_queued = atoi(arg.c_str() + strlen("--max-queue="));
      if (fdopt.queue.max_queued < 0) {
        fprintf(stderr, "--max-queue must be >= 0\n");
        return 1;
      }
    } else if (arg.rfind("--max-wait-ms=", 0) == 0) {
      fdopt.queue.max_wait_ms = atoi(arg.c_str() + strlen("--max-wait-ms="));
      if (fdopt.queue.max_wait_ms < 1) {
        fprintf(stderr, "--max-wait-ms must be >= 1\n");
        return 1;
      }
    } else if (arg.rfind("--tenant-max-concurrent=", 0) == 0) {
      fdopt.default_quota.max_concurrent =
          atoi(arg.c_str() + strlen("--tenant-max-concurrent="));
      if (fdopt.default_quota.max_concurrent < 0) {
        fprintf(stderr, "--tenant-max-concurrent must be >= 0\n");
        return 1;
      }
    } else if (arg.rfind("--tenant-qps=", 0) == 0) {
      fdopt.default_quota.rate_qps =
          atof(arg.c_str() + strlen("--tenant-qps="));
      if (fdopt.default_quota.rate_qps < 0) {
        fprintf(stderr, "--tenant-qps must be >= 0\n");
        return 1;
      }
    } else if (arg.rfind("--tenant-burst=", 0) == 0) {
      fdopt.default_quota.burst =
          atof(arg.c_str() + strlen("--tenant-burst="));
      if (fdopt.default_quota.burst < 0) {
        fprintf(stderr, "--tenant-burst must be >= 0\n");
        return 1;
      }
    } else if (arg.rfind("--tenant-bytes-per-sec=", 0) == 0) {
      long v = atol(arg.c_str() + strlen("--tenant-bytes-per-sec="));
      if (v < 0) {
        fprintf(stderr, "--tenant-bytes-per-sec must be >= 0\n");
        return 1;
      }
      fdopt.default_quota.bytes_per_sec = uint64_t(v);
    } else {
      fprintf(stderr,
              "usage: stats_server [--port=P] [--iterations=N] "
              "[--delay-ms=D] [--slow-query-us=T] [--flight-capacity=N] "
              "[--statusz-sample-ms=D] [--cache=off|derive] [--rows=N] "
              "[--default-deadline-ms=N] [--max-query-ms=N] [--quiet] "
              "[--no-workload] [--max-active=N] [--max-queue=N] "
              "[--max-wait-ms=N] [--tenant-max-concurrent=N] "
              "[--tenant-qps=Q] [--tenant-burst=B] "
              "[--tenant-bytes-per-sec=N]\n");
      return arg == "--help" || arg == "-h" ? 0 : 1;
    }
  }
  // Every running or queued query holds an HTTP worker, so the gate sizes
  // the pool; refuse a gate too large to back with threads.
  const long gate =
      long(fdopt.queue.max_active) + long(fdopt.queue.max_queued);
  if (gate > 1024) {
    fprintf(stderr, "--max-active + --max-queue must be <= 1024\n");
    return 1;
  }

  RetailOptions ropt;
  ropt.num_products = 24;
  ropt.num_stores = 8;
  ropt.num_cities = 4;
  ropt.num_days = 30;
  ropt.num_rows = size_t(rows);
  auto data = MakeRetailWorkload(ropt);
  if (!data.ok()) {
    fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  obs::SetEnabled(true);
  obs::FlightRecorder::Global().SetSlowQueryThresholdUs(
      uint64_t(slow_query_us < 0 ? 0 : slow_query_us));
  if (flight_capacity > 0 &&
      !obs::FlightRecorder::Global().SetCapacity(size_t(flight_capacity))) {
    fprintf(stderr, "--flight-capacity=%ld rejected\n", flight_capacity);
    return 1;
  }

  obs::MetricSamplerOptions mopt;
  mopt.interval_ms = int(statusz_sample_ms);
  obs::MetricSampler sampler(mopt);
  sampler.AddDefaultStatuszSeries();
  sampler.Start();

  obs::QueryWatchdogOptions wopt;
  wopt.max_query_us = uint64_t(max_query_ms) * 1000;
  obs::QueryWatchdog watchdog(wopt);
  watchdog.Start();

  obs::StatsServerOptions sopt;
  sopt.port = uint16_t(port);
  sopt.sampler = &sampler;
  sopt.num_workers = int(gate) + 1;
  obs::StatsServer server(sopt);

  // The query front door: POST /query with per-tenant admission control.
  // Client deadlines default to the server-wide --default-deadline-ms and
  // the demo cache mode, so curl without options behaves like the workload.
  fdopt.default_cache = cache_mode;
  fdopt.default_deadline_ms = uint64_t(default_deadline_ms);
  serve::QueryFrontDoor front_door(data->object, fdopt);
  front_door.Register(server);

  auto started = server.Start();
  if (!started.ok()) {
    fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  printf("serving on http://localhost:%u  (/metrics /profiles "
         "/statusz /tracez /queryz /healthz; POST /query); Ctrl-C stops\n",
         unsigned(server.port()));
  fflush(stdout);

  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);

  long round = 0;
  uint64_t queries = 0, errors = 0, stopped = 0;
  while (no_workload && !g_stop.load()) {
    // Serve-only mode: the front door is the sole query source. Keep the
    // process alive (and the sampler ticking) until a signal arrives, or
    // until --iterations rounds' worth of delay in serve-only smoke tests.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (iterations > 0 && ++round >= iterations) break;
  }
  while (!no_workload && !g_stop.load() &&
         (iterations == 0 || round < iterations)) {
    for (const WorkloadQuery& wq : kWorkload) {
      if (g_stop.load()) break;
      QueryOptions qopt;
      qopt.engine = wq.engine;
      qopt.cache = cache_mode;
      qopt.deadline_us = uint64_t(default_deadline_ms) * 1000;
      auto r = QueryProfiled(data->object, wq.text, qopt);
      // Cancelled / expired queries are the control plane doing its job
      // (the CI smoke cancels one on purpose), not workload errors.
      if (r.ok()) {
        ++queries;
      } else if (r.status().code() == StatusCode::kCancelled ||
                 r.status().code() == StatusCode::kDeadlineExceeded) {
        ++stopped;
      } else {
        ++errors;
      }
      if (delay_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    ++round;
    if (!quiet) {
      printf("round %ld: %llu queries, %llu stopped, %llu errors, "
             "%llu profiles retained\n",
             round, (unsigned long long)queries, (unsigned long long)stopped,
             (unsigned long long)errors,
             (unsigned long long)obs::FlightRecorder::Global()
                 .Snapshot()
                 .size());
      fflush(stdout);
    }
  }

  watchdog.Stop();
  server.Stop();
  printf("done: %llu queries, %llu stopped, %llu errors, "
         "%llu http requests served\n",
         (unsigned long long)queries, (unsigned long long)stopped,
         (unsigned long long)errors,
         (unsigned long long)server.requests_served());
  return errors == 0 ? 0 : 1;
}
