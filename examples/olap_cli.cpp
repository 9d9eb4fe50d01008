// Interactive query console driving the concise query language of §5.1.
// With no arguments it queries the built-in retail statistical object; pass
// a path to a file written by ExportObject (statcube/io/csv.h) to query your
// own data. Reads queries from stdin; with no piped input it runs a
// scripted demo. Commands: \d describes the object, \e exports it, \m dumps
// the metrics registry, \p dumps the flight recorder as JSON, \q quits.
//
// Observability: `--profile` runs every query under a profile scope and
// prints the span tree, per-operator row counts, and block I/O after each
// result; `EXPLAIN PROFILE <query>` does the same for a single query.
// `--engine=molap|rolap|rolap+bitmap` routes backend-expressible queries
// (single SUM over dimensions) through that physical organization instead of
// the relational executor — the §6.6 comparison, one flag apart. Like
// --cache, it sends every query through QueryProfiled, which owns that
// route, even without --profile.
//
// Parallelism: `--threads=N` runs the coded group-by's pass (statcube/exec)
// over N workers' morsels, and CUBE's grouping sets within a lattice level;
// its fold adds the rows on the caller in row order. Results are
// bit-identical to serial execution at any thread count, and EXPLAIN
// PROFILE shows the pass's coded_pass[...] morsel spans, the fold's
// vec.aggregate and the emit's vec.emit. The default comes from the STATCUBE_THREADS environment
// variable, falling back to the hardware concurrency; `--threads=1` runs
// the same kernel on the caller. The worker pool is built at startup, so
// /metrics shows statcube.exec.pool_size immediately.
//
// Caching: `--cache=off|derive` answers repeated queries from the result
// cache (`derive` reuses exact answers and rolls up cached supersets
// through the lattice; see cache/result_cache.h). Cached answers are
// bit-identical to direct execution; the profile's `cache:` line shows
// hit / derived / miss, and statcube.cache.* metrics land in \m and /metrics.
// Any --cache mode routes queries through QueryProfiled even without
// --profile, so admission can see execution timings.
//
// Serving: `--serve=PORT` runs the embedded stats server for the session's
// lifetime (and implies --profile, so every query is recorded), so
// `curl localhost:PORT/metrics` (or /profiles, /statusz, /healthz)
// works while you type queries; `--slow-query-us=N` makes any profiled query
// slower than N microseconds emit one structured slow-query log line to
// stderr. Profiled queries land in the flight recorder either way (`\p`
// dumps it). For an always-on serving demo see examples/stats_server.cpp.
//
// Deadlines: `--deadline-ms=N` gives every query an execution budget; a
// query that runs past it stops at the next morsel / row-batch boundary and
// reports DeadlineExceeded (the profile records outcome
// "deadline_exceeded"). Implies the profiled path, like --cache.
//
// Run: ./build/examples/olap_cli [--profile] [--engine=E] [--threads=N]
//          [--cache=M] [--serve=PORT] [--slow-query-us=N]
//          [--flight-capacity=N] [--statusz-sample-ms=D] [--deadline-ms=N]
//          [object-file]
//      echo "EXPLAIN PROFILE SELECT sum(amount) BY city" | ./build/examples/olap_cli
//
// Parser/executor errors go to stderr and make the exit code nonzero, so
// profile output on stdout stays machine-separable from failures.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "statcube/exec/task_scheduler.h"
#include "statcube/io/csv.h"
#include "statcube/obs/flight_recorder.h"
#include "statcube/obs/http_server.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/timeseries_ring.h"
#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

using namespace statcube;

namespace {

struct CliOptions {
  bool profile = false;
  QueryEngine engine = QueryEngine::kRelational;
  int threads = exec::DefaultThreads();  // --threads=N / STATCUBE_THREADS
  int serve_port = -1;          // --serve=PORT; -1 = no server
  long slow_query_us = -1;      // --slow-query-us=N; -1 = leave default
  long flight_capacity = -1;    // --flight-capacity=N; -1 = leave default
  long statusz_sample_ms = 1000;  // --statusz-sample-ms=D
  long deadline_ms = 0;           // --deadline-ms=N; 0 = no deadline
  cache::Mode cache = cache::Mode::kOff;  // --cache=off|derive
  std::string object_file;
};

// Returns false on a parser/executor error (already reported to stderr).
bool Execute(const StatisticalObject& obj, const std::string& text,
             const CliOptions& cli) {
  auto parsed = ParseQuery(text);
  if (!parsed.ok()) {
    fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return false;
  }
  // Cube engines, caching and deadlines need the profiled path:
  // QueryProfiled owns the backend route, the cache lookup/insert, the
  // execution timing that drives admission, and the deadline/cancellation
  // plumbing. Without --profile the profile itself is simply not printed.
  if (cli.profile || parsed->explain_profile ||
      cli.engine != QueryEngine::kRelational ||
      cli.cache != cache::Mode::kOff || cli.deadline_ms > 0) {
    QueryOptions opt;
    opt.engine = cli.engine;
    opt.threads = cli.threads;
    opt.cache = cli.cache;
    opt.deadline_us = uint64_t(cli.deadline_ms) * 1000;
    auto result = QueryProfiled(obj, text, opt);
    if (!result.ok()) {
      fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
      return false;
    }
    printf("%s\n", result->table->ToString(25).c_str());
    if (cli.profile || parsed->explain_profile)
      printf("%s", result->profile.ToString().c_str());
    return true;
  }
  auto result = ExecuteQuery(obj, *parsed, cli.threads);
  if (!result.ok()) {
    fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return false;
  }
  printf("%s\n", result->ToString(25).c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--profile") {
      cli.profile = true;
    } else if (arg.rfind("--engine=", 0) == 0) {
      auto engine = EngineFromName(arg.substr(strlen("--engine=")));
      if (!engine.ok()) {
        fprintf(stderr, "%s\n", engine.status().ToString().c_str());
        return 1;
      }
      cli.engine = *engine;
    } else if (arg.rfind("--threads=", 0) == 0) {
      cli.threads = atoi(arg.c_str() + strlen("--threads="));
      if (cli.threads < 1 || cli.threads > exec::kMaxThreads) {
        fprintf(stderr, "bad --threads value %s (1..%d)\n", arg.c_str(),
                exec::kMaxThreads);
        return 1;
      }
    } else if (arg.rfind("--cache=", 0) == 0) {
      auto mode = cache::ModeFromName(arg.substr(strlen("--cache=")));
      if (!mode.ok()) {
        fprintf(stderr, "%s\n", mode.status().ToString().c_str());
        return 1;
      }
      cli.cache = *mode;
    } else if (arg.rfind("--serve=", 0) == 0) {
      cli.serve_port = atoi(arg.c_str() + strlen("--serve="));
      if (cli.serve_port < 0 || cli.serve_port > 65535) {
        fprintf(stderr, "bad --serve port %s\n", arg.c_str());
        return 1;
      }
    } else if (arg.rfind("--slow-query-us=", 0) == 0) {
      cli.slow_query_us = atol(arg.c_str() + strlen("--slow-query-us="));
      if (cli.slow_query_us < 0) {
        fprintf(stderr, "bad --slow-query-us value %s\n", arg.c_str());
        return 1;
      }
    } else if (arg.rfind("--flight-capacity=", 0) == 0) {
      cli.flight_capacity = atol(arg.c_str() + strlen("--flight-capacity="));
      if (cli.flight_capacity < 1 ||
          size_t(cli.flight_capacity) > obs::FlightRecorder::kMaxCapacity) {
        fprintf(stderr, "bad --flight-capacity value %s (1..%zu)\n",
                arg.c_str(), obs::FlightRecorder::kMaxCapacity);
        return 1;
      }
    } else if (arg.rfind("--statusz-sample-ms=", 0) == 0) {
      cli.statusz_sample_ms =
          atol(arg.c_str() + strlen("--statusz-sample-ms="));
      if (cli.statusz_sample_ms < 10) {
        fprintf(stderr, "bad --statusz-sample-ms value %s (>= 10)\n",
                arg.c_str());
        return 1;
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      cli.deadline_ms = atol(arg.c_str() + strlen("--deadline-ms="));
      if (cli.deadline_ms < 0) {
        fprintf(stderr, "bad --deadline-ms value %s (>= 0; 0 = no deadline)\n",
                arg.c_str());
        return 1;
      }
    } else if (arg == "--help" || arg == "-h") {
      printf("usage: olap_cli [--profile] [--engine=relational|molap|rolap|"
             "rolap+bitmap] [--threads=N] [--cache=off|derive] "
             "[--serve=PORT] [--slow-query-us=N] [--flight-capacity=N] "
             "[--statusz-sample-ms=D] [--deadline-ms=N] [object-file]\n"
             "  --threads=N   execute on N workers (default: "
             "STATCUBE_THREADS or hardware concurrency; 1 = serial)\n"
             "  --cache=M     result cache: on = exact reuse, derive = also "
             "roll up cached supersets (default: off)\n"
             "  --deadline-ms=N  per-query execution budget; past it the "
             "query stops with DeadlineExceeded (0 = no deadline, the "
             "default)\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 1;
    } else {
      cli.object_file = arg;
    }
  }

  StatisticalObject obj;
  if (!cli.object_file.empty()) {
    std::ifstream f(cli.object_file);
    if (!f) {
      fprintf(stderr, "cannot open %s\n", cli.object_file.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << f.rdbuf();
    auto imported = ImportObject(buf.str());
    if (!imported.ok()) {
      fprintf(stderr, "%s\n", imported.status().ToString().c_str());
      return 1;
    }
    obj = std::move(imported).value();
  } else {
    RetailOptions opt;
    opt.num_products = 12;
    opt.num_stores = 6;
    opt.num_cities = 3;
    opt.num_days = 20;
    opt.num_rows = 4000;
    auto data = MakeRetailWorkload(opt);
    if (!data.ok()) {
      fprintf(stderr, "%s\n", data.status().ToString().c_str());
      return 1;
    }
    obj = std::move(data->object);
  }
  // Build the worker pool up front: query latency stays flat from the first
  // query, and the pool-size gauge is in /metrics before any query runs.
  if (cli.threads > 1) exec::TaskScheduler::Global().EnsureThreads(cli.threads);

  if (cli.profile) obs::SetEnabled(true);
  if (cli.slow_query_us >= 0)
    obs::FlightRecorder::Global().SetSlowQueryThresholdUs(
        uint64_t(cli.slow_query_us));

  if (cli.flight_capacity > 0)
    obs::FlightRecorder::Global().SetCapacity(size_t(cli.flight_capacity));

  std::optional<obs::MetricSampler> sampler;
  std::optional<obs::StatsServer> server;
  if (cli.serve_port >= 0) {
    // A stats server without stats is useless: enable instrumentation and
    // profile every query, or /profiles stays empty and --slow-query-us
    // can never fire.
    obs::SetEnabled(true);
    cli.profile = true;
    obs::MetricSamplerOptions mopt;
    mopt.interval_ms = int(cli.statusz_sample_ms);
    sampler.emplace(mopt);
    sampler->AddDefaultStatuszSeries();
    sampler->Start();
    obs::StatsServerOptions sopt;
    sopt.port = uint16_t(cli.serve_port);
    sopt.sampler = &*sampler;
    server.emplace(sopt);
    auto started = server->Start();
    if (!started.ok()) {
      fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    printf("stats server on http://localhost:%u  "
           "(/metrics /profiles /statusz /tracez /queryz /healthz)\n\n",
           unsigned(server->port()));
  }
  printf("Query language: [EXPLAIN PROFILE] SELECT fn(measure)[, ...]"
         " [BY dims | BY CUBE(dims)] [WHERE attr = literal [AND ...]]\n"
         "Hierarchy levels (category, price_range, city, month, year) roll"
         " up automatically.\n\n");

  bool any_error = false;
  std::string line;
  bool interactive = false;
  if (std::getline(std::cin, line)) {
    interactive = true;
    do {
      if (line == "\\q") break;
      if (line == "\\d") {
        printf("%s\n", obj.DescribeStructure().c_str());
        continue;
      }
      if (line == "\\e") {
        printf("%s", ExportObject(obj).c_str());
        continue;
      }
      if (line == "\\m") {
        printf("%s", obs::MetricsRegistry::Global().TextSnapshot().c_str());
        continue;
      }
      if (line == "\\p") {
        printf("%s\n", obs::FlightRecorder::Global().ToJson().c_str());
        continue;
      }
      if (line.empty()) continue;
      if (!Execute(obj, line, cli)) any_error = true;
    } while (std::getline(std::cin, line));
  }

  if (!interactive) {
    const char* demo[] = {
        "SELECT sum(amount) BY city",
        "SELECT sum(qty), avg(amount) BY category",
        "SELECT sum(amount) BY month WHERE city = 'city1'",
        "SELECT sum(amount) BY CUBE(city, month)",
        "SELECT count() WHERE price_range = 'premium'",
    };
    for (const char* q : demo) {
      printf("statcube> %s\n", q);
      if (!Execute(obj, q, cli)) any_error = true;
    }
  }
  return any_error ? 1 : 0;
}
