// e2e_bench: the repository's end-to-end benchmark.
//
//   e2e_bench --workload olap_adhoc|sdb_census|dashboard_live --seed N
//             --seconds S --trace 0|1 --ref-version V --ref-nominal-ms X
//             [--out-dir DIR] [--corrupt-answers]
//             [--setup-only]
//   e2e_bench --calibrate        prints the reference kernel's time here
//   e2e_bench --check-identity   checks the drift adjustment's arithmetic
//
// The last line of a run is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1; only the
// set-up metrics with --setup-only, which stops before the first timed op).
// A harness failure exits non-zero without printing it. See ../README.md.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

// Taken before any other static initializer runs, so set-up time includes
// the library's static initialization.
struct ProcessStart {
  int64_t ns = e2e::NowNs();
};
__attribute__((init_priority(101))) ProcessStart g_process_start;

int Usage(const char* why) {
  std::fprintf(stderr, "e2e_bench: %s\n", why);
  return 2;
}

// Numbers as measured, with all their digits; JSON has no infinity.
std::string Num(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(const e2e::RunResult& r) {
  std::string s = std::string("{\"correct\": ") +
                  (r.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const e2e::Metric& m = r.metrics[i];
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + Num(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}}";
}

int Calibrate() {
  e2e::DriftClock drift(1.0);
  drift.Warm();
  for (int i = 0; i < 41; ++i) drift.Sample();
  std::printf("%s %.4f\n", e2e::kRefKernelVersion, drift.MedianRefMs());
  return 0;
}

// ref_local == ref_nominal must leave every time exactly as measured, and a
// machine running at half speed must scale it by 0.5^elasticity.
int CheckIdentity() {
  e2e::DriftClock same(2.5), slow(2.5);
  same.AddSample(0, 2.5);
  same.AddSample(1000000000, 2.5);
  slow.AddSample(0, 5.0);
  slow.AddSample(1000000000, 5.0);
  bool ok = same.AdjustedMs(1000, 123457000) == 123.456;
  for (double e : {e2e::kRefElasticity, e2e::kRefAppendElasticity})
    ok = ok && same.Factor(1000, 999000000, e) == 1.0 &&
         slow.Factor(10, 20, e) == std::pow(0.5, e);
  std::printf("drift identity: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig cfg;
  cfg.process_start_ns = g_process_start.ns;
  std::string ref_version;
  bool have_seconds = false, have_trace = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--calibrate") return Calibrate();
    if (a == "--check-identity") return CheckIdentity();
    if (a == "--corrupt-answers") {
      cfg.corrupt_answers = true;
      continue;
    }
    if (a == "--setup-only") {
      cfg.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
      have_seconds = true;
    } else if (a == "--trace") {
      cfg.trace = std::strtol(v, &end, 10) != 0;
      have_trace = true;
    } else if (a == "--ref-nominal-ms") {
      cfg.ref_nominal_ms = std::strtod(v, &end);
    } else if (a == "--ref-version") {
      ref_version = v;
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
    if (end != nullptr && *end != '\0')
      return Usage(("bad value for " + a).c_str());
  }
  if (cfg.workload.empty() || !have_seed || !have_seconds || !have_trace)
    return Usage("--workload, --seed, --seconds and --trace are required");
  if (ref_version != e2e::kRefKernelVersion)
    return Usage(("--ref-version must be " +
                  std::string(e2e::kRefKernelVersion) +
                  " (recalibrate with --calibrate)")
                     .c_str());
  if (!(cfg.ref_nominal_ms > 0)) return Usage("--ref-nominal-ms must be > 0");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be > 0");

  // Every thread of the run (this client, the server's acceptor and its one
  // worker) shares the CPU the reference kernel samples, so the kernel
  // measures the speed of the CPU that does the work. One request is in
  // flight at a time, so the threads never need two CPUs at once.
  if (const int cpu = sched_getcpu(); cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  auto result = e2e::RunBenchmark(cfg);
  if (!result.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  for (const std::string& line : result->notes) std::printf("%s\n", line.c_str());
  std::printf("%s\n", ResultJson(*result).c_str());
  std::fflush(stdout);
  return 0;
}
