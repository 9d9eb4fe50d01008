// Shared declarations of the end-to-end benchmark harness.
//
// The harness drives the statcube library only through its public API: it
// generates a workload object, serves it with obs::StatsServer plus
// serve::QueryFrontDoor on loopback, sends POST /query requests from one
// client thread, and checks answers against the serial relational oracle.
// Every timing is drift-adjusted by a reference kernel (drift.cc).

#ifndef E2E_BENCH_HARNESS_H_
#define E2E_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/core/statistical_object.h"

namespace e2e {

// ---------------------------------------------------------------- utilities

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);
/// Quantile `q` in [0, 1] by linear interpolation between order statistics
/// (0 when empty).
double Quantile(std::vector<double> v, double q);

/// FNV-1a over `s`, continuing from `h`.
uint64_t Fnv1a(std::string_view s, uint64_t h = 1469598103934665603ull);

/// SplitMix64: the harness's own seeded generator, so op streams do not
/// depend on the library's RNG.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from (seed, stream, index).
uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index = 0);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// --------------------------------------------------------- drift reference

/// Version tag of the reference kernel. A nominal time recorded for one
/// version means nothing for another, so the runner refuses a mismatch.
inline constexpr const char* kRefKernelVersion = "ref-v1";
/// How many times the kernel's relative slowdown the program's ops suffer
/// when the machine slows (they slow more than the kernel does): the drift
/// factor's exponent. Measured against this kernel version, so it changes
/// only with the kernel.
inline constexpr double kRefElasticity = 1.3;
/// The same for append batches (StatisticalObject::AddCell only, no query
/// and no HTTP), which slow more than queries do.
inline constexpr double kRefAppendElasticity = 1.6;

/// A fixed single-threaded CPU and memory workload written in the harness,
/// never calling the library. It allocates only from a private arena made
/// once at construction, so the program's heap cannot change its time.
class RefKernel {
 public:
  RefKernel();
  /// One run; returns its wall time in milliseconds.
  double RunMs();
  /// Median of three runs, in milliseconds.
  double SampleMs();

 private:
  std::unique_ptr<unsigned char[]> arena_;
  size_t arena_bytes_ = 0;
};

/// Reference samples over a run, and the drift factor they imply for any
/// interval: `(ref_nominal / ref_local)^elasticity`, where ref_local is the
/// mean of the last sample taken before the interval and the first taken
/// after it. A machine-speed swing moves an op and the reference together
/// and cancels.
class DriftClock {
 public:
  explicit DriftClock(double nominal_ms) : nominal_ms_(nominal_ms) {}
  /// Runs the kernel a few times without recording (first-touch of the
  /// arena, instruction cache, frequency ramp).
  void Warm();
  /// Takes `samples` median-of-3 samples back to back and records their
  /// median, at the middle of the stretch.
  void Sample(int samples = 1);
  /// Records an externally measured sample (self-test).
  void AddSample(int64_t t_ns, double ref_ms) {
    samples_.emplace_back(t_ns, ref_ms);
  }
  /// The drift factor for the interval [t0, t1], for work whose exponent
  /// is `elasticity`.
  double Factor(int64_t t0_ns, int64_t t1_ns,
                double elasticity = kRefElasticity) const;
  /// Drift-adjusted duration of [t0, t1], in milliseconds.
  double AdjustedMs(int64_t t0_ns, int64_t t1_ns,
                    double elasticity = kRefElasticity) const {
    return double(t1_ns - t0_ns) / 1e6 * Factor(t0_ns, t1_ns, elasticity);
  }
  /// Median of every recorded sample, in milliseconds.
  double MedianRefMs() const;
  double nominal_ms() const { return nominal_ms_; }

 private:
  RefKernel kernel_;
  double nominal_ms_;
  std::vector<std::pair<int64_t, double>> samples_;  // (mid time, ref ms)
};

// -------------------------------------------------------------- http client

/// One HTTP exchange over loopback.
struct HttpReply {
  int status = -1;  ///< -1 when the exchange itself failed
  std::string body;
};

/// POSTs `body` to http://127.0.0.1:<port>/query and reads the response to
/// EOF (the server closes every connection after one request).
HttpReply PostQuery(uint16_t port, const std::string& body);

// ---------------------------------------------------------------- workloads

/// One POST /query request.
struct Request {
  std::string query;
  std::string engine = "relational";
  std::string cache = "off";
  /// The JSON request body.
  std::string Body() const;
};

/// One timed operation: a batch of requests sent back to back, or one
/// append batch applied to the object while no request is in flight.
struct Op {
  bool append = false;
  uint64_t append_batch = 0;  ///< which seeded batch, when `append`
  std::vector<Request> requests;
};

/// A seeded workload: its data, its warm-up, and its timed op stream.
class Workload {
 public:
  /// nullptr for an unknown name.
  static std::unique_ptr<Workload> Make(const std::string& name,
                                        uint64_t seed);
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Builds the statistical object the server answers over.
  virtual statcube::Result<statcube::StatisticalObject> Generate() const = 0;
  /// Ops run during set-up, before timing starts.
  virtual std::vector<Op> Warmup() const = 0;
  /// The i-th op of the timed stream (deterministic in the seed).
  virtual Op At(uint64_t i) const = 0;
  /// Measure whose cube backends olap.mb.* sizes.
  virtual const char* backend_measure() const = 0;
  /// True when the op stream itself contains appends.
  virtual bool has_appends() const { return false; }
  /// Ops per second of --seconds: a run measures this many ops times
  /// --seconds, rounded up to whole blocks, which takes about --seconds on
  /// the machine the rates were set on. A fixed op count keeps every run of
  /// a seed on the same ops, and keeps dashboard_live's table growth
  /// independent of speed.
  virtual double ops_per_second() const = 0;
  /// Length of the stratified shape block (or the refresh/append cycle).
  virtual uint64_t block() const = 0;

  /// Appends seeded batch `batch`: kAppendCells cells whose coordinates are
  /// existing leaves of each dimension.
  statcube::Status Append(statcube::StatisticalObject& obj,
                          uint64_t batch) const;

  static constexpr int kAppendCells = 1000;

 protected:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  uint64_t seed_;
};

// ---------------------------------------------------------------- the runs

/// Command-line configuration of one benchmark process.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double ref_nominal_ms = 0;
  std::string out_dir = ".bench_out";
  /// NowNs() before the process's other static initializers ran.
  int64_t process_start_ns = 0;
  /// Stop after the set-up and report only its metrics.
  bool setup_only = false;
  /// Corrupt every answer before it is checked (self-test of the checker).
  bool corrupt_answers = false;
};

/// One named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a run prints as its last line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

/// Runs one workload per `config`; the error status is a harness failure
/// (no result line is printed for it).
statcube::Result<RunResult> RunBenchmark(const RunConfig& config);

}  // namespace e2e

#endif  // E2E_BENCH_HARNESS_H_
