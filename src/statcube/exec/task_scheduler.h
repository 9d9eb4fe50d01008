/// \file
/// \brief Morsel-driven parallel execution: a dependency-free worker pool and
/// the `ParallelFor` morsel loop, after the morsel-driven parallelism of
/// Leis, Boncz, Kemper and Neumann, "Morsel-Driven Parallelism: A
/// NUMA-Aware Query Evaluation Framework for the Many-Core Age", SIGMOD 2014.
///
/// The paper's §6.6 ROLAP-vs-MOLAP debate and [GB+96]'s CUBE cost model
/// are throughput arguments; this module is what lets the engine use more
/// than one core to make them measurable.
///
/// Architecture:
///  * `TaskScheduler` — a fixed pool of worker threads over one
///    mutex-guarded FIFO. Idle workers block on a condition variable until
///    work or stop arrives, so an idle pool costs no CPU.
///  * `ParallelFor` — the morsel loop: [0, n) is cut into fixed-size
///    morsels (boundaries depend only on `morsel_size`, never on the
///    thread count), every runner claims morsel indexes from one shared
///    counter, and the body runs once per morsel. Results keyed by morsel
///    index can therefore be combined in a canonical order — the
///    determinism hook the parallel kernels (parallel_kernels.h) build on.
///    The caller is a runner itself, beside up to `max_workers - 1` helper
///    tasks on the pool. When the morsels run out it closes the loop and
///    waits only for the helpers already inside it; a helper the pool
///    starts later runs nothing. So nesting and a 1-thread pool cannot
///    deadlock, and a caller never runs another loop's morsels.
///  * Cooperative stop: the loop's `CancelContext` is checked between
///    morsels; the first exception thrown by any morsel stops the claiming
///    and is rethrown from `ParallelFor` on the caller.
///
/// Observability: the scheduler registers counters/gauges in
/// obs::MetricsRegistry (statcube.exec.*: tasks, morsels, queue depth,
/// worker busy time, pool size). In addition, `ParallelFor` captures an
/// obs::TaskContext (resource.h) on the calling thread — the current trace,
/// innermost open span, and resource accumulator — and installs it around
/// each helper's morsels. Worker-side morsel spans therefore attach under
/// the calling query's span tree (with each span recording its worker's
/// thread id), and per-morsel CPU time, morsel counts and helper tasks are
/// charged to the calling query's ResourceVector. All of it is gated on
/// obs::Enabled(): disabled, the capture is one relaxed load and the
/// context is empty.

#ifndef STATCUBE_EXEC_TASK_SCHEDULER_H_
#define STATCUBE_EXEC_TASK_SCHEDULER_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "statcube/common/cancellation.h"
#include "statcube/common/mutex.h"
#include "statcube/common/thread_annotations.h"

namespace statcube::exec {

/// Number of hardware threads (>= 1 even when the runtime reports 0).
int HardwareThreads();

/// Default pool size: the STATCUBE_THREADS environment variable when set to
/// a positive integer (clamped to kMaxThreads), otherwise HardwareThreads().
int DefaultThreads();

/// Hard cap on pool size.
inline constexpr int kMaxThreads = 64;

/// Default morsel size for row-oriented ParallelFor loops. Chosen so a
/// morsel of typical Rows (a few hundred bytes each) stays around the L2
/// cache while still yielding enough morsels to balance 8 workers on the
/// benchmark workloads; see DESIGN.md §6.
inline constexpr size_t kDefaultMorselRows = 2048;

/// Fixed thread pool over one FIFO task queue.
///
/// Thread-safety: all public methods are safe to call from any thread,
/// including from inside tasks.
class TaskScheduler {
 public:
  /// A unit of work; runs at most once on some worker.
  using Task = std::function<void()>;

  /// `num_threads` <= 0 means DefaultThreads(). The pool can later grow up
  /// to kMaxThreads via EnsureThreads; it never shrinks.
  explicit TaskScheduler(int num_threads = 0);
  /// Stops and joins every worker; queued tasks are abandoned.
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;             ///< Not copyable.
  TaskScheduler& operator=(const TaskScheduler&) = delete;  ///< Not copyable.

  /// Current number of worker threads (>= 1).
  int num_threads() const {
    return num_threads_.load(std::memory_order_acquire);
  }

  /// Grows the pool to at least `n` workers (clamped to kMaxThreads).
  /// Lets an explicit `--threads=8` request oversubscribe a small machine —
  /// the CI 2-core cap and the thread-sweep benches rely on this.
  void EnsureThreads(int n);

  /// The process-wide pool, lazily built with DefaultThreads() workers.
  static TaskScheduler& Global();

  /// Appends `copies` copies of `task` to the queue and wakes one idle
  /// worker. Tasks start in submission order; a worker that takes one while
  /// more are queued wakes the next, so the submitter pays for one wakeup.
  void Submit(const Task& task, int copies);

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar work_cv_;  // signalled by Submit, by a worker passing it on, on stop
  std::deque<Task> queue_ STATCUBE_GUARDED_BY(mu_);
  bool stop_ STATCUBE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_ STATCUBE_GUARDED_BY(mu_);
  std::atomic<int> num_threads_{0};
};

/// Options for ParallelFor.
struct ParallelForOptions {
  /// Span label for each morsel (visible in query profiles when a trace is
  /// installed): `<label>[begin..end)`.
  const char* label = "parallel_for";
  /// Morsel size in loop iterations. Fixed morsel boundaries — never derived
  /// from the thread count — are what make reductions keyed by morsel index
  /// thread-count invariant.
  size_t morsel_size = kDefaultMorselRows;
  /// Cap on concurrent runners, the caller included; <= 0 means the
  /// scheduler's pool size. Values above the pool size grow the pool
  /// (EnsureThreads).
  int max_workers = 0;
  /// Optional query-level stop configuration (external token + absolute
  /// deadline; common/cancellation.h), checked between morsels. The loop
  /// stops claiming morsels once the context reports a stop; callers turn
  /// the (monotonic) stop state into a Status by re-checking the context
  /// after ParallelFor returns. nullptr or an inactive context costs one
  /// pointer test per morsel.
  const CancelContext* stop = nullptr;
  /// nullptr means TaskScheduler::Global().
  TaskScheduler* scheduler = nullptr;
};

/// Runs `body(morsel_index, begin, end)` for every morsel of [0, n), where
/// morsel `m` covers [m * morsel_size, min(n, (m+1) * morsel_size)).
/// Blocks until every morsel ran (or the loop stopped); rethrows the first
/// exception. The calling thread runs morsels too, so this works on a
/// 1-thread pool and nests arbitrarily; with one worker it runs inline, with
/// no allocation and no lock.
///
/// Morsels are claimed dynamically (work keeps flowing to idle runners) but
/// the (index, range) pairs are a pure function of n and morsel_size —
/// combine per-morsel results in ascending index order for bit-identical
/// output at any thread count.
void ParallelFor(size_t n,
                 const std::function<void(size_t, size_t, size_t)>& body,
                 const ParallelForOptions& options = {});

}  // namespace statcube::exec

#endif  // STATCUBE_EXEC_TASK_SCHEDULER_H_
