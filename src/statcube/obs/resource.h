/// \file
/// \brief Per-query resource attribution: a `ResourceVector` of everything a
/// query consumed (CPU time per worker, bytes touched, morsels, tasks
/// spawned), accumulated through a query-scoped context that travels with
/// the work — across the task scheduler's thread boundary — instead of
/// staying pinned to the submitting thread.
///
/// Collection model: `ProfileScope` (query_profile.h) owns a
/// `ResourceAccumulator` and installs it thread-locally next to the trace.
/// `TaskContext::Capture()` snapshots the current thread's {trace, innermost
/// open span, accumulator}; `exec::ParallelFor` captures one per loop and
/// wraps each helper task's morsels in a `TaskContextScope`, so a worker
/// executing a morsel charges the *calling query's* accumulator and attaches
/// its spans under the calling span. All charge paths are relaxed atomic
/// adds behind the `obs::Enabled()` gate — disabled, every helper is one
/// relaxed load and a branch.
///
/// Lifetime contract: an accumulator outlives every task charging it
/// because `ParallelFor` returns only after every helper inside its loop
/// left, before `ProfileScope::Take()` folds the totals into the profile —
/// the same quiescence rule the trace relies on (trace.h).

#ifndef STATCUBE_OBS_RESOURCE_H_
#define STATCUBE_OBS_RESOURCE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "statcube/obs/trace.h"

namespace statcube::obs {

/// What one query consumed, attributed across every thread that worked on
/// it. Plain copyable data — the atomic accumulation happens in
/// `ResourceAccumulator`; this is its folded snapshot, carried by
/// `QueryProfile` into EXPLAIN PROFILE, /profiles, and /tracez.
struct ResourceVector {
  /// Microseconds of task/morsel execution summed over all workers (wall
  /// time of each morsel body on its executing thread, so for a parallel
  /// query this exceeds the query's wall latency).
  uint64_t cpu_us = 0;
  /// Logical bytes charged by instrumented scan/aggregate sites (kernel
  /// inputs and backend block I/O).
  uint64_t bytes_touched = 0;
  /// Morsels executed on behalf of this query.
  uint64_t morsels = 0;
  /// Helper tasks submitted to the scheduler on behalf of this query.
  uint64_t tasks_spawned = 0;
  /// Per-thread CPU split: (CurrentThreadId, microseconds), ascending by
  /// thread id. Threads beyond the accumulator's slot capacity fold into
  /// the aggregate `cpu_us` only.
  std::vector<std::pair<uint32_t, uint64_t>> cpu_us_by_thread;

  /// True when nothing was charged (e.g. obs was disabled).
  bool Empty() const {
    return cpu_us == 0 && bytes_touched == 0 && morsels == 0 &&
           tasks_spawned == 0;
  }

  /// One-line human-readable summary (used by QueryProfile::ToString).
  std::string ToString() const;
  /// JSON object with every field (used by QueryProfile::ToJson).
  std::string ToJson() const;
};

/// Lock-free accumulator behind one query's ResourceVector. Any thread the
/// query's context was propagated to may charge it concurrently; `Snapshot`
/// is meant for after the query joined its tasks (counters are monotonic,
/// so a mid-flight snapshot is merely a consistent-enough lower bound).
class ResourceAccumulator {
 public:
  /// Per-thread CPU attribution slots; threads with
  /// CurrentThreadId() >= kCpuSlots still charge the total.
  static constexpr size_t kCpuSlots = 64;

  ResourceAccumulator() = default;
  ResourceAccumulator(const ResourceAccumulator&) = delete;  ///< Not copyable.
  ResourceAccumulator& operator=(const ResourceAccumulator&) =
      delete;  ///< Not copyable.

  /// Adds `us` microseconds of execution on thread `thread_id`.
  void ChargeCpu(uint32_t thread_id, uint64_t us) {
    cpu_us_.fetch_add(us, std::memory_order_relaxed);
    if (thread_id < kCpuSlots) {
      per_thread_us_[thread_id].fetch_add(us, std::memory_order_relaxed);
      per_thread_used_[thread_id].store(true, std::memory_order_relaxed);
    }
  }
  /// Adds logical bytes touched.
  void ChargeBytes(uint64_t n) {
    bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Counts executed morsels.
  void CountMorsels(uint64_t n = 1) {
    morsels_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Counts tasks submitted on the query's behalf.
  void CountTasks(uint64_t n = 1) {
    tasks_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Folds the counters into a plain ResourceVector.
  ResourceVector Snapshot() const;

 private:
  std::atomic<uint64_t> cpu_us_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> morsels_{0};
  std::atomic<uint64_t> tasks_{0};
  std::array<std::atomic<uint64_t>, kCpuSlots> per_thread_us_{};
  std::array<std::atomic<bool>, kCpuSlots> per_thread_used_{};
};

/// The accumulator charged by this thread's instrumentation sites, or
/// nullptr when no query context is installed.
ResourceAccumulator* CurrentResources();

/// Everything a unit of work needs to carry a query's observability context
/// to another thread: the trace, the span to parent worker spans under, and
/// the resource accumulator. Captured on the submitting thread, installed
/// on the executing thread via TaskContextScope.
struct TaskContext {
  Trace* trace = nullptr;             ///< destination span tree, if any
  int32_t parent_span = -1;           ///< span to parent worker spans under
  ResourceAccumulator* resources = nullptr;  ///< destination for charges

  /// Snapshot of the calling thread's context. Cheap (two thread-local
  /// reads); returns an all-null context when observability is disabled.
  static TaskContext Capture();

  /// True when there is nothing to propagate (scope install will no-op).
  bool empty() const { return trace == nullptr && resources == nullptr; }
};

/// Installs a captured TaskContext on the executing thread for one task's
/// duration: the trace is bound with `parent_span` as the base parent (so
/// spans opened here nest under the submitting span) and the accumulator
/// becomes CurrentResources(). Restores the previous bindings on exit;
/// empty contexts install nothing.
class TaskContextScope {
 public:
  /// Installs `ctx` (no-op when `ctx.empty()`).
  explicit TaskContextScope(const TaskContext& ctx);
  ~TaskContextScope();
  TaskContextScope(const TaskContextScope&) = delete;  ///< Not copyable.
  TaskContextScope& operator=(const TaskContextScope&) =
      delete;  ///< Not copyable.

 private:
  internal::TraceBinding prev_binding_;
  ResourceAccumulator* prev_res_ = nullptr;
  bool installed_ = false;
};

namespace internal {
/// Installs `r` as the thread's accumulator; returns the previous one.
ResourceAccumulator* SwapCurrentResources(ResourceAccumulator* r);
}  // namespace internal

/// Charges logical bytes to the current query (no-op when obs is disabled
/// or no context is installed). Instrumented kernels call this once per
/// input they scan.
inline void RecordBytesTouched(uint64_t bytes) {
  if (!Enabled()) return;
  if (ResourceAccumulator* r = CurrentResources()) r->ChargeBytes(bytes);
}

}  // namespace statcube::obs

#endif  // STATCUBE_OBS_RESOURCE_H_
