// Per-query tracing: RAII `Span` scopes on a monotonic clock that build a
// span tree (parse → plan → rollup → execute), renderable as an
// ASCII tree or exportable as Chrome `trace_event` JSON (load chrome://tracing
// or https://ui.perfetto.dev on the output).
//
// A `Trace` is installed per-thread by `TraceScope` (usually indirectly via
// `ProfileScope`, query_profile.h); `Span` constructors attach to the current
// thread's trace. When observability is disabled or no trace is installed, a
// Span is a no-op: one relaxed load and a branch, no allocation.
//
// Cross-thread propagation (observability v2): a trace is no longer bound to
// a single thread. `obs::TaskContext` (resource.h) captures the current
// trace plus the innermost open span on the calling thread;
// `exec::ParallelFor` (exec/task_scheduler.h) captures one per loop and
// installs it around each helper task's morsels on whichever worker runs
// it, so worker-side morsel spans attach under the calling query's span tree
// instead of vanishing. To make that safe:
//
//  * `Trace` span storage is guarded by a mutex — `BeginSpan`/`EndSpan` may
//    race across workers. Reading (`spans()`, `TreeString`, ...) is only
//    valid once the producing helpers have left their loops (ParallelFor
//    returns only then, before its query scope ends, so completed profiles
//    are quiescent).
//  * Span nesting is tracked per *thread* (a thread-local open-span stack
//    bound to the installed trace), seeded with the propagated parent span,
//    so interleaved scopes on each thread still reconstruct the call tree.
//  * Every span records the compact id of the thread that ran it
//    (`SpanRecord::thread_id`), so profiles show which worker did what.
//  * Spans per trace are bounded (`set_span_budget`): a query fanning out
//    into tens of thousands of morsels keeps a complete tree prefix and a
//    count of dropped spans instead of growing without bound.

#ifndef STATCUBE_OBS_TRACE_H_
#define STATCUBE_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "statcube/common/mutex.h"
#include "statcube/common/thread_annotations.h"
#include "statcube/obs/metrics.h"

namespace statcube::obs {

class JsonWriter;

/// Compact process-wide id of the calling thread (assigned on first use,
/// starting at 0). Stable for the thread's lifetime; used to attribute
/// spans and CPU time to workers without exposing native handles.
uint32_t CurrentThreadId();

/// One completed (or still-open) span. Times are nanoseconds relative to the
/// owning trace's origin.
struct SpanRecord {
  std::string name;
  int32_t parent = -1;  ///< index into the trace's span vector; -1 = root
  int32_t depth = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t thread_id = 0;  ///< CurrentThreadId() of the thread that ran it
  bool open = true;
};

/// An append-only span tree for one query (or any other unit of work).
/// Spans are stored in open order; nesting comes from per-thread open-span
/// stacks (seeded by TaskContext propagation on worker threads), so
/// interleaved RAII scopes on every participating thread reconstruct the
/// call tree exactly.
///
/// Thread-safety: BeginSpan/EndSpan/counters may be called concurrently
/// from any thread the trace was propagated to. The read accessors
/// (`spans()`, `TreeString()`, `ChromeTraceJson()`, `TotalDurationNs()`)
/// require quiescence: no concurrent writers (guaranteed once the owning
/// query's ParallelFor loops have returned).
class Trace {
 public:
  /// Spans retained per trace by default; see set_span_budget.
  static constexpr size_t kDefaultSpanBudget = 4096;

  Trace() : origin_(std::chrono::steady_clock::now()) {}

  /// Deep copy (locks `other`). Needed because QueryProfile values holding
  /// a Trace are copied into the flight recorder.
  Trace(const Trace& other);
  Trace& operator=(const Trace& other);
  /// Takes `other`'s spans (locks `other`, which is left with none), so a
  /// QueryProfile moves out of its ProfileScope and into the flight
  /// recorder without copying a span.
  Trace(Trace&& other);
  Trace& operator=(Trace&& other);

  /// Opens a span as a child of this thread's innermost open span (or of
  /// the propagated parent on a worker thread). Returns the span index, or
  /// -1 when the trace's span budget is exhausted (the drop is counted).
  int32_t BeginSpan(std::string name);
  /// Closes the span by index (no-op for -1 / already closed).
  void EndSpan(int32_t idx);

  /// The recorded spans. Only valid when no thread is concurrently writing
  /// (i.e. after the owning query joined its tasks) — hence deliberately
  /// outside the lock discipline.
  const std::vector<SpanRecord>& spans() const
      STATCUBE_NO_THREAD_SAFETY_ANALYSIS {
    return spans_;
  }

  /// Spans that BeginSpan refused because the budget was reached.
  uint64_t dropped_spans() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Caps the number of retained spans (floor 1). Affects future BeginSpan
  /// calls only; the default is kDefaultSpanBudget.
  void set_span_budget(size_t budget) {
    budget_.store(budget == 0 ? 1 : budget, std::memory_order_relaxed);
  }
  /// Current span budget.
  size_t span_budget() const {
    return budget_.load(std::memory_order_relaxed);
  }

  /// Total nanoseconds covered by root spans. Requires quiescence (see
  /// spans()).
  uint64_t TotalDurationNs() const STATCUBE_NO_THREAD_SAFETY_ANALYSIS;

  /// Indented ASCII tree with per-span durations and thread ids, in
  /// depth-first order (children under their parent regardless of global
  /// begin order). Requires quiescence (see spans()).
  std::string TreeString() const STATCUBE_NO_THREAD_SAFETY_ANALYSIS;

  /// Chrome trace_event JSON ("traceEvents" array of complete "X" events);
  /// spans land on their recording thread's tid lane. Requires quiescence
  /// (see spans()).
  std::string ChromeTraceJson() const STATCUBE_NO_THREAD_SAFETY_ANALYSIS;

  /// Writes the spans as a JSON array of {name, parent, start_us, dur_us,
  /// thread} objects: the "spans" of QueryProfile::ToJson and of
  /// /tracez?format=json. Requires quiescence (see spans()).
  void WriteSpansJson(JsonWriter& w) const STATCUBE_NO_THREAD_SAFETY_ANALYSIS;

 private:
  uint64_t NowNs() const {
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - origin_)
                        .count());
  }

  std::chrono::steady_clock::time_point origin_;
  mutable Mutex mu_;  // guards spans_ during concurrent span recording
  std::vector<SpanRecord> spans_ STATCUBE_GUARDED_BY(mu_);
  std::atomic<size_t> budget_{kDefaultSpanBudget};
  std::atomic<uint64_t> dropped_{0};
};

/// The trace installed on this thread, or nullptr.
Trace* CurrentTrace();

namespace internal {
// The per-thread binding of a trace: which trace, which propagated base
// parent, and the stack of spans this thread currently has open. Swapped
// wholesale by TraceScope / ProfileScope / TaskContextScope.
struct TraceBinding {
  Trace* trace = nullptr;
  int32_t base_parent = -1;
  std::vector<int32_t> stack;
};

// Installs `b` as this thread's binding and returns the previous one.
TraceBinding SwapTraceBinding(TraceBinding b);

// The innermost open span index on this thread (base_parent if none), or
// -1 when no trace is installed. This is what TaskContext captures.
int32_t CurrentParentSpan();
}  // namespace internal

/// Installs a fresh Trace as the thread's current trace for the scope's
/// lifetime (restores the previous one, and its open-span stack, on exit —
/// scopes nest).
class TraceScope {
 public:
  TraceScope();
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  Trace& trace() { return trace_; }

 private:
  Trace trace_;
  internal::TraceBinding prev_;
};

/// RAII span: attaches to the current thread's trace when observability is
/// enabled, otherwise does nothing.
class Span {
 public:
  explicit Span(const char* name) {
    if (!Enabled()) return;
    trace_ = CurrentTrace();
    if (trace_ != nullptr) idx_ = trace_->BeginSpan(name);
  }
  explicit Span(std::string name) {
    if (!Enabled()) return;
    trace_ = CurrentTrace();
    if (trace_ != nullptr) idx_ = trace_->BeginSpan(std::move(name));
  }
  ~Span() {
    if (trace_ != nullptr) trace_->EndSpan(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_ = nullptr;
  int32_t idx_ = -1;
};

}  // namespace statcube::obs

#endif  // STATCUBE_OBS_TRACE_H_
