// Cooperative cancellation and deadlines, shared by every layer that can
// stop a query: the morsel loops in exec/ check between morsels, the hot
// serial row loops check periodically, and the query-lifecycle registry
// (obs/query_registry.h) holds a token per in-flight query so an external
// actor — POST /queryz/cancel, the stuck-query watchdog, a caller-supplied
// token — can request a stop. Lives in common/ because obs must not include
// exec headers (exec already depends on obs); exec::CancellationToken is an
// alias of the type defined here.
//
// Semantics: cancellation is cooperative and monotonic. Once a token is
// cancelled (or a deadline passes) every subsequent Check() reports the
// stop, so a loop that observed a stop and a caller that re-checks after
// the loop returned always agree — a kernel can simply run its ParallelFor,
// then ask the context "did we stop?" and turn the answer into a Status.
// The conservative edge (a cancel arriving in the instant after the last
// morsel completed still reports kCancelled) is deliberate: a stopped query
// must never be mistaken for a complete one, while the reverse is harmless.

#ifndef STATCUBE_COMMON_CANCELLATION_H_
#define STATCUBE_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "statcube/common/status.h"

namespace statcube {

/// Shared cooperative-cancellation flag. Copies observe the same flag, so a
/// token can be handed to the query registry, the executing loops, and the
/// caller at once — whoever calls Cancel() first stops all of them.
class CancellationToken {
 public:
  /// A fresh, un-cancelled flag.
  CancellationToken()
      : cancelled_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Requests cancellation; visible to every copy of this token.
  void Cancel() const { cancelled_->store(true, std::memory_order_relaxed); }
  /// True once any copy called Cancel(). Checked between morsels/tasks.
  bool cancelled() const {
    return cancelled_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> cancelled_;
};

/// Why an execution loop stopped early (or kNone: keep going).
enum class StopReason : uint8_t {
  kNone = 0,          ///< not stopped
  kCancelled,         ///< a CancellationToken was cancelled
  kDeadlineExceeded,  ///< the absolute deadline passed
};

/// Steady-clock now in microseconds (the time base of CancelContext
/// deadlines and the query registry's start/elapsed fields).
inline uint64_t SteadyNowUs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// One query's stop configuration: an optional external token and an
/// optional absolute deadline. Plain pointers/values — the query that owns
/// the token (QueryProfiled) outlives every loop checking the context, the
/// same lifetime rule the ResourceAccumulator relies on.
struct CancelContext {
  /// Cancellation flag to observe; nullptr = not cancellable.
  const CancellationToken* token = nullptr;
  /// Absolute SteadyNowUs() deadline; 0 = no deadline.
  uint64_t deadline_us = 0;

  /// True when there is anything to check (loops skip inactive contexts
  /// with a single pointer/zero test — the disabled-path cost).
  bool active() const { return token != nullptr || deadline_us != 0; }

  /// Current stop state. Cancellation wins over an expired deadline so the
  /// reported reason is stable once both hold.
  StopReason Check() const {
    if (token != nullptr && token->cancelled()) return StopReason::kCancelled;
    if (deadline_us != 0 && SteadyNowUs() >= deadline_us)
      return StopReason::kDeadlineExceeded;
    return StopReason::kNone;
  }
};

/// The Status a stopped query reports: kCancelled or kDeadlineExceeded with
/// `what` (e.g. the kernel or phase name) in the message. `reason` must not
/// be kNone.
Status StopStatus(StopReason reason, const char* what);

namespace internal {
/// Thread-local slot behind CurrentCancelContext/CancelScope.
inline const CancelContext*& CancelContextSlot() {
  thread_local const CancelContext* t_ctx = nullptr;
  return t_ctx;
}
}  // namespace internal

/// The cancel context installed on this thread, or nullptr. Serial row
/// loops (which have no ParallelForOptions to carry the context) read this
/// once per call and check it periodically.
inline const CancelContext* CurrentCancelContext() {
  return internal::CancelContextSlot();
}

/// Installs `ctx` as this thread's current cancel context for the scope's
/// lifetime (nullptr installs nothing and keeps the previous context).
/// QueryProfiled wraps execution in one so the executor and the serial
/// operators see the query's deadline/token without signature changes.
class CancelScope {
 public:
  explicit CancelScope(const CancelContext* ctx)
      : prev_(internal::CancelContextSlot()) {
    if (ctx != nullptr) internal::CancelContextSlot() = ctx;
  }
  ~CancelScope() { internal::CancelContextSlot() = prev_; }
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelContext* prev_;
};

}  // namespace statcube

#endif  // STATCUBE_COMMON_CANCELLATION_H_
