/// \file
/// \brief Bounded admission queue for the query front door: a counting gate
/// that lets `max_active` queries execute, queues up to `max_queued` more,
/// and sheds everything beyond — the 503 path.
///
/// This is the server's one overload gate: the HTTP server sheds nothing,
/// and a connection no worker has reached waits in the kernel's listen
/// backlog. Every running or queued query holds an HTTP worker, so a server
/// with `max_active + max_queued + 1` workers (examples/stats_server) keeps
/// one free for /healthz and /metrics while the gate is full. Each shed is
/// answered with the tenant and the reason, so it is attributed on
/// /statusz.
///
/// Semantics: `Enter` admits immediately while fewer than `max_active`
/// tickets are outstanding. Otherwise the caller waits — FIFO by arrival,
/// implemented as a ticket sequence — up to `max_wait_ms`, unless the
/// queue already holds `max_queued` waiters, in which case it sheds
/// immediately (`kShedQueueFull`). A waiter whose budget expires sheds with
/// `kShedTimeout`. Every successful Enter MUST be paired with Exit.
///
/// Metrics: statcube.serve.queue_depth and statcube.serve.active gauges are
/// updated on every transition; shed counts are left to the caller, which
/// knows the tenant.

#ifndef STATCUBE_SERVE_ADMISSION_QUEUE_H_
#define STATCUBE_SERVE_ADMISSION_QUEUE_H_

#include <cstdint>

#include "statcube/common/mutex.h"
#include "statcube/common/thread_annotations.h"

namespace statcube::serve {

/// Sizing for AdmissionQueue.
struct AdmissionQueueOptions {
  /// Queries executing at once (clamped to >= 1).
  int max_active = 4;
  /// Queries allowed to wait for a slot; 0 = shed as soon as all slots are
  /// busy (pure load shedding, no queueing).
  int max_queued = 16;
  /// Longest a query may wait in the queue before being shed (clamped to
  /// >= 1; waiting longer than a client timeout only wastes the slot).
  int max_wait_ms = 2000;
};

/// How an Enter attempt ended.
enum class EnterOutcome : uint8_t {
  kAdmitted = 0,   ///< slot acquired; pair with Exit()
  kShedQueueFull,  ///< queue already at max_queued — immediate 503
  kShedTimeout,    ///< waited max_wait_ms without getting a slot — 503
};

/// The bounded execute-or-shed gate. All methods are thread-safe.
class AdmissionQueue {
 public:
  /// Builds the gate; options are clamped to sane minimums.
  explicit AdmissionQueue(AdmissionQueueOptions options = {});

  AdmissionQueue(const AdmissionQueue&) = delete;             ///< Not copyable.
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;  ///< Not copyable.

  /// Acquires an execution slot, waiting up to max_wait_ms. New arrivals
  /// never barge past existing waiters (they shed or join the queue), but
  /// wakeup order among waiters is the scheduler's. kAdmitted requires a
  /// matching Exit().
  EnterOutcome Enter();

  /// Releases an execution slot and wakes the head waiter.
  void Exit();

  /// Queries executing now.
  int active() const;
  /// Queries waiting now.
  int queued() const;
  /// Total sheds (queue-full + timeout) since construction.
  uint64_t sheds() const;

  /// Configured options (after clamping).
  const AdmissionQueueOptions& options() const { return options_; }

 private:
  void UpdateGauges() STATCUBE_REQUIRES(mu_);

  AdmissionQueueOptions options_;
  mutable Mutex mu_;
  CondVar cv_;
  int active_ STATCUBE_GUARDED_BY(mu_) = 0;
  int queued_ STATCUBE_GUARDED_BY(mu_) = 0;
  uint64_t sheds_ STATCUBE_GUARDED_BY(mu_) = 0;
};

}  // namespace statcube::serve

#endif  // STATCUBE_SERVE_ADMISSION_QUEUE_H_
