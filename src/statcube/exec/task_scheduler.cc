#include "statcube/exec/task_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "statcube/obs/metrics.h"
#include "statcube/obs/resource.h"
#include "statcube/obs/trace.h"

namespace statcube::exec {

namespace {

// Which scheduler (if any) owns the current thread, and as which worker.
// Keyed by scheduler pointer so tests can run local pools next to Global().
struct ThreadWorker {
  TaskScheduler* scheduler = nullptr;
  int id = -1;
};
thread_local ThreadWorker tl_worker;

// Whether the task most recently popped on this thread came from another
// worker's deque (set by PopOrSteal, read by TaskGroup's wrapper before it
// runs the body — i.e. before any nested pop can overwrite it). Lets the
// per-query ResourceVector attribute work-stealing migrations without the
// scheduler knowing anything about queries.
thread_local bool tl_last_pop_was_steal = false;

obs::Counter& TasksCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("statcube.exec.tasks");
  return c;
}
obs::Counter& StealsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("statcube.exec.steals");
  return c;
}
obs::Counter& MorselsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("statcube.exec.morsels");
  return c;
}
obs::Counter& ParallelForCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("statcube.exec.parallel_for");
  return c;
}
obs::Counter& BusyUsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "statcube.exec.worker_busy_us");
  return c;
}
obs::Counter& CancelledCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "statcube.exec.tasks_cancelled");
  return c;
}
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("statcube.exec.queue_depth");
  return g;
}
obs::Gauge& PoolSizeGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("statcube.exec.pool_size");
  return g;
}
obs::Histogram& MorselUsHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "statcube.exec.morsel_us");
  return h;
}

uint64_t NowUs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

}  // namespace

int HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : int(n);
}

int DefaultThreads() {
  const char* env = std::getenv("STATCUBE_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && v > 0)
      return int(std::min<long>(v, kMaxThreads));
    // Malformed or non-positive values fall through to the hardware default
    // rather than silently serializing the whole process.
  }
  return std::min(HardwareThreads(), kMaxThreads);
}

TaskScheduler::TaskScheduler(int num_threads) {
  queues_.reserve(kMaxThreads);
  for (int i = 0; i < kMaxThreads; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  int n = num_threads <= 0 ? DefaultThreads() : num_threads;
  EnsureThreads(std::max(1, std::min(n, kMaxThreads)));
}

TaskScheduler::~TaskScheduler() {
  stop_.store(true, std::memory_order_release);
  // Empty critical section: a worker that observed stop_ == false while
  // holding idle_mu_ is guaranteed to reach its wait (releasing the mutex)
  // before we can pass this section, so the notify below cannot be lost.
  { MutexLock sync(idle_mu_); }
  idle_cv_.NotifyAll();
  // grow_mu_ is free by now (no EnsureThreads can race a destructor), but
  // holding it keeps the threads_ access discipline uniform.
  MutexLock lock(grow_mu_);
  for (auto& t : threads_) t.join();
}

void TaskScheduler::SpawnLocked(int id) {
  threads_.emplace_back([this, id] { WorkerLoop(id); });
}

void TaskScheduler::EnsureThreads(int n) {
  n = std::min(n, kMaxThreads);
  if (n <= num_threads()) return;
  MutexLock lock(grow_mu_);
  int have = active_workers_.load(std::memory_order_acquire);
  if (n <= have) return;
  // Publish the size before spawning: a new worker's first PopOrSteal
  // modulo-indexes by num_threads(), which must never observe a stale zero.
  // Submitters may round-robin to a queue whose worker has not started yet;
  // the queue is preallocated and the task waits there.
  active_workers_.store(n, std::memory_order_release);
  PoolSizeGauge().Set(double(n));  // /metrics shows the pool size
  for (int id = have; id < n; ++id) SpawnLocked(id);
}

TaskScheduler& TaskScheduler::Global() {
  static TaskScheduler* pool = new TaskScheduler();  // leaked: outlives exit
  return *pool;
}

void TaskScheduler::Submit(Task task) {
  int target;
  if (tl_worker.scheduler == this && tl_worker.id >= 0) {
    target = tl_worker.id;  // nested submission stays cache-local
  } else {
    target = int(rr_next_.fetch_add(1, std::memory_order_relaxed) %
                 uint64_t(num_threads()));
  }
  {
    MutexLock lock(queues_[size_t(target)]->mu);
    queues_[size_t(target)]->tasks.push_back(std::move(task));
  }
  uint64_t depth = pending_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (obs::Enabled()) {
    TasksCounter().Add(1);
    QueueDepthGauge().Set(double(depth));
  }
  // The wait conditions (stop_, pending_) are atomics, not data guarded by
  // idle_mu_, so a bare notify could land between an idle worker's condition
  // check and its block — a lost wakeup that stalls this task for the full
  // 1 ms wait timeout. The empty critical section forces ordering: any
  // worker that missed the pending_ increment is provably inside its wait
  // (it holds idle_mu_ from check through block) by the time we get past
  // the lock, so the notify always lands.
  { MutexLock sync(idle_mu_); }
  idle_cv_.NotifyOne();
}

bool TaskScheduler::PopOrSteal(int self_id, Task* out) {
  int n = num_threads();
  // Own deque first, LIFO end: the most recently pushed (cache-warm) task.
  if (self_id >= 0) {
    WorkerQueue& own = *queues_[size_t(self_id)];
    MutexLock lock(own.mu);
    if (!own.tasks.empty()) {
      *out = std::move(own.tasks.back());
      own.tasks.pop_back();
      tl_last_pop_was_steal = false;
      return true;
    }
  }
  // Steal FIFO from the other workers, round robin from our right neighbor.
  int start = self_id >= 0 ? (self_id + 1) % n : 0;
  for (int k = 0; k < n; ++k) {
    int victim = (start + k) % n;
    if (victim == self_id) continue;
    WorkerQueue& q = *queues_[size_t(victim)];
    MutexLock lock(q.mu);
    if (!q.tasks.empty()) {
      *out = std::move(q.tasks.front());
      q.tasks.pop_front();
      tl_last_pop_was_steal = true;
      if (obs::Enabled()) StealsCounter().Add(1);
      return true;
    }
  }
  return false;
}

bool TaskScheduler::RunOneTask() {
  Task task;
  int self_id = tl_worker.scheduler == this ? tl_worker.id : -1;
  if (!PopOrSteal(self_id, &task)) return false;
  pending_.fetch_sub(1, std::memory_order_relaxed);
  bool obs_on = obs::Enabled();
  uint64_t t0 = obs_on ? NowUs() : 0;
  task();
  if (obs_on) BusyUsCounter().Add(NowUs() - t0);
  return true;
}

void TaskScheduler::WorkerLoop(int id) {
  tl_worker = {this, id};
  while (true) {
    if (stop_.load(std::memory_order_acquire)) break;
    if (RunOneTask()) continue;
    // Timed wait; the outer loop re-checks stop_/work after every wakeup
    // (spurious or not), so no predicate is needed inside the wait.
    MutexLock lock(idle_mu_);
    if (!stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_relaxed) == 0) {
      idle_cv_.WaitFor(idle_mu_, std::chrono::milliseconds(1));
    }
  }
  tl_worker = {nullptr, -1};
}

// ----------------------------------------------------------------- TaskGroup

struct TaskGroup::State {
  Mutex mu;
  CondVar cv;
  size_t outstanding STATCUBE_GUARDED_BY(mu) = 0;
  std::exception_ptr error STATCUBE_GUARDED_BY(mu);
};

TaskGroup::TaskGroup(TaskScheduler* scheduler)
    : scheduler_(scheduler != nullptr ? scheduler
                                      : &TaskScheduler::Global()),
      state_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() {
  // Unwind-safe join: cancel unstarted bodies, then drain without throwing.
  token_.Cancel();
  while (true) {
    {
      MutexLock lock(state_->mu);
      if (state_->outstanding == 0) break;
    }
    if (!scheduler_->RunOneTask()) {
      // Timed wait; the outer loop re-checks outstanding on every wakeup.
      MutexLock lock(state_->mu);
      if (state_->outstanding != 0)
        state_->cv.WaitFor(state_->mu, std::chrono::microseconds(200));
    }
  }
}

void TaskGroup::Run(std::function<void()> fn) {
  {
    MutexLock lock(state_->mu);
    ++state_->outstanding;
  }
  // Carry the submitting thread's observability context (trace + open span +
  // resource accumulator) with the task, so whatever thread runs it charges
  // the submitting query. Empty when obs is disabled.
  obs::TaskContext ctx = obs::TaskContext::Capture();
  if (ctx.resources != nullptr) ctx.resources->CountTasks();
  scheduler_->Submit(
      [state = state_, token = token_, ctx, fn = std::move(fn)]() mutable {
        if (!token.cancelled()) {
          if (ctx.resources != nullptr && tl_last_pop_was_steal)
            ctx.resources->CountSteal();
          obs::TaskContextScope obs_scope(ctx);
          try {
            fn();
          } catch (...) {
            MutexLock lock(state->mu);
            if (!state->error) state->error = std::current_exception();
            token.Cancel();
          }
        } else if (obs::Enabled()) {
          CancelledCounter().Add(1);
        }
        MutexLock lock(state->mu);
        if (--state->outstanding == 0) state->cv.NotifyAll();
      });
}

void TaskGroup::Wait() {
  while (true) {
    {
      MutexLock lock(state_->mu);
      if (state_->outstanding == 0) break;
    }
    // Help: run queued tasks (any group's) instead of blocking the core.
    if (!scheduler_->RunOneTask()) {
      // Timed wait; the outer loop re-checks outstanding on every wakeup.
      MutexLock lock(state_->mu);
      if (state_->outstanding != 0)
        state_->cv.WaitFor(state_->mu, std::chrono::microseconds(200));
    }
  }
  std::exception_ptr error;
  {
    MutexLock lock(state_->mu);
    std::swap(error, state_->error);
  }
  if (error) std::rethrow_exception(error);
}

// --------------------------------------------------------------- ParallelFor

namespace {

// Claims morsels from `next` and runs the body on each. Returns normally on
// exhaustion or cancellation; lets exceptions propagate to the caller
// (TaskGroup captures them for runner tasks).
void RunMorsels(size_t n, size_t morsel, size_t nmorsels,
                std::atomic<size_t>& next,
                const std::function<void(size_t, size_t, size_t)>& body,
                const CancellationToken* external_cancel,
                const CancelContext* stop, const CancellationToken& group_token,
                const char* label) {
  while (true) {
    if (external_cancel != nullptr && external_cancel->cancelled()) return;
    if (stop != nullptr && stop->Check() != StopReason::kNone) return;
    if (group_token.cancelled()) return;
    size_t m = next.fetch_add(1, std::memory_order_relaxed);
    if (m >= nmorsels) return;
    size_t begin = m * morsel;
    size_t end = std::min(n, begin + morsel);
    bool obs_on = obs::Enabled();
    uint64_t t0 = obs_on ? NowUs() : 0;
    {
      // Attaches under the submitting query's span tree on every runner —
      // pool workers included, via the TaskContext the group propagated.
      obs::Span span(obs_on && obs::CurrentTrace() != nullptr
                         ? std::string(label) + "[" + std::to_string(begin) +
                               ".." + std::to_string(end) + ")"
                         : std::string());
      body(m, begin, end);
    }
    if (obs_on) {
      uint64_t dt = NowUs() - t0;
      MorselsCounter().Add(1);
      MorselUsHistogram().Observe(double(dt));
      if (obs::ResourceAccumulator* r = obs::CurrentResources()) {
        r->ChargeCpu(obs::CurrentThreadId(), dt);
        r->CountMorsels();
      }
    }
  }
}

}  // namespace

void ParallelFor(size_t n,
                 const std::function<void(size_t, size_t, size_t)>& body,
                 const ParallelForOptions& options) {
  if (n == 0) return;
  size_t morsel =
      options.morsel_size == 0 ? kDefaultMorselRows : options.morsel_size;
  size_t nmorsels = (n - 1) / morsel + 1;  // n > 0; no overflow
  TaskScheduler& sched = options.scheduler != nullptr
                             ? *options.scheduler
                             : TaskScheduler::Global();
  if (obs::Enabled()) ParallelForCounter().Add(1);

  int workers = options.max_workers;
  if (workers <= 0) workers = sched.num_threads();
  if (workers > sched.num_threads()) sched.EnsureThreads(workers);
  workers = std::min<int>(workers, int(nmorsels));

  std::atomic<size_t> next{0};
  if (workers <= 1 || nmorsels <= 1) {
    // Inline path: same morsel boundaries, ascending order — bit-identical
    // to the pooled path for any kernel that combines by morsel index.
    CancellationToken never;
    RunMorsels(n, morsel, nmorsels, next, body, options.cancel, options.stop,
               never, options.label);
    return;
  }

  TaskGroup group(&sched);
  for (int r = 0; r < workers; ++r) {
    group.Run([&, r] {
      (void)r;
      RunMorsels(n, morsel, nmorsels, next, body, options.cancel, options.stop,
                 group.token(), options.label);
    });
  }
  group.Wait();  // helps run the morsel tasks; rethrows the first exception
}

}  // namespace statcube::exec
