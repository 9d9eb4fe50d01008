#include "statcube/exec/task_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "statcube/obs/metrics.h"
#include "statcube/obs/resource.h"
#include "statcube/obs/trace.h"

namespace statcube::exec {

namespace {

obs::Counter& TasksCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("statcube.exec.tasks");
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
  int n = num_threads <= 0 ? DefaultThreads() : num_threads;
  EnsureThreads(std::max(1, n));
}

TaskScheduler::~TaskScheduler() {
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    stop_ = true;
    threads.swap(threads_);
  }
  work_cv_.NotifyAll();
  for (auto& t : threads) t.join();
}

void TaskScheduler::EnsureThreads(int n) {
  n = std::min(n, kMaxThreads);
  MutexLock lock(mu_);
  if (n <= int(threads_.size())) return;
  while (int(threads_.size()) < n)
    threads_.emplace_back([this] { WorkerLoop(); });
  num_threads_.store(n, std::memory_order_release);
  PoolSizeGauge().Set(double(n));  // /metrics shows the pool size
}

TaskScheduler& TaskScheduler::Global() {
  static TaskScheduler* pool = new TaskScheduler();  // leaked: outlives exit
  return *pool;
}

void TaskScheduler::Submit(const Task& task, int copies) {
  size_t depth;
  {
    MutexLock lock(mu_);
    for (int i = 0; i < copies; ++i) queue_.push_back(task);
    depth = queue_.size();
  }
  if (obs::Enabled()) {
    TasksCounter().Add(uint64_t(copies));
    QueueDepthGauge().Set(double(depth));
  }
  work_cv_.NotifyOne();
}

void TaskScheduler::WorkerLoop() {
  while (true) {
    Task task;
    bool more;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) work_cv_.Wait(mu_);
      if (stop_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      more = !queue_.empty();
    }
    // Pass the wakeup on: Submit wakes one worker however many tasks it
    // queued, since each wakeup costs the thread that sends it.
    if (more) work_cv_.NotifyOne();
    bool obs_on = obs::Enabled();
    uint64_t t0 = obs_on ? NowUs() : 0;
    task();
    if (obs_on) BusyUsCounter().Add(NowUs() - t0);
  }
}

// --------------------------------------------------------------- ParallelFor

namespace {

// One loop's morsels and the counter its runners claim them from.
struct Morsels {
  size_t n;
  size_t size;
  size_t count;
  const std::function<void(size_t, size_t, size_t)>& body;
  const CancelContext* stop;
  const char* label;
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};  // a runner threw: claim no more
};

// Claims morsels and runs the body on each until none is left, the stop
// context reports a stop or another runner threw. Lets the body's exception
// propagate.
void RunMorsels(Morsels& m) {
  while (true) {
    if (m.stop != nullptr && m.stop->Check() != StopReason::kNone) return;
    if (m.failed.load(std::memory_order_relaxed)) return;
    size_t i = m.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= m.count) return;
    size_t begin = i * m.size;
    size_t end = std::min(m.n, begin + m.size);
    bool obs_on = obs::Enabled();
    uint64_t t0 = obs_on ? NowUs() : 0;
    {
      // Attaches under the calling query's span tree on every runner —
      // pool workers included, via the TaskContext the helper installed.
      obs::Span span(obs_on && obs::CurrentTrace() != nullptr
                         ? std::string(m.label) + "[" + std::to_string(begin) +
                               ".." + std::to_string(end) + ")"
                         : std::string());
      m.body(i, begin, end);
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

// A loop run on the pool. The caller shares it by reference count with its
// helper tasks, so a helper the pool starts after the caller returned still
// holds valid state: it finds the loop closed and touches nothing else (the
// body, stop context and label belong to the caller's frame).
class PooledLoop {
 public:
  PooledLoop(size_t n, size_t size, size_t count,
             const std::function<void(size_t, size_t, size_t)>& body,
             const ParallelForOptions& options, const obs::TaskContext& ctx)
      : morsels_{n, size, count, body, options.stop, options.label},
        ctx_(ctx) {}

  // A helper task's body: runs morsels under the caller's observability
  // context, or nothing once the caller closed the loop.
  void Help() {
    if (!Enter()) {
      if (obs::Enabled()) CancelledCounter().Add(1);
      return;
    }
    {
      obs::TaskContextScope scope(ctx_);
      try {
        RunMorsels(morsels_);
      } catch (...) {
        Fail(std::current_exception());
      }
    }
    Leave();
  }

  // The caller's part: runs morsels until none is left, then closes the
  // loop, waits for the helpers inside it and rethrows the first exception
  // any runner threw.
  void Run() {
    try {
      RunMorsels(morsels_);
    } catch (...) {
      Fail(std::current_exception());
    }
    std::exception_ptr error = CloseAndWait();
    if (error) std::rethrow_exception(error);
  }

 private:
  bool Enter() {
    MutexLock lock(mu_);
    if (closed_) return false;
    ++inside_;
    return true;
  }

  void Leave() {
    MutexLock lock(mu_);
    if (--inside_ == 0) left_cv_.NotifyOne();
  }

  void Fail(std::exception_ptr error) {
    morsels_.failed.store(true, std::memory_order_relaxed);
    MutexLock lock(mu_);
    if (!error_) error_ = std::move(error);
  }

  std::exception_ptr CloseAndWait() {
    MutexLock lock(mu_);
    closed_ = true;
    while (inside_ > 0) left_cv_.Wait(mu_);
    return error_;
  }

  Morsels morsels_;
  const obs::TaskContext ctx_;
  Mutex mu_;
  CondVar left_cv_;  // the caller waits here for inside_ to reach 0
  bool closed_ STATCUBE_GUARDED_BY(mu_) = false;
  int inside_ STATCUBE_GUARDED_BY(mu_) = 0;  // helpers running morsels
  std::exception_ptr error_ STATCUBE_GUARDED_BY(mu_);
};

}  // namespace

void ParallelFor(size_t n,
                 const std::function<void(size_t, size_t, size_t)>& body,
                 const ParallelForOptions& options) {
  if (n == 0) return;
  size_t size =
      options.morsel_size == 0 ? kDefaultMorselRows : options.morsel_size;
  size_t count = (n - 1) / size + 1;  // n > 0; no overflow
  TaskScheduler& sched = options.scheduler != nullptr
                             ? *options.scheduler
                             : TaskScheduler::Global();
  if (obs::Enabled()) ParallelForCounter().Add(1);

  int workers = options.max_workers;
  if (workers <= 0) workers = sched.num_threads();
  if (workers > sched.num_threads()) sched.EnsureThreads(workers);
  workers = int(std::min(size_t(workers), count));

  if (workers <= 1) {
    // Inline: the same morsels in ascending order — bit-identical to the
    // pooled run for any kernel that combines by morsel index.
    Morsels morsels{n, size, count, body, options.stop, options.label};
    RunMorsels(morsels);
    return;
  }

  obs::TaskContext ctx = obs::TaskContext::Capture();
  if (ctx.resources != nullptr)
    ctx.resources->CountTasks(uint64_t(workers - 1));
  auto loop =
      std::make_shared<PooledLoop>(n, size, count, body, options, ctx);
  sched.Submit([loop] { loop->Help(); }, workers - 1);
  loop->Run();
}

}  // namespace statcube::exec
