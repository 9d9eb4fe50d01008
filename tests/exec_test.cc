// Tests for the morsel-driven task scheduler (statcube/exec): pool sizing
// and growth, ParallelFor coverage and morsel boundaries, nested
// parallelism on pools of any size, a caller finishing its loop while every
// worker is busy, cooperative cancellation, exception propagation through
// ParallelFor, the STATCUBE_THREADS default, and the statcube.exec.*
// metrics surface.

#include "statcube/exec/task_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "statcube/obs/exporter.h"
#include "statcube/obs/metrics.h"

namespace statcube::exec {
namespace {

// A latch the pre-C++20 way: blocks workers until Release().
class Gate {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(SchedulerTest, HardwareThreadsAtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1);
  EXPECT_GE(DefaultThreads(), 1);
  EXPECT_LE(DefaultThreads(), kMaxThreads);
}

TEST(SchedulerTest, DefaultThreadsReadsEnvironment) {
  ASSERT_EQ(setenv("STATCUBE_THREADS", "3", 1), 0);
  EXPECT_EQ(DefaultThreads(), 3);
  ASSERT_EQ(setenv("STATCUBE_THREADS", "100000", 1), 0);
  EXPECT_EQ(DefaultThreads(), kMaxThreads);  // clamped
  // Zero, negative, and garbage fall back to the hardware count.
  for (const char* bad : {"0", "-4", "abc", ""}) {
    ASSERT_EQ(setenv("STATCUBE_THREADS", bad, 1), 0);
    EXPECT_EQ(DefaultThreads(), HardwareThreads()) << "value '" << bad << "'";
  }
  ASSERT_EQ(unsetenv("STATCUBE_THREADS"), 0);
  EXPECT_EQ(DefaultThreads(), HardwareThreads());
}

TEST(SchedulerTest, EnsureThreadsGrowsButNeverShrinks) {
  TaskScheduler pool(2);
  EXPECT_EQ(pool.num_threads(), 2);
  pool.EnsureThreads(4);
  EXPECT_EQ(pool.num_threads(), 4);
  pool.EnsureThreads(1);  // never shrinks
  EXPECT_EQ(pool.num_threads(), 4);
  pool.EnsureThreads(kMaxThreads + 100);  // clamped
  EXPECT_EQ(pool.num_threads(), kMaxThreads);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  TaskScheduler pool(4);
  for (size_t n : {size_t(0), size_t(1), size_t(7), size_t(100),
                   size_t(1000)}) {
    for (size_t morsel : {size_t(1), size_t(3), size_t(64)}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelForOptions opt;
      opt.scheduler = &pool;
      opt.morsel_size = morsel;
      ParallelFor(
          n,
          [&](size_t, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
              hits[i].fetch_add(1, std::memory_order_relaxed);
          },
          opt);
      for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " morsel=" << morsel;
    }
  }
}

TEST(ParallelForTest, MorselBoundariesDependOnlyOnSizeNotThreads) {
  // The determinism contract: (index, begin, end) triples are a pure
  // function of n and morsel_size. Collect them at several worker caps.
  const size_t n = 1000, morsel = 64;
  std::set<std::vector<size_t>> seen;
  for (int workers : {1, 2, 4, 8}) {
    TaskScheduler pool(workers);
    std::mutex mu;
    std::vector<std::vector<size_t>> triples;
    ParallelForOptions opt;
    opt.scheduler = &pool;
    opt.morsel_size = morsel;
    opt.max_workers = workers;
    ParallelFor(
        n,
        [&](size_t m, size_t begin, size_t end) {
          std::lock_guard<std::mutex> lock(mu);
          triples.push_back({m, begin, end});
        },
        opt);
    ASSERT_EQ(triples.size(), (n + morsel - 1) / morsel);
    for (const auto& t : triples) {
      EXPECT_EQ(t[1], t[0] * morsel);
      EXPECT_EQ(t[2], std::min(n, (t[0] + 1) * morsel));
      seen.insert(t);
    }
  }
  // Every thread count produced the same morsel set.
  EXPECT_EQ(seen.size(), (n + morsel - 1) / morsel);
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // Each caller runs morsels itself and waits only for the helpers inside
  // its own loop, so nesting works even on a 1-thread pool.
  for (int workers : {1, 4}) {
    TaskScheduler pool(workers);
    std::atomic<uint64_t> sum{0};
    ParallelForOptions outer;
    outer.scheduler = &pool;
    outer.morsel_size = 1;
    ParallelFor(
        4,
        [&](size_t, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            ParallelForOptions inner;
            inner.scheduler = &pool;
            inner.morsel_size = 16;
            ParallelFor(
                100,
                [&](size_t, size_t b, size_t e) {
                  for (size_t j = b; j < e; ++j)
                    sum.fetch_add(j, std::memory_order_relaxed);
                },
                inner);
          }
        },
        outer);
    EXPECT_EQ(sum.load(), 4u * (99u * 100u / 2)) << workers << " workers";
  }
}

TEST(ParallelForTest, CancelledTokenSkipsRemainingMorsels) {
  TaskScheduler pool(2);
  // Pre-cancelled: no morsel runs at all.
  {
    CancellationToken token;
    token.Cancel();
    CancelContext stop{.token = &token};
    std::atomic<int> ran{0};
    ParallelForOptions opt;
    opt.scheduler = &pool;
    opt.stop = &stop;
    opt.morsel_size = 8;
    ParallelFor(
        100, [&](size_t, size_t, size_t) { ran.fetch_add(1); }, opt);
    EXPECT_EQ(ran.load(), 0);
  }
  // Cancelled from inside the body: later morsels fall through. The claim
  // counter is shared, so at most the morsels already claimed run.
  {
    CancellationToken token;
    CancelContext stop{.token = &token};
    std::atomic<int> ran{0};
    ParallelForOptions opt;
    opt.scheduler = &pool;
    opt.stop = &stop;
    opt.morsel_size = 1;
    opt.max_workers = 1;  // inline on the caller: deterministic order
    ParallelFor(
        100,
        [&](size_t, size_t, size_t) {
          ran.fetch_add(1);
          token.Cancel();
        },
        opt);
    EXPECT_EQ(ran.load(), 1);
  }
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  for (int workers : {1, 4}) {
    TaskScheduler pool(workers);
    ParallelForOptions opt;
    opt.scheduler = &pool;
    opt.morsel_size = 1;
    EXPECT_THROW(
        ParallelFor(
            64,
            [&](size_t m, size_t, size_t) {
              if (m == 3) throw std::runtime_error("morsel 3 failed");
            },
            opt),
        std::runtime_error)
        << workers << " workers";
    // The pool is still usable afterwards.
    std::atomic<int> ran{0};
    ParallelFor(
        8, [&](size_t, size_t, size_t) { ran.fetch_add(1); }, opt);
    EXPECT_EQ(ran.load(), 8);
  }
  // A helper's exception reaches the caller too: a barrier holds both
  // morsels in flight at once, so one runs on a helper, and that one throws.
  TaskScheduler pool(2);
  ParallelForOptions opt;
  opt.scheduler = &pool;
  opt.morsel_size = 1;
  opt.max_workers = 2;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  EXPECT_THROW(ParallelFor(
                   2,
                   [&](size_t, size_t, size_t) {
                     arrived.fetch_add(1);
                     while (arrived.load() < 2) std::this_thread::yield();
                     if (std::this_thread::get_id() != caller)
                       throw std::runtime_error("helper failed");
                   },
                   opt),
               std::runtime_error);
}

TEST(ParallelForTest, CallerFinishesAloneWhileWorkersAreBusy) {
  obs::EnabledScope obs_on(true);
  obs::Counter& cancelled = obs::MetricsRegistry::Global().GetCounter(
      "statcube.exec.tasks_cancelled");
  const uint64_t before = cancelled.Value();

  TaskScheduler pool(2);
  Gate gate;
  std::atomic<int> entered{0};
  // Two loops of two blocking morsels each: a caller holds one morsel and
  // its helper the other, so once all four entered, both workers are taken.
  std::vector<std::thread> blocked;
  for (int i = 0; i < 2; ++i) {
    blocked.emplace_back([&] {
      ParallelForOptions opt;
      opt.scheduler = &pool;
      opt.morsel_size = 1;
      opt.max_workers = 2;
      ParallelFor(
          2,
          [&](size_t, size_t, size_t) {
            entered.fetch_add(1);
            gate.Block();
          },
          opt);
    });
  }
  while (entered.load() < 4) std::this_thread::yield();

  // Its helper stays queued behind the busy workers: the caller must run
  // every morsel itself and return without waiting for it.
  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  ParallelForOptions opt;
  opt.scheduler = &pool;
  opt.morsel_size = 1;
  opt.max_workers = 2;
  ParallelFor(
      8,
      [&](size_t, size_t, size_t) {
        std::lock_guard<std::mutex> lock(mu);
        ran_on.push_back(std::this_thread::get_id());
      },
      opt);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(ran_on.size(), 8u);
    for (std::thread::id id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
  }

  gate.Release();
  for (std::thread& t : blocked) t.join();
  // The queued helper starts now, finds its loop closed and runs nothing.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cancelled.Value() < before + 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(cancelled.Value(), before + 1);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(ran_on.size(), 8u);
}

TEST(ExecMetricsTest, CountersAndHistogramAppearInSnapshots) {
  obs::EnabledScope obs_on(true);
  auto& reg = obs::MetricsRegistry::Global();
  uint64_t tasks = reg.GetCounter("statcube.exec.tasks").Value();
  uint64_t morsels = reg.GetCounter("statcube.exec.morsels").Value();
  uint64_t loops = reg.GetCounter("statcube.exec.parallel_for").Value();

  TaskScheduler pool(2);
  ParallelForOptions opt;
  opt.scheduler = &pool;
  opt.morsel_size = 10;
  ParallelFor(
      100, [](size_t, size_t, size_t) {}, opt);

  EXPECT_GT(reg.GetCounter("statcube.exec.tasks").Value(), tasks);
  EXPECT_GE(reg.GetCounter("statcube.exec.morsels").Value(), morsels + 10);
  EXPECT_EQ(reg.GetCounter("statcube.exec.parallel_for").Value(), loops + 1);
  EXPECT_GE(reg.GetGauge("statcube.exec.pool_size").Value(), 2.0);

  // Metrics register on first lookup; counters that have not fired yet
  // (e.g. tasks_cancelled) still appear once touched.
  for (const char* name :
       {"statcube.exec.worker_busy_us", "statcube.exec.tasks_cancelled"})
    reg.GetCounter(name);
  reg.GetGauge("statcube.exec.queue_depth");

  // Text snapshot: one line per counter; the morsel-latency histogram
  // expands to cumulative le_ lines ending in le_inf == count.
  std::string text = reg.TextSnapshot();
  for (const char* name :
       {"statcube.exec.tasks", "statcube.exec.morsels",
        "statcube.exec.parallel_for", "statcube.exec.worker_busy_us",
        "statcube.exec.tasks_cancelled",
        "statcube.exec.queue_depth", "statcube.exec.pool_size",
        "statcube.exec.morsel_us.count", "statcube.exec.morsel_us.le_inf"})
    EXPECT_NE(text.find(name), std::string::npos) << name;

  // Prometheus snapshot: the histogram ends in a +Inf bucket, and the pool
  // size is a gauge.
  std::string prom = obs::PrometheusSnapshot(reg);
  EXPECT_NE(prom.find("# TYPE statcube_exec_morsel_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("statcube_exec_morsel_us_bucket{le=\"+Inf\"} "),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE statcube_exec_pool_size gauge"),
            std::string::npos);
}

TEST(ExecMetricsTest, DisabledGateMutatesNothing) {
  obs::EnabledScope obs_off(false);
  auto& reg = obs::MetricsRegistry::Global();
  uint64_t tasks = reg.GetCounter("statcube.exec.tasks").Value();
  uint64_t morsels = reg.GetCounter("statcube.exec.morsels").Value();

  TaskScheduler pool(2);
  ParallelForOptions opt;
  opt.scheduler = &pool;
  opt.morsel_size = 4;
  std::atomic<int> ran{0};
  ParallelFor(
      64, [&](size_t, size_t, size_t) { ran.fetch_add(1); }, opt);

  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(reg.GetCounter("statcube.exec.tasks").Value(), tasks);
  EXPECT_EQ(reg.GetCounter("statcube.exec.morsels").Value(), morsels);
}

}  // namespace
}  // namespace statcube::exec
