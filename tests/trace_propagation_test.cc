// Cross-thread trace propagation and per-query resource attribution
// (observability v2): tasks and morsels executed by pool workers must
// attach their spans under the submitting query's span tree (one tree, not
// one per thread), record which worker ran them, charge the query's
// ResourceAccumulator from whatever thread did the work, and stay bounded
// by the trace's span budget. Results must remain bit-identical at any
// thread count with full profiling on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "statcube/exec/task_scheduler.h"
#include "statcube/io/csv.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/query_profile.h"
#include "statcube/obs/resource.h"
#include "statcube/obs/trace.h"
#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

using exec::ParallelFor;
using exec::ParallelForOptions;
using exec::TaskScheduler;

// Walks parent links from span `i` to a root; returns the root index or -1
// on a broken link. Every link must strictly decrease (spans are appended
// after their parent is opened), so this terminates.
int32_t RootOf(const std::vector<obs::SpanRecord>& spans, int32_t i) {
  while (spans[size_t(i)].parent != -1) {
    int32_t p = spans[size_t(i)].parent;
    if (p < 0 || p >= i) return -1;
    i = p;
  }
  return i;
}

// ------------------------------------------------- helper propagation

TEST(TracePropagationTest, WorkerTaskSpansParentUnderSubmittingSpan) {
  obs::EnabledScope on(true);
  obs::TraceScope scope;
  TaskScheduler pool(4);

  // A barrier forces the four morsels to be in flight simultaneously, so
  // each must run on a distinct thread (the caller and three helpers on
  // workers) — guaranteeing genuinely cross-thread span recording.
  {
    obs::Span fanout("fanout");
    ParallelForOptions opt;
    opt.scheduler = &pool;
    opt.label = "morsel";
    opt.morsel_size = 1;
    opt.max_workers = 4;
    std::atomic<int> arrived{0};
    ParallelFor(
        4,
        [&arrived](size_t, size_t, size_t) {
          obs::Span s("task");
          arrived.fetch_add(1, std::memory_order_acq_rel);
          while (arrived.load(std::memory_order_acquire) < 4)
            std::this_thread::yield();
        },
        opt);
  }

  const std::vector<obs::SpanRecord>& spans = scope.trace().spans();
  int32_t fanout_idx = -1;
  for (size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == "fanout") fanout_idx = int32_t(i);
  ASSERT_NE(fanout_idx, -1);

  std::set<uint32_t> task_threads;
  size_t tasks = 0;
  for (const obs::SpanRecord& s : spans) {
    EXPECT_FALSE(s.open) << s.name;
    if (s.name == "task") {
      ++tasks;
      // Under its morsel's span, opened on the same thread, which sits
      // under the submitting span.
      ASSERT_GE(s.parent, 0);
      const obs::SpanRecord& morsel = spans[size_t(s.parent)];
      EXPECT_EQ(morsel.name.rfind("morsel[", 0), 0u) << morsel.name;
      EXPECT_EQ(morsel.thread_id, s.thread_id);
      EXPECT_EQ(morsel.parent, fanout_idx)
          << "worker span not parented under the submitting span";
      task_threads.insert(s.thread_id);
    }
  }
  EXPECT_EQ(tasks, 4u);
  // All four were simultaneously in the barrier, so four distinct threads.
  EXPECT_EQ(task_threads.size(), 4u);
}

// --------------------------------------------- ParallelFor under a query

TEST(TracePropagationTest, MorselSpansFormOneTreeAndMatchResources) {
  obs::EnabledScope on(true);
  obs::QueryProfile profile;
  {
    obs::ProfileScope scope;
    TaskScheduler pool(4);
    ParallelForOptions opt;
    opt.scheduler = &pool;
    opt.morsel_size = 16;
    opt.max_workers = 4;
    // 8 morsels of ~2ms each: long enough that per-morsel CPU charges are
    // well above clock granularity, so the span/resource cross-check below
    // is meaningful even under sanitizers.
    ParallelFor(128,
                [](size_t, size_t, size_t) {
                  // Simulated morsel work. statcube-lint: allow(sleep)
                  std::this_thread::sleep_for(std::chrono::milliseconds(2));
                },
                opt);
    profile = scope.Take();
  }

  const std::vector<obs::SpanRecord>& spans = profile.trace.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent, -1);

  uint64_t morsel_span_us = 0;
  size_t morsel_spans = 0;
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_FALSE(spans[i].open) << spans[i].name;
    // One tree: every span reaches the query root.
    EXPECT_EQ(RootOf(spans, int32_t(i)), 0) << spans[i].name;
    if (spans[i].name.rfind("parallel_for[", 0) == 0) {
      ++morsel_spans;
      morsel_span_us += spans[i].dur_ns / 1000;
    }
  }
  EXPECT_EQ(morsel_spans, 8u);

  const obs::ResourceVector& res = profile.resources;
  EXPECT_EQ(res.morsels, 8u);
  EXPECT_GT(res.tasks_spawned, 0u);
  EXPECT_GT(res.cpu_us, 0u);
  // Morsel spans are leaves, so their durations are self-time; the same
  // wall-clock windows are what RunMorsels charges as CPU. Generous bounds
  // absorb clock/overhead noise.
  EXPECT_GE(res.cpu_us, morsel_span_us / 2);
  EXPECT_LE(res.cpu_us, morsel_span_us * 2 + 1000);
  // The per-thread split never exceeds the aggregate, and ids are unique.
  uint64_t split = 0;
  std::set<uint32_t> ids;
  for (const auto& [tid, us] : res.cpu_us_by_thread) {
    split += us;
    EXPECT_TRUE(ids.insert(tid).second);
  }
  EXPECT_LE(split, res.cpu_us);
}

// ------------------------------------------------- end-to-end query path

class TraceQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = std::make_unique<RetailData>(*MakeRetailWorkload());
  }
  static void TearDownTestSuite() { data_.reset(); }
  static std::unique_ptr<RetailData> data_;
};

std::unique_ptr<RetailData> TraceQueryTest::data_;

TEST_F(TraceQueryTest, ParallelQueryProducesOneTraceWithWorkerResources) {
  QueryOptions opt;
  opt.threads = 4;
  opt.record = false;
  auto r = QueryProfiled(data_->object, "SELECT sum(amount) BY city", opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const std::vector<obs::SpanRecord>& spans = r->profile.trace.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "query");
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_FALSE(spans[i].open) << spans[i].name;
    EXPECT_EQ(RootOf(spans, int32_t(i)), 0)
        << spans[i].name << " detached from the query tree";
  }

  const obs::ResourceVector& res = r->profile.resources;
  EXPECT_FALSE(res.Empty());
  EXPECT_GT(res.morsels, 0u);       // 8000 rows / 2048 = several morsels
  EXPECT_GT(res.tasks_spawned, 0u);
  EXPECT_GT(res.bytes_touched, 0u);
  uint64_t split = 0;
  for (const auto& [tid, us] : res.cpu_us_by_thread) split += us;
  EXPECT_LE(split, res.cpu_us);

  // The report and JSON carry the new attribution.
  EXPECT_NE(r->profile.ToString().find("resources:"), std::string::npos);
  EXPECT_NE(r->profile.ToJson().find("\"resources\":"), std::string::npos);
}

TEST_F(TraceQueryTest, ResultsBitIdenticalAcrossThreadCountsWhileProfiled) {
  const char* queries[] = {
      "SELECT sum(amount) BY city",
      "SELECT sum(qty), avg(amount) BY category",
      "SELECT sum(amount) BY CUBE(city, month)",
  };
  // WriteCsv keeps every cell's type and bits (csv_test), so equal text is
  // a bit-identical table.
  for (const char* text : queries) {
    std::string baseline;
    for (int t : {1, 2, 4}) {
      QueryOptions opt;
      opt.threads = t;
      opt.record = false;
      auto r = QueryProfiled(data_->object, text, opt);
      ASSERT_TRUE(r.ok()) << text << ": " << r.status().ToString();
      if (t == 1) {
        baseline = WriteCsv(*r->table);
      } else {
        EXPECT_EQ(WriteCsv(*r->table), baseline) << text << " @" << t
                                                << " threads";
      }
    }
  }
}

// ----------------------------------------------------------- span budget

TEST(TracePropagationTest, SpanBudgetBoundsTraceAndCountsDrops) {
  obs::EnabledScope on(true);
  obs::TraceScope scope;
  scope.trace().set_span_budget(4);
  for (int i = 0; i < 10; ++i) obs::Span s("s" + std::to_string(i));
  EXPECT_EQ(scope.trace().spans().size(), 4u);
  EXPECT_EQ(scope.trace().dropped_spans(), 6u);
  // Refused spans are invisible to nesting: a child opened while the budget
  // is exhausted simply isn't recorded, and the tree stays printable.
  std::string tree = scope.trace().TreeString();
  EXPECT_NE(tree.find("dropped"), std::string::npos) << tree;
}

TEST(TracePropagationTest, SpanBudgetHoldsUnderParallelFanout) {
  obs::EnabledScope on(true);
  obs::QueryProfile profile;
  {
    obs::ProfileScope scope;
    obs::ActiveProfile()->trace.set_span_budget(8);
    TaskScheduler pool(4);
    ParallelForOptions opt;
    opt.scheduler = &pool;
    opt.morsel_size = 1;  // 64 morsels, far beyond the budget
    opt.max_workers = 4;
    ParallelFor(64, [](size_t, size_t, size_t) {}, opt);
    profile = scope.Take();
  }
  EXPECT_LE(profile.trace.spans().size(), 8u);
  EXPECT_GT(profile.trace.dropped_spans(), 0u);
  // Dropping spans must not drop attribution: every morsel still counted.
  EXPECT_EQ(profile.resources.morsels, 64u);
}

}  // namespace
}  // namespace statcube
