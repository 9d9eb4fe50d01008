// Mid-flight cancellation under load, at 1/2/4 worker threads: a separate
// thread cancels the query's token while the morsel loops are running, and
// the test asserts the cooperative-stop contract end to end — the query
// returns kCancelled (a clean Status, not a crash or a torn table), no
// partial result is admitted to the result cache, the flight recorder
// retains the profile with outcome "cancelled", and the registry is empty
// again afterwards. Run under TSan by the sanitizer CI matrix; the
// registry-snapshot polling below is the race detector's food.
//
// Timing note: cancellation is cooperative, so a cancel can lose the race
// with a fast query. Each thread count therefore retries until one attempt
// is observed mid-flight (bounded by kMaxAttempts); with the workload sized
// here a first-attempt hit is the norm.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "statcube/cache/result_cache.h"
#include "statcube/common/cancellation.h"
#include "statcube/obs/flight_recorder.h"
#include "statcube/obs/query_registry.h"
#include "statcube/query/cache_key.h"
#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

// Big enough that a CUBE over three dimensions runs for many morsels
// (hundreds at kDefaultMorselRows = 2048) on any build type.
const StatisticalObject& Retail() {
  static StatisticalObject* obj = [] {
    RetailOptions opt;
    opt.num_products = 24;
    opt.num_stores = 8;
    opt.num_cities = 4;
    opt.num_days = 30;
    opt.num_rows = 400000;
    return new StatisticalObject(
        MakeRetailWorkload(opt).ValueOrDie().object);
  }();
  return *obj;
}

constexpr char kQuery[] = "SELECT sum(amount) BY CUBE(city, month, store)";
constexpr int kMaxAttempts = 20;

// One attempt: start the query on a worker thread with an external token and
// the cache in admit-everything mode, cancel as soon as the registry shows
// execution progress, and report whether the cancel won the race. When it
// did, every post-condition is asserted here.
bool AttemptCancel(int threads) {
  cache::ResultCache& rc = cache::ResultCache::Global();
  rc.Clear();

  CancellationToken token;
  std::atomic<bool> done{false};
  Status status = Status::OK();

  std::thread worker([&] {
    QueryOptions opt;
    opt.engine = QueryEngine::kRelational;
    opt.threads = threads;
    opt.cache = cache::Mode::kOn;
    opt.record = true;
    opt.cancel = &token;
    auto r = QueryProfiled(Retail(), kQuery, opt);
    status = r.ok() ? Status::OK() : r.status();
    done.store(true, std::memory_order_release);
  });

  // Wait until the query is visibly executing — morsels for the parallel
  // paths, any charge or a couple of ms in flight for the serial path —
  // then cancel. If the query finishes first, this attempt is a miss.
  while (!done.load(std::memory_order_acquire)) {
    bool progressed = false;
    for (const obs::ActiveQuerySnapshot& q :
         obs::QueryRegistry::Global().Snapshot()) {
      if (q.query != kQuery) continue;
      progressed = q.resources.morsels >= 1 ||
                   q.resources.bytes_touched > 0 ||
                   q.resources.cpu_us > 0 || q.elapsed_us > 2000;
    }
    if (progressed) {
      token.Cancel();
      break;
    }
    std::this_thread::yield();
  }
  worker.join();

  if (status.ok()) return false;  // the query outran the cancel: retry

  // A cancelled query must fail with exactly kCancelled...
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  // ...leave nothing behind in the result cache (admission was wide open,
  // so a leaked partial table would have been admitted)...
  EXPECT_EQ(rc.entries(), 0u) << "partial result cached at threads="
                              << threads;
  EXPECT_EQ(rc.Lookup(*query::BuildQueryKey(Retail(), *ParseQuery(kQuery),
                                            QueryEngine::kRelational))
                .table,
            nullptr);
  // ...and still be accounted for: profile retained, outcome "cancelled".
  std::vector<obs::RecordedProfile> recent =
      obs::FlightRecorder::Global().Snapshot(1);
  EXPECT_EQ(recent.size(), 1u);
  if (!recent.empty()) {
    EXPECT_EQ(recent[0].query, kQuery);
    EXPECT_EQ(recent[0].profile.outcome, "cancelled");
  }
  EXPECT_EQ(obs::QueryRegistry::Global().ActiveCount(), 0u);
  return true;
}

class CancellationLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Admit everything so a leaked partial insert cannot hide behind the
    // cost-aware admission floor; restored in TearDown.
    cache::ResultCache& rc = cache::ResultCache::Global();
    saved_admit_min_us_ = rc.admit_min_us();
    rc.set_admit_min_us(0);
  }
  void TearDown() override {
    cache::ResultCache& rc = cache::ResultCache::Global();
    rc.set_admit_min_us(saved_admit_min_us_);
    rc.Clear();
  }
  uint64_t saved_admit_min_us_ = 0;
};

void RunAtThreads(int threads) {
  // Teeth check: the same query, uncancelled, IS admitted to the cache —
  // so the "no partial insert" assertions above cannot pass vacuously.
  {
    cache::ResultCache& rc = cache::ResultCache::Global();
    rc.Clear();
    QueryOptions opt;
    opt.threads = threads;
    opt.cache = cache::Mode::kOn;
    opt.record = false;
    auto r = QueryProfiled(Retail(), kQuery, opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_GE(rc.entries(), 1u) << "uncancelled run was not cached; the "
                                   "no-partial-insert check would be vacuous";
  }

  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    if (AttemptCancel(threads)) return;
  }
  FAIL() << "no attempt out of " << kMaxAttempts
         << " was cancelled mid-flight at threads=" << threads;
}

TEST_F(CancellationLoadTest, SerialQueryStopsCleanly) { RunAtThreads(1); }

TEST_F(CancellationLoadTest, TwoThreadQueryStopsCleanly) { RunAtThreads(2); }

TEST_F(CancellationLoadTest, FourThreadQueryStopsCleanly) { RunAtThreads(4); }

}  // namespace
}  // namespace statcube
