// Unit tests for the query lifecycle control plane: CancelContext semantics
// (token/deadline precedence, monotonicity), StopStatus mapping, the
// thread-local CancelScope, the in-flight QueryRegistry (register / snapshot
// / cancel / JSON / gauge), the watchdog sweep (soft log, hard cancel,
// once-only reporting), and QueryProfiled end-to-end outcomes: pre-cancelled
// tokens, expired deadlines, and the profile's `outcome` field as retained
// by the flight recorder.

#include "statcube/obs/query_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.h"
#include "statcube/common/cancellation.h"
#include "statcube/obs/flight_recorder.h"
#include "statcube/obs/log.h"
#include "statcube/obs/metrics.h"
#include "statcube/olap/backend.h"
#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

const StatisticalObject& Retail() {
  static StatisticalObject* obj = [] {
    RetailOptions opt;
    opt.num_products = 6;
    opt.num_stores = 4;
    opt.num_cities = 2;
    opt.num_days = 5;
    opt.num_rows = 2000;
    return new StatisticalObject(
        MakeRetailWorkload(opt).ValueOrDie().object);
  }();
  return *obj;
}

// ------------------------------------------------------------ CancelContext

TEST(CancelContextTest, InactiveWithoutTokenOrDeadline) {
  CancelContext ctx;
  EXPECT_FALSE(ctx.active());
  EXPECT_EQ(ctx.Check(), StopReason::kNone);
}

TEST(CancelContextTest, TokenCancelIsSharedAndMonotonic) {
  CancellationToken token;
  CancellationToken copy = token;  // copies share the flag
  CancelContext ctx;
  ctx.token = &token;
  EXPECT_TRUE(ctx.active());
  EXPECT_EQ(ctx.Check(), StopReason::kNone);
  copy.Cancel();
  EXPECT_EQ(ctx.Check(), StopReason::kCancelled);
  // Monotonic: once stopped, every later Check agrees.
  EXPECT_EQ(ctx.Check(), StopReason::kCancelled);
}

TEST(CancelContextTest, ExpiredDeadlineReportsDeadlineExceeded) {
  CancelContext ctx;
  ctx.deadline_us = SteadyNowUs() - 1;  // already in the past
  EXPECT_TRUE(ctx.active());
  EXPECT_EQ(ctx.Check(), StopReason::kDeadlineExceeded);
}

TEST(CancelContextTest, FutureDeadlineDoesNotFire) {
  CancelContext ctx;
  ctx.deadline_us = SteadyNowUs() + 60ull * 1000 * 1000;  // one minute out
  EXPECT_EQ(ctx.Check(), StopReason::kNone);
}

TEST(CancelContextTest, CancellationWinsOverExpiredDeadline) {
  CancellationToken token;
  token.Cancel();
  CancelContext ctx;
  ctx.token = &token;
  ctx.deadline_us = SteadyNowUs() - 1;
  EXPECT_EQ(ctx.Check(), StopReason::kCancelled);
}

TEST(CancelContextTest, StopStatusMapsReasonToCode) {
  Status c = StopStatus(StopReason::kCancelled, "groupby");
  EXPECT_EQ(c.code(), StatusCode::kCancelled);
  EXPECT_NE(c.ToString().find("groupby"), std::string::npos);
  Status d = StopStatus(StopReason::kDeadlineExceeded, "cube");
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(d.ToString().find("cube"), std::string::npos);
}

TEST(CancelScopeTest, InstallsAndRestoresThreadLocalContext) {
  EXPECT_EQ(CurrentCancelContext(), nullptr);
  CancelContext outer;
  {
    CancelScope install(&outer);
    EXPECT_EQ(CurrentCancelContext(), &outer);
    CancelContext inner;
    {
      CancelScope nested(&inner);
      EXPECT_EQ(CurrentCancelContext(), &inner);
    }
    EXPECT_EQ(CurrentCancelContext(), &outer);
    {
      CancelScope noop(nullptr);  // nullptr keeps the previous context
      EXPECT_EQ(CurrentCancelContext(), &outer);
    }
  }
  EXPECT_EQ(CurrentCancelContext(), nullptr);
}

TEST(CancelScopeTest, ContextIsPerThread) {
  CancelContext ctx;
  CancelScope install(&ctx);
  const CancelContext* seen = &ctx;
  std::thread other([&seen] { seen = CurrentCancelContext(); });
  other.join();
  EXPECT_EQ(seen, nullptr);  // the other thread never installed one
  EXPECT_EQ(CurrentCancelContext(), &ctx);
}

// ------------------------------------------------------------ QueryRegistry

obs::ActiveQueryInfo MakeInfo(const std::string& text,
                              const CancellationToken& token) {
  obs::ActiveQueryInfo info;
  info.query = text;
  info.engine = "relational";
  info.cache_mode = "off";
  info.threads = 2;
  info.token = token;
  return info;
}

TEST(QueryRegistryTest, RegisterSnapshotUnregister) {
  obs::QueryRegistry reg;
  CancellationToken token;
  uint64_t id = reg.Register(MakeInfo("SELECT sum(amount) BY store", token));
  EXPECT_GE(id, 1u);
  EXPECT_EQ(reg.ActiveCount(), 1u);

  std::vector<obs::ActiveQuerySnapshot> snaps = reg.Snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].id, id);
  EXPECT_EQ(snaps[0].query, "SELECT sum(amount) BY store");
  EXPECT_EQ(snaps[0].engine, "relational");
  EXPECT_EQ(snaps[0].cache_mode, "off");
  EXPECT_EQ(snaps[0].threads, 2);
  EXPECT_FALSE(snaps[0].cancelled);

  reg.Unregister(id);
  EXPECT_EQ(reg.ActiveCount(), 0u);
  reg.Unregister(id);  // idempotent on unknown ids
  EXPECT_EQ(reg.ActiveCount(), 0u);
}

TEST(QueryRegistryTest, IdsAreMonotonic) {
  obs::QueryRegistry reg;
  CancellationToken token;
  uint64_t a = reg.Register(MakeInfo("q1", token));
  uint64_t b = reg.Register(MakeInfo("q2", token));
  EXPECT_LT(a, b);
  reg.Unregister(a);
  uint64_t c = reg.Register(MakeInfo("q3", token));
  EXPECT_LT(b, c);  // ids are never reused
  reg.Unregister(b);
  reg.Unregister(c);
}

TEST(QueryRegistryTest, CancelFlipsTheSharedToken) {
  obs::QueryRegistry reg;
  CancellationToken token;
  uint64_t id = reg.Register(MakeInfo("q", token));
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(reg.Cancel(id));
  EXPECT_TRUE(token.cancelled());  // the caller's copy sees it
  std::vector<obs::ActiveQuerySnapshot> snaps = reg.Snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_TRUE(snaps[0].cancelled);
  reg.Unregister(id);
  EXPECT_FALSE(reg.Cancel(id));  // gone: cancel is a miss
}

TEST(QueryRegistryTest, ToJsonIsWellFormedAndListsQueries) {
  obs::QueryRegistry reg;
  CancellationToken token;
  uint64_t id = reg.Register(MakeInfo("SELECT sum(\"amount\") BY store",
                                      token));
  std::string json = reg.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"active\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\":" + std::to_string(id)), std::string::npos);
  EXPECT_NE(json.find("\\\"amount\\\""), std::string::npos)
      << "query text must be JSON-escaped: " << json;
  reg.Unregister(id);
  std::string empty = reg.ToJson();
  EXPECT_TRUE(JsonChecker(empty).Valid()) << empty;
  EXPECT_NE(empty.find("\"active\":0"), std::string::npos);
  EXPECT_NE(empty.find("\"queries\":[]"), std::string::npos);
}

TEST(QueryRegistryTest, GlobalTracksActiveGauge) {
  obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("statcube.query.active");
  double before = gauge.Value();
  CancellationToken token;
  {
    obs::ActiveQueryScope scope(MakeInfo("gauge probe", token));
    EXPECT_GE(scope.id(), 1u);
    EXPECT_EQ(gauge.Value(), before + 1);
  }
  EXPECT_EQ(gauge.Value(), before);
}

TEST(QueryRegistryTest, SnapshotReadsLiveResources) {
  obs::QueryRegistry reg;
  obs::ResourceAccumulator acc;
  acc.ChargeCpu(0, 123);
  acc.ChargeBytes(456);
  acc.CountMorsels(7);
  CancellationToken token;
  obs::ActiveQueryInfo info = MakeInfo("q", token);
  info.resources = &acc;
  uint64_t id = reg.Register(std::move(info));
  std::vector<obs::ActiveQuerySnapshot> snaps = reg.Snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].resources.cpu_us, 123u);
  EXPECT_EQ(snaps[0].resources.bytes_touched, 456u);
  EXPECT_EQ(snaps[0].resources.morsels, 7u);
  acc.CountMorsels(1);  // mid-flight progress is visible on the next snapshot
  EXPECT_EQ(reg.Snapshot()[0].resources.morsels, 8u);
  reg.Unregister(id);
}

// --------------------------------------------------------------- watchdog

// SweepStuck thresholds are wall microseconds since registration; spin past
// one clock tick so a 1 µs threshold fires deterministically (Register and
// the sweep can otherwise land in the same microsecond).
void SpinPastOneMicrosecond() {
  uint64_t start = SteadyNowUs();
  while (SteadyNowUs() <= start) {
  }
}

TEST(WatchdogSweepTest, SoftThresholdReportsEachQueryOnce) {
  obs::QueryRegistry reg;
  CancellationToken token;
  uint64_t id = reg.Register(MakeInfo("slow", token));
  SpinPastOneMicrosecond();
  // stuck_after_us = 1: everything in flight is already past it.
  std::vector<obs::StuckQuery> first = reg.SweepStuck(1, 0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].snapshot.id, id);
  EXPECT_FALSE(first[0].auto_cancelled);
  EXPECT_FALSE(token.cancelled());  // soft threshold only logs
  // The same query is not reported again by later sweeps.
  EXPECT_TRUE(reg.SweepStuck(1, 0).empty());
  reg.Unregister(id);
}

TEST(WatchdogSweepTest, HardLimitCancelsOnce) {
  obs::QueryRegistry reg;
  CancellationToken token;
  uint64_t id = reg.Register(MakeInfo("runaway", token));
  SpinPastOneMicrosecond();
  std::vector<obs::StuckQuery> swept = reg.SweepStuck(1, 1);
  // Crossed both thresholds in one sweep: logged once, cancelled once.
  ASSERT_EQ(swept.size(), 2u);
  EXPECT_FALSE(swept[0].auto_cancelled);
  EXPECT_TRUE(swept[1].auto_cancelled);
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(reg.SweepStuck(1, 1).empty());
  reg.Unregister(id);
}

TEST(WatchdogSweepTest, ZeroThresholdsDisable) {
  obs::QueryRegistry reg;
  CancellationToken token;
  uint64_t id = reg.Register(MakeInfo("fine", token));
  EXPECT_TRUE(reg.SweepStuck(0, 0).empty());
  EXPECT_FALSE(token.cancelled());
  reg.Unregister(id);
}

TEST(WatchdogTest, SweepOnceLogsStructuredStuckQueryEvent) {
  // Route the structured log into a buffer and relax the rate limit so the
  // event cannot be dropped by earlier tests' emissions.
  std::vector<std::string> lines;
  obs::LogSink prev = obs::SetLogSink(
      [&lines](const std::string& line) { lines.push_back(line); });
  obs::SetLogRateLimit(0, 0);

  CancellationToken token;
  obs::ActiveQueryScope scope(MakeInfo("stuck probe", token));
  SpinPastOneMicrosecond();
  obs::QueryWatchdogOptions opt;
  opt.stuck_after_us = 1;   // everything qualifies immediately
  opt.max_query_us = 0;     // log only
  obs::QueryWatchdog dog(opt);
  size_t actioned = dog.SweepOnce();
  obs::SetLogSink(prev ? prev : obs::LogSink(nullptr));

  EXPECT_GE(actioned, 1u);
  EXPECT_EQ(dog.sweeps(), 1u);
  bool found = false;
  for (const std::string& line : lines) {
    if (line.find("\"stuck_query\"") == std::string::npos) continue;
    found = true;
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
    EXPECT_NE(line.find("\"query\":\"stuck probe\""), std::string::npos);
    EXPECT_NE(line.find("\"action\":\"logged\""), std::string::npos);
    EXPECT_NE(line.find("\"elapsed_us\""), std::string::npos);
  }
  EXPECT_TRUE(found) << "no stuck_query line captured";
}

TEST(WatchdogTest, StartStopIdempotentAndSweepsAdvance) {
  obs::QueryWatchdogOptions opt;
  opt.interval_ms = 10;  // clamp floor; keeps the test fast
  obs::QueryWatchdog dog(opt);
  EXPECT_EQ(dog.interval_ms(), 10);
  dog.Start();
  dog.Start();  // second Start is a no-op
  // The loop sweeps immediately on entry; spin until that first sweep lands.
  while (dog.sweeps() == 0) std::this_thread::yield();
  dog.Stop();
  dog.Stop();  // second Stop is a no-op
  uint64_t after = dog.sweeps();
  EXPECT_GE(after, 1u);
}

// ------------------------------------------------- QueryProfiled outcomes

TEST(QueryLifecycleTest, PreCancelledTokenStopsAtAdmission) {
  CancellationToken token;
  token.Cancel();
  QueryOptions opt;
  opt.cancel = &token;
  opt.record = false;
  auto r = QueryProfiled(Retail(), "SELECT sum(amount) BY store", opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(QueryLifecycleTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  QueryOptions opt;
  opt.deadline_us = 1;  // practically pre-expired relative budget
  opt.record = false;
  auto r = QueryProfiled(Retail(), "SELECT sum(amount) BY CUBE(city, month)",
                         opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

// deadline_us = 0 is "no deadline", not "instant deadline": the same CUBE
// query that dies under a 1 us budget above must complete untouched. This is
// the contract olap_cli --deadline-ms=0 and the /query endpoint's
// "deadline_ms": 0 rely on.
TEST(QueryLifecycleTest, ZeroDeadlineMeansNoDeadline) {
  QueryOptions opt;
  opt.deadline_us = 0;
  opt.record = false;
  auto r = QueryProfiled(Retail(), "SELECT sum(amount) BY CUBE(city, month)",
                         opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->profile.outcome, "ok");
  EXPECT_GT(r->table->num_rows(), 0u);
}

TEST(QueryLifecycleTest, StoppedQueryProfileRecordsOutcome) {
  CancellationToken token;
  token.Cancel();
  QueryOptions opt;
  opt.cancel = &token;
  opt.record = true;  // retain the profile so the outcome is observable
  auto r = QueryProfiled(Retail(), "SELECT sum(amount) BY city", opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  std::vector<obs::RecordedProfile> recent =
      obs::FlightRecorder::Global().Snapshot(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].profile.outcome, "cancelled");
  EXPECT_NE(recent[0].ToJson().find("\"outcome\":\"cancelled\""),
            std::string::npos);
}

TEST(QueryLifecycleTest, SuccessfulQueryOutcomeIsOk) {
  QueryOptions opt;
  opt.record = true;
  auto r = QueryProfiled(Retail(), "SELECT sum(amount) BY store", opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->profile.outcome, "ok");
  EXPECT_NE(r->profile.ToJson().find("\"outcome\":\"ok\""),
            std::string::npos);
}

// The executor's row pass checks the stop context itself, so a fired scope
// stops a relational query before it reaches the group-by — serially and at
// any thread count, with or without a WHERE. (A query with nothing to derive
// or filter has no row pass; its group-by stops it.)
TEST(QueryLifecycleTest, FiredScopeStopsTheScan) {
  CancellationToken token;
  token.Cancel();
  CancelContext ctx;
  ctx.token = &token;
  CancelScope scope(&ctx);
  for (const char* text : {"SELECT sum(amount) BY city WHERE product = 'prod1'",
                           "SELECT sum(amount) BY store, month"}) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    for (int threads : {1, 2}) {
      EXPECT_EQ(ExecuteQuery(Retail(), *q, threads).status().ToString(),
                "Cancelled: query cancelled during scan")
          << text << " @" << threads;
    }
  }
  auto plain = ParseQuery("SELECT sum(amount) BY store");
  auto derived = ParseQuery("SELECT count() BY month");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(derived.ok());
  // An explicit stop context wins over the scope's, at one thread too, in
  // the group-by and in the row pass.
  CancelContext expired;
  expired.deadline_us = 1;
  for (int threads : {1, 2}) {
    EXPECT_EQ(ExecuteQuery(Retail(), *plain, threads).status().ToString(),
              "Cancelled: query cancelled during groupby")
        << threads;
    EXPECT_EQ(
        ExecuteQuery(Retail(), *plain, threads, &expired).status().ToString(),
        "DeadlineExceeded: deadline exceeded during groupby")
        << threads;
    EXPECT_EQ(
        ExecuteQuery(Retail(), *derived, threads, &expired).status().ToString(),
        "DeadlineExceeded: deadline exceeded during scan")
        << threads;
  }
}

// The cube backends check the stop context too: under a fired scope each
// returns a stop status naming its stage — MOLAP's group loop, the ROLAP
// pass ("scan" with a WHERE to apply, else "groupby") — at any thread count.
TEST(QueryLifecycleTest, FiredScopeStopsTheBackends) {
  std::vector<std::unique_ptr<CubeBackend>> backends;
  backends.push_back(MakeMolapBackend(Retail(), "amount").ValueOrDie());
  backends.push_back(MakeRolapBackend(Retail(), "amount").ValueOrDie());
  backends.push_back(MakeRolapBackend(Retail(), "amount",
                                      {.build_bitmap_indexes = true})
                         .ValueOrDie());
  const ParsedQuery plain =
      ParseQuery("SELECT sum(amount) BY store").ValueOrDie();
  const ParsedQuery where =
      ParseQuery("SELECT sum(amount) BY store WHERE product = 'prod1'")
          .ValueOrDie();
  CancellationToken token;
  token.Cancel();
  CancelContext ctx;
  ctx.token = &token;
  CancelScope scope(&ctx);
  for (const auto& backend : backends) {
    const bool molap = backend->name() == "molap";
    for (int threads : {1, 2}) {
      const std::string at = backend->name() + " @" + std::to_string(threads);
      EXPECT_EQ(ExecuteQueryOnBackend(Retail(), plain, *backend, threads)
                    .status()
                    .ToString(),
                "Cancelled: query cancelled during groupby")
          << at;
      EXPECT_EQ(ExecuteQueryOnBackend(Retail(), where, *backend, threads)
                    .status()
                    .ToString(),
                molap ? "Cancelled: query cancelled during groupby"
                      : "Cancelled: query cancelled during scan")
          << at;
    }
  }
}

TEST(QueryLifecycleTest, QueryNeverAppearsInRegistryAfterReturn) {
  size_t before = obs::QueryRegistry::Global().ActiveCount();
  QueryOptions opt;
  opt.record = false;
  auto r = QueryProfiled(Retail(), "SELECT sum(amount) BY store", opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(obs::QueryRegistry::Global().ActiveCount(), before);
}

}  // namespace
}  // namespace statcube
