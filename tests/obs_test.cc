// Tests for the observability layer: metrics registry (histogram bucket
// boundaries, snapshot export), span-tree nesting, disabled-mode no-ops,
// and the MOLAP/ROLAP profile equivalence (same answers, different blocks —
// the §6.6 comparison made measurable).

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "json_checker.h"
#include "statcube/obs/exporter.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/query_profile.h"
#include "statcube/obs/trace.h"
#include "statcube/olap/backend.h"
#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

// --------------------------------------------------------------- metrics

TEST(MetricsTest, CounterAndGaugeBasics) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);

  obs::Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.Value(), 3.5);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  obs::Histogram h({10, 100, 1000});
  h.Observe(5);     // <= 10        -> bucket 0
  h.Observe(10);    // == bound     -> bucket 0 (le semantics)
  h.Observe(11);    // <= 100       -> bucket 1
  h.Observe(100);   // == bound     -> bucket 1
  h.Observe(999);   // <= 1000      -> bucket 2
  h.Observe(1001);  // above last   -> overflow
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);  // overflow
  EXPECT_EQ(h.TotalCount(), 6u);
  EXPECT_DOUBLE_EQ(h.Sum(), 5 + 10 + 11 + 100 + 999 + 1001);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.BucketCount(3), 0u);
}

TEST(MetricsTest, TextSnapshotHistogramBucketsAreCumulative) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  obs::Histogram& h = reg.GetHistogram("statcube.test.cumhist", {1, 10, 100});
  h.Observe(0.5);
  h.Observe(5);
  h.Observe(50);
  h.Observe(500);  // overflow
  // Per-bucket counts are 1,1,1,1 — the text snapshot must accumulate.
  std::string text = reg.TextSnapshot();
  EXPECT_NE(text.find("statcube.test.cumhist.le_1 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("statcube.test.cumhist.le_10 2"), std::string::npos);
  EXPECT_NE(text.find("statcube.test.cumhist.le_100 3"), std::string::npos);
  // le_inf equals count — the cumulative invariant.
  EXPECT_NE(text.find("statcube.test.cumhist.le_inf 4"), std::string::npos);
  EXPECT_NE(text.find("statcube.test.cumhist.count 4"), std::string::npos);
  reg.Reset();
}

TEST(MetricsTest, PercentileInterpolatesWithinBuckets) {
  obs::Histogram h({10, 100, 1000});
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);  // empty
  for (int i = 0; i < 90; ++i) h.Observe(5);     // bucket (0,10]
  for (int i = 0; i < 10; ++i) h.Observe(500);   // bucket (100,1000]
  // p50 falls among the first 90 observations: inside (0, 10].
  double p50 = h.Percentile(0.50);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 10.0);
  // p95 falls among the last 10: inside (100, 1000].
  double p95 = h.Percentile(0.95);
  EXPECT_GT(p95, 100.0);
  EXPECT_LE(p95, 1000.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.Percentile(0.5), h.Percentile(0.99));
  // Overflow observations clamp to the last finite bound.
  obs::Histogram over({10});
  over.Observe(1e9);
  EXPECT_DOUBLE_EQ(over.Percentile(0.99), 10.0);
}

TEST(MetricsTest, PercentileEdgeCases) {
  // Empty histogram: every quantile is 0, including the extremes.
  obs::Histogram empty({10, 100});
  EXPECT_DOUBLE_EQ(empty.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(1.0), 0.0);

  // Single sample: every quantile lands in the one occupied bucket and
  // interpolates to its upper bound (rank 1 of 1).
  obs::Histogram one({10, 100});
  one.Observe(7);
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_GT(one.Percentile(q), 0.0) << "q=" << q;
    EXPECT_LE(one.Percentile(q), 10.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(one.Percentile(1.0), 10.0);

  // Out-of-range q clamps instead of reading garbage ranks.
  EXPECT_DOUBLE_EQ(one.Percentile(-0.5), one.Percentile(0.0));
  EXPECT_DOUBLE_EQ(one.Percentile(2.0), one.Percentile(1.0));

  // Every observation in the +Inf overflow bucket: no finite bucket holds
  // the rank, so the result clamps to the last finite bound — the exporter's
  // p50/p95/p99 gauges must not fabricate values beyond the bucket layout.
  obs::Histogram over({10, 100});
  for (int i = 0; i < 5; ++i) over.Observe(1e12);
  EXPECT_DOUBLE_EQ(over.Percentile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(over.Percentile(0.99), 100.0);
  EXPECT_DOUBLE_EQ(over.Percentile(1.0), 100.0);
}

TEST(MetricsTest, HistogramBoundsAreSorted) {
  obs::Histogram h({1000, 10, 100});
  EXPECT_EQ(h.bounds(), (std::vector<double>{10, 100, 1000}));
}

TEST(MetricsTest, RegistryReturnsStableMetrics) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& a = reg.GetCounter("statcube.test.stable");
  obs::Counter& b = reg.GetCounter("statcube.test.stable");
  EXPECT_EQ(&a, &b);
  a.Add(7);
  EXPECT_EQ(b.Value(), 7u);
}

TEST(MetricsTest, SnapshotsRoundTrip) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.GetCounter("statcube.test.counter").Add(3);
  reg.GetGauge("statcube.test.gauge").Set(2.5);
  reg.GetHistogram("statcube.test.hist", {1, 10}).Observe(4);

  std::string text = reg.TextSnapshot();
  EXPECT_NE(text.find("statcube.test.counter 3"), std::string::npos) << text;
  EXPECT_NE(text.find("statcube.test.gauge 2.5"), std::string::npos) << text;
  EXPECT_NE(text.find("statcube.test.hist.count 1"), std::string::npos);
  EXPECT_NE(text.find("statcube.test.hist.le_10 1"), std::string::npos);

  std::string prom = obs::PrometheusSnapshot(reg);
  EXPECT_NE(prom.find("statcube_test_counter 3\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("statcube_test_gauge 2.5\n"), std::string::npos);
  EXPECT_NE(prom.find("statcube_test_hist_count 1\n"), std::string::npos);

  reg.Reset();
  EXPECT_EQ(reg.GetCounter("statcube.test.counter").Value(), 0u);
  EXPECT_EQ(reg.GetHistogram("statcube.test.hist").TotalCount(), 0u);
}

// ----------------------------------------------------------------- trace

TEST(TraceTest, SpanTreeNestingAndOrdering) {
  obs::EnabledScope on(true);
  obs::TraceScope scope;
  {
    obs::Span a("a");
    {
      obs::Span b("b");
      { obs::Span c("c"); }
    }
    { obs::Span d("d"); }
  }
  { obs::Span e("e"); }

  const auto& spans = scope.trace().spans();
  ASSERT_EQ(spans.size(), 5u);
  // Open order: a, b, c, d, e.
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[1].name, "b");
  EXPECT_EQ(spans[2].name, "c");
  EXPECT_EQ(spans[3].name, "d");
  EXPECT_EQ(spans[4].name, "e");
  // Parent/depth reconstruct the tree.
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].parent, 0);
  EXPECT_EQ(spans[4].parent, -1);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_EQ(spans[4].depth, 0);
  // All closed; children start no earlier than parents.
  for (const auto& s : spans) {
    EXPECT_FALSE(s.open) << s.name;
    if (s.parent >= 0) {
      EXPECT_GE(s.start_ns, spans[size_t(s.parent)].start_ns);
    }
  }
  // Renderings mention every span.
  std::string tree = scope.trace().TreeString();
  std::string chrome = scope.trace().ChromeTraceJson();
  EXPECT_TRUE(JsonChecker(chrome).Valid()) << chrome;
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    EXPECT_NE(tree.find(name), std::string::npos);
    EXPECT_NE(chrome.find(name), std::string::npos);
  }
}

TEST(TraceTest, DisabledModeRecordsNothing) {
  obs::EnabledScope off(false);
  obs::TraceScope scope;
  {
    obs::Span a("a");
    obs::Span b("b");
  }
  EXPECT_TRUE(scope.trace().spans().empty());
  // Recorders are no-ops too: counters untouched.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  uint64_t before = reg.GetCounter("statcube.relational.select.calls").Value();
  obs::RecordOperator("select", 100, 50);
  obs::RecordViewStoreQuery(1, true, -1, 10);
  obs::RecordPrivacy(true, true);
  EXPECT_EQ(reg.GetCounter("statcube.relational.select.calls").Value(),
            before);
}

TEST(TraceTest, SpanWithoutTraceScopeIsSafe) {
  obs::EnabledScope on(true);
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
  obs::Span s("orphan");  // must not crash or leak
}

// --------------------------------------------------------------- profile

TEST(ProfileTest, ProfileScopeCollectsOperatorsAndRootSpan) {
  obs::EnabledScope on(true);
  obs::ProfileScope scope;
  { obs::Span s("phase1"); }
  obs::RecordOperator("select", 100, 40);
  obs::RecordBackend("molap", 12, 48000);
  obs::QueryProfile p = scope.Take();

  ASSERT_GE(p.trace.spans().size(), 2u);  // "query" root + phase1
  EXPECT_EQ(p.trace.spans()[0].name, "query");
  EXPECT_EQ(p.trace.spans()[1].parent, 0);
  ASSERT_EQ(p.operators.size(), 1u);
  EXPECT_EQ(p.operators[0].op, "select");
  EXPECT_EQ(p.operators[0].rows_in, 100u);
  EXPECT_EQ(p.operators[0].rows_out, 40u);
  EXPECT_EQ(p.backend, "molap");
  EXPECT_EQ(p.blocks.blocks_read(), 12u);
  EXPECT_EQ(p.blocks.bytes_read(), 48000u);
  EXPECT_TRUE(JsonChecker(p.ToJson()).Valid()) << p.ToJson();
  EXPECT_NE(p.ToString().find("blocks_read=12"), std::string::npos);
}

TEST(ProfileTest, BlockCounterMergeCombinesStores) {
  BlockCounter a(4096), b(512);
  a.ChargeBytes(8192);   // 2 blocks
  b.ChargeBlocks(3);     // 3 blocks, 1536 bytes
  a.Merge(b);
  EXPECT_EQ(a.blocks_read(), 5u);
  EXPECT_EQ(a.bytes_read(), 8192u + 1536u);
  // Zero-byte charge charges nothing.
  BlockCounter c;
  c.ChargeBytes(0);
  EXPECT_EQ(c.blocks_read(), 0u);
  EXPECT_EQ(c.bytes_read(), 0u);
}

// ------------------------------------------------- profiled query e2e

class ProfiledQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RetailOptions opt;
    opt.num_products = 10;
    opt.num_stores = 6;
    opt.num_cities = 3;
    opt.num_days = 10;
    opt.num_rows = 2000;
    data_ = std::make_unique<RetailData>(*MakeRetailWorkload(opt));
  }
  std::unique_ptr<RetailData> data_;
};

TEST_F(ProfiledQueryTest, RelationalProfileHasPhasesAndOperators) {
  auto r = QueryProfiled(data_->object,
                         "SELECT sum(amount) BY city WHERE product = 'prod1'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::QueryProfile& p = r->profile;
  EXPECT_EQ(p.backend, "relational");
  EXPECT_GE(p.NumPhases(), 3u) << p.ToString();  // query, parse, execute
  // parse, plan, filter and aggregate all present in the tree; rendering
  // is the caller's, outside the profile.
  std::string tree = p.trace.TreeString();
  for (const char* phase : {"query", "parse", "plan", "filter", "aggregate"})
    EXPECT_NE(tree.find(phase), std::string::npos) << tree;
  EXPECT_EQ(tree.find("render"), std::string::npos) << tree;
  EXPECT_FALSE(p.operators.empty());
  EXPECT_EQ(p.result_rows, r->table->num_rows());
}

TEST_F(ProfiledQueryTest, ExplainProfilePrefixParses) {
  auto q = ParseQuery("EXPLAIN PROFILE SELECT sum(amount) BY city");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->explain_profile);
  ASSERT_EQ(q->by.size(), 1u);
  EXPECT_EQ(q->by[0], "city");
  EXPECT_FALSE(ParseQuery("EXPLAIN SELECT sum(amount)").ok());
  auto plain = ParseQuery("SELECT sum(amount)");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->explain_profile);
}

TEST_F(ProfiledQueryTest, BackendEnginesAnswerWithBackendSpans) {
  for (QueryEngine engine :
       {QueryEngine::kMolap, QueryEngine::kRolap, QueryEngine::kRolapBitmap}) {
    QueryOptions opt;
    opt.engine = engine;
    auto r = QueryProfiled(data_->object, "SELECT sum(amount) BY store", opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->profile.backend, QueryEngineName(engine));
    EXPECT_GT(r->profile.blocks.blocks_read(), 0u);
    EXPECT_GE(r->profile.NumPhases(), 4u);
    std::string tree = r->profile.trace.TreeString();
    EXPECT_NE(tree.find("backend.build"), std::string::npos) << tree;
    EXPECT_NE(tree.find("backend.groupby"), std::string::npos) << tree;
  }
}

TEST_F(ProfiledQueryTest, UnexpressibleQueryFallsBackToRelational) {
  QueryOptions opt;
  opt.engine = QueryEngine::kMolap;
  // AVG and hierarchy rollup are not backend-expressible.
  auto r = QueryProfiled(data_->object, "SELECT avg(amount) BY city", opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->profile.backend, "relational");
  // Expressibility is decided before any backend is built.
  const std::string tree = r->profile.trace.TreeString();
  EXPECT_EQ(tree.find("backend.build"), std::string::npos) << tree;
}

// The §6.6 equivalence, observed: MOLAP and ROLAP report identical result
// rows for the same query while charging different logical block counts.
TEST_F(ProfiledQueryTest, MolapAndRolapProfilesAgreeOnRowsNotBlocks) {
  obs::EnabledScope on(true);
  auto molap = MakeMolapBackend(data_->object, "amount").ValueOrDie();
  auto rolap = MakeRolapBackend(data_->object, "amount").ValueOrDie();

  CubeQuery q;
  q.group_dims = {"store"};

  obs::QueryProfile pm, pr;
  Table tm, tr;
  {
    obs::ProfileScope scope;
    tm = molap->GroupBySum(q).ValueOrDie();
    pm = scope.Take();
    pm.result_rows = tm.num_rows();
  }
  {
    obs::ProfileScope scope;
    tr = rolap->GroupBySum(q).ValueOrDie();
    pr = scope.Take();
    pr.result_rows = tr.num_rows();
  }

  EXPECT_EQ(pm.backend, "molap");
  EXPECT_EQ(pr.backend, "rolap");
  // Identical result rows (every store occurs in the generated data).
  ASSERT_EQ(pm.result_rows, pr.result_rows);
  ASSERT_EQ(tm.num_rows(), tr.num_rows());
  for (size_t i = 0; i < tm.num_rows(); ++i) {
    EXPECT_EQ(tm.at(i, 0), tr.at(i, 0));
    EXPECT_NEAR(tm.at(i, 1).AsDouble(), tr.at(i, 1).AsDouble(), 1e-6);
  }
  // Different physical work.
  EXPECT_GT(pm.blocks.blocks_read(), 0u);
  EXPECT_GT(pr.blocks.blocks_read(), 0u);
  EXPECT_NE(pm.blocks.blocks_read(), pr.blocks.blocks_read());
}

}  // namespace
}  // namespace statcube
