// Serial/parallel equivalence: every parallel kernel must produce output
// BIT-identical to its serial counterpart at any thread count (1/2/4/8) —
// the determinism contract of statcube/exec (parallel_kernels.h, DESIGN.md
// §6). The coded group-by (exec::CodedGroupBy) and the CUBE built on it
// match the Query() reference on EVERY measure, the inexact stock close
// price included: the fold hands each group its rows in serial row order
// and groups are numbered in serial first-occurrence order. Covered across
// all four paper workloads (census, hmo, retail, stocks), the query path
// and the cube backends.

#include "statcube/exec/parallel_kernels.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "coded_query.h"
#include "statcube/olap/backend.h"
#include "statcube/query/parser.h"
#include "statcube/workload/census.h"
#include "statcube/workload/hmo.h"
#include "statcube/workload/retail.h"
#include "statcube/workload/stocks.h"

namespace statcube {
namespace {

exec::ExecOptions Threads(int t, size_t morsel_rows = 512) {
  exec::ExecOptions o;
  o.threads = t;
  o.morsel_rows = morsel_rows;  // small: several morsels even on small data
  return o;
}

// One shared instance of each paper workload (§3) — built once, the default
// sizes give multi-morsel tables where it matters (census 5184 rows, retail
// 8000 fact rows).
struct Workloads {
  StatisticalObject census, hmo, stocks;
  RetailData retail;

  static const Workloads& Get() {
    static Workloads* w = [] {
      auto* out = new Workloads();
      out->census = MakeCensusWorkload().ValueOrDie();
      out->hmo = MakeHmoWorkload().ValueOrDie();
      out->stocks = MakeStockWorkload().ValueOrDie();
      out->retail = MakeRetailWorkload().ValueOrDie();
      return out;
    }();
    return *w;
  }
};

// ---------------------------------------------------------------------------
// Kernel level: ExecuteQuery on each workload object's code columns and
// measure slabs with the kernel's options forced — small morsels at every
// thread count (coded_query.h) — vs the Query() reference: the row pass and
// the serial GroupBy / CubeBy.

TEST(KernelEquivalence, GroupByMatchesSerialOnEveryWorkload) {
  const auto& w = Workloads::Get();
  struct Case {
    const StatisticalObject* obj;
    const char* text;
  } cases[] = {
      {&w.retail.object,
       "SELECT sum(amount), count(qty), min(amount), max(amount) "
       "BY category, city"},
      {&w.census, "SELECT sum(population), avg(population) BY race, sex"},
      {&w.hmo, "SELECT sum(cost), sum(visits) BY hospital"},
      // Inexact measure on purpose: close is a non-integer double.
      {&w.stocks, "SELECT sum(volume), avg(close), count() BY stock"},
  };
  for (const auto& c : cases)
    for (int t : {1, 2, 4, 8})
      ExpectCodedMatchesQuery(*c.obj, c.text, Threads(t));
}

TEST(KernelEquivalence, CubeByMatchesSerial) {
  const auto& w = Workloads::Get();
  for (int t : {1, 2, 4, 8})
    ExpectCodedMatchesQuery(
        w.retail.object,
        "SELECT sum(amount), count(qty) BY CUBE(category, city, month)",
        Threads(t));
}

TEST(KernelEquivalence, InexactMeasureMatchesSerialAtSmallMorsels) {
  // Small morsels force a many-morsel pass, its morsels spread over the
  // workers; the per-group accumulation order of close — a non-integer
  // double, so the order shows in the bits — must still be the serial one.
  const auto& w = Workloads::Get();
  for (int t : {1, 2, 4, 8})
    ExpectCodedMatchesQuery(
        w.stocks, "SELECT avg(close), sum(close), var(close) BY stock",
        Threads(t, /*morsel_rows=*/64));
}

TEST(KernelEquivalence, EmptyByAndEmptyInput) {
  // Empty BY list = one global group over the measure slabs (the block
  // kernels): retail's amount is exact, so its sums may reassociate; stocks'
  // close is not, so its sums must take the ordered loop. An empty input
  // yields an empty result in both paths.
  const auto& w = Workloads::Get();
  const StatisticalObject empty = KvObject("empty", {});
  for (int t : {1, 2, 4, 8}) {
    ExpectCodedMatchesQuery(w.retail.object,
                            "SELECT sum(amount), min(amount), max(amount), "
                            "avg(amount), count()",
                            Threads(t));
    ExpectCodedMatchesQuery(w.stocks,
                            "SELECT sum(close), min(close), max(close), "
                            "avg(close), var(close), count()",
                            Threads(t));
    ExpectCodedMatchesQuery(
        empty, "SELECT sum(v), min(v), max(v), avg(v), count() BY k",
        Threads(t));
  }
}

TEST(KernelEquivalence, SingleKeySkew) {
  // Every row carries the same key, so one group folds the whole table,
  // its rows spread over every morsel of the pass. Inexact measure values
  // make accumulation order observable.
  std::vector<std::pair<Value, Value>> cells;
  for (int i = 0; i < 5000; ++i)
    cells.emplace_back(Value("only"), Value(0.1 * double(i % 997)));
  const StatisticalObject skew = KvObject("skew", cells);
  for (int t : {1, 2, 4, 8})
    ExpectCodedMatchesQuery(
        skew, "SELECT sum(v), avg(v), min(v), max(v) BY k", Threads(t, 256));
}

// ---------------------------------------------------------------------------
// Query path: ExecuteQuery at 1/2/4/8 workers vs the Query() reference (the
// row pass and the serial operators) on the §5.1 language, across all four
// workloads.

void ExpectQueryEquivalent(const StatisticalObject& obj,
                           const std::string& text) {
  auto parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
  auto serial = Query(obj, text);
  ASSERT_TRUE(serial.ok()) << text << ": " << serial.status().ToString();
  for (int t : {1, 2, 4, 8}) {
    auto parallel = ExecuteQuery(obj, *parsed, t);
    ASSERT_TRUE(parallel.ok()) << text << ": " << parallel.status().ToString();
    ExpectTablesIdentical(*serial, *parallel,
                          text + " @" + std::to_string(t) + " threads");
  }
}

TEST(QueryEquivalence, Retail) {
  const auto& obj = Workloads::Get().retail.object;
  for (const char* q : {
           "SELECT sum(amount) BY city",
           "SELECT sum(qty), avg(amount) BY category",
           "SELECT sum(amount) BY month WHERE city = 'city1'",
           "SELECT sum(amount) BY CUBE(city, month)",
           "SELECT count() WHERE price_range = 'premium'",
           "SELECT sum(amount), sum(qty) BY CUBE(category, city, year)",
       })
    ExpectQueryEquivalent(obj, q);
}

TEST(QueryEquivalence, CensusQueries) {
  const auto& obj = Workloads::Get().census;
  for (const char* q : {
           "SELECT sum(population) BY race",
           "SELECT sum(population) BY state",
           "SELECT sum(population) BY CUBE(race, sex)",
           "SELECT sum(population) BY age_group WHERE sex = 'M'",
       })
    ExpectQueryEquivalent(obj, q);
}

TEST(QueryEquivalence, HmoQueries) {
  const auto& obj = Workloads::Get().hmo;
  for (const char* q : {
           "SELECT sum(cost), sum(visits) BY hospital",
           "SELECT sum(cost) BY CUBE(hospital, month)",
           "SELECT sum(visits) BY disease",
       })
    ExpectQueryEquivalent(obj, q);
}

TEST(QueryEquivalence, StockQueries) {
  const auto& obj = Workloads::Get().stocks;
  for (const char* q : {
           "SELECT sum(volume) BY stock",
           "SELECT avg(close) BY stock",
           "SELECT sum(volume) BY CUBE(stock, day)",
       })
    ExpectQueryEquivalent(obj, q);
}

// ---------------------------------------------------------------------------
// Backends: MOLAP and ROLAP GroupBySum, serial (threads=1) vs 2/4/8 workers.

TEST(BackendEquivalence, GroupBySumThreadInvariant) {
  const auto& w = Workloads::Get();
  auto molap = MakeMolapBackend(w.retail.object, "amount").ValueOrDie();
  auto rolap = MakeRolapBackend(w.retail.object, "amount").ValueOrDie();
  auto indexed = MakeRolapBackend(w.retail.object, "amount",
                                  {.build_bitmap_indexes = true})
                     .ValueOrDie();
  std::vector<CubeQuery> queries;
  {
    CubeQuery q;
    q.group_dims = {"store"};
    queries.push_back(q);
    q.group_dims = {"product", "store"};
    q.filters = {{"day", Value("1996-1-3")}};
    queries.push_back(q);
    q.group_dims = {"day"};
    q.filters = {{"product", Value("prod1")}};
    queries.push_back(q);
  }
  for (CubeBackend* backend : {molap.get(), rolap.get(), indexed.get()}) {
    for (CubeQuery q : queries) {
      q.threads = 1;
      auto serial = backend->GroupBySum(q);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      for (int t : {2, 4, 8}) {
        q.threads = t;
        auto parallel = backend->GroupBySum(q);
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        ExpectTablesIdentical(*serial, *parallel,
                              backend->name() + "@" + std::to_string(t));
      }
    }
  }
}

}  // namespace
}  // namespace statcube
