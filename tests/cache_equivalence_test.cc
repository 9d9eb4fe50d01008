// Cache equivalence battery: the result cache must be invisible except for
// speed. For every workload (census, hmo, retail, stocks), engine
// (relational + the three cube backends) and thread count, the query path
// must produce BIT-identical tables with the cache off, cold (miss +
// insert), warm (exact hit) and derived (lattice roll-up from a cached
// superset) — including table names and value types. Also covers epoch
// invalidation after appends, WHERE literals that must not share a key, and
// concurrent queriers sharing the global cache (TSan target).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "statcube/cache/result_cache.h"
#include "statcube/query/parser.h"
#include "statcube/workload/census.h"
#include "statcube/workload/hmo.h"
#include "statcube/workload/retail.h"
#include "statcube/workload/stocks.h"

namespace statcube {
namespace {

using cache::Mode;
using cache::ResultCache;

// Same bit-exact comparison as parallel_equivalence_test.
void ExpectTablesIdentical(const Table& a, const Table& b,
                           const std::string& what) {
  EXPECT_EQ(a.name(), b.name()) << what;
  ASSERT_TRUE(a.schema() == b.schema()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      const Value& x = a.row(i)[c];
      const Value& y = b.row(i)[c];
      ASSERT_EQ(x.type(), y.type()) << what << " row " << i << " col " << c;
      if (x.type() == ValueType::kDouble) {
        double dx = x.AsDouble(), dy = y.AsDouble();
        uint64_t bx, by;
        std::memcpy(&bx, &dx, sizeof bx);
        std::memcpy(&by, &dy, sizeof by);
        ASSERT_EQ(bx, by) << what << " row " << i << " col " << c << ": "
                          << dx << " vs " << dy;
      } else {
        ASSERT_TRUE(x == y) << what << " row " << i << " col " << c << ": "
                            << x.ToString() << " vs " << y.ToString();
      }
    }
  }
}

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

QueryOptions Opts(Mode mode, QueryEngine engine = QueryEngine::kRelational,
                  int threads = 1) {
  QueryOptions o;
  o.engine = engine;
  o.threads = threads;
  o.cache = mode;
  o.record = false;  // keep the flight recorder out of the picture
  return o;
}

// Tests share the process-global cache QueryProfiled consults; admit
// everything (these queries run in microseconds) and start each scenario
// cold.
void ResetCache() {
  ResultCache::Global().set_admit_min_us(0);
  ResultCache::Global().Clear();
}

ProfiledQuery RunQ(const StatisticalObject& obj, const std::string& text,
                  const QueryOptions& opt, const std::string& what) {
  auto r = QueryProfiled(obj, text, opt);
  EXPECT_TRUE(r.ok()) << what << ": " << r.status().ToString();
  return *std::move(r);
}

// Off / cold / warm for one (object, query, engine, threads) combination.
void ExpectOffColdWarmIdentical(const StatisticalObject& obj,
                                const std::string& text, QueryEngine engine,
                                int threads) {
  const std::string what = text + " engine=" + QueryEngineName(engine) +
                           " threads=" + std::to_string(threads);
  ProfiledQuery off = RunQ(obj, text, Opts(Mode::kOff, engine, threads), what);
  EXPECT_TRUE(off.profile.cache.empty()) << what;

  ResetCache();
  ProfiledQuery cold = RunQ(obj, text, Opts(Mode::kOn, engine, threads), what);
  EXPECT_EQ(cold.profile.cache, "miss") << what;
  ExpectTablesIdentical(*off.table, *cold.table, what + " [cold]");

  ProfiledQuery warm = RunQ(obj, text, Opts(Mode::kOn, engine, threads), what);
  EXPECT_EQ(warm.profile.cache, "hit") << what;
  EXPECT_EQ(warm.profile.backend, "cache") << what;
  ExpectTablesIdentical(*off.table, *warm.table, what + " [warm]");
}

// Seeds the cache with `seed` and expects `text` to be answered by
// derivation, bit-identical to direct execution.
void ExpectDerivedIdentical(const StatisticalObject& obj,
                            const std::string& seed, const std::string& text,
                            QueryEngine engine, int threads) {
  const std::string what = text + " from [" + seed +
                           "] engine=" + QueryEngineName(engine) +
                           " threads=" + std::to_string(threads);
  ProfiledQuery off = RunQ(obj, text, Opts(Mode::kOff, engine, threads), what);

  ResetCache();
  RunQ(obj, seed, Opts(Mode::kDerive, engine, threads), what + " [seed]");
  ProfiledQuery derived =
      RunQ(obj, text, Opts(Mode::kDerive, engine, threads), what);
  EXPECT_EQ(derived.profile.cache, "derived") << what;
  EXPECT_EQ(derived.profile.backend, "cache") << what;
  ExpectTablesIdentical(*off.table, *derived.table, what + " [derived]");
}

// --------------------------------------------------------------------------
// Off / cold / warm across the four workloads (relational engine; the full
// §5.1 battery including rollup levels, CUBE and non-distributive aggs).

TEST(CacheEquivalence, RetailOffColdWarm) {
  const auto& obj = Workloads::Get().retail.object;
  for (const char* q : {
           "SELECT sum(amount) BY city",
           "SELECT sum(qty), avg(amount) BY category",
           "SELECT sum(amount) BY month WHERE city = 'city1'",
           "SELECT sum(amount) BY CUBE(city, month)",
           "SELECT count() WHERE price_range = 'premium'",
       })
    for (int t : {1, 4})
      ExpectOffColdWarmIdentical(obj, q, QueryEngine::kRelational, t);
}

TEST(CacheEquivalence, CensusOffColdWarm) {
  const auto& obj = Workloads::Get().census;
  for (const char* q : {
           "SELECT sum(population) BY race",
           "SELECT sum(population) BY CUBE(race, sex)",
           "SELECT sum(population) BY age_group WHERE sex = 'M'",
       })
    for (int t : {1, 4})
      ExpectOffColdWarmIdentical(obj, q, QueryEngine::kRelational, t);
}

TEST(CacheEquivalence, HmoOffColdWarm) {
  const auto& obj = Workloads::Get().hmo;
  for (const char* q : {
           "SELECT sum(cost), sum(visits) BY hospital",
           "SELECT sum(cost) BY CUBE(hospital, month)",
           "SELECT sum(visits) BY disease",
       })
    for (int t : {1, 4})
      ExpectOffColdWarmIdentical(obj, q, QueryEngine::kRelational, t);
}

TEST(CacheEquivalence, StocksOffColdWarm) {
  const auto& obj = Workloads::Get().stocks;
  for (const char* q : {
           "SELECT sum(volume) BY stock",
           "SELECT avg(close) BY stock",
           "SELECT sum(volume) BY CUBE(stock, day)",
       })
    for (int t : {1, 4})
      ExpectOffColdWarmIdentical(obj, q, QueryEngine::kRelational, t);
}

// --------------------------------------------------------------------------
// The three cube backends: exact reuse and derived roll-ups must reproduce
// each backend's own output shape (MOLAP's full cross product with zero
// groups included, ROLAP's observed-groups table) bit-for-bit.

TEST(CacheEquivalence, BackendsOffColdWarm) {
  const auto& obj = Workloads::Get().retail.object;
  for (QueryEngine engine : {QueryEngine::kMolap, QueryEngine::kRolap,
                             QueryEngine::kRolapBitmap}) {
    for (const char* q : {
             "SELECT sum(amount) BY store",
             "SELECT sum(amount) BY product, store",
             "SELECT sum(amount) BY store WHERE product = 'prod1'",
             "SELECT sum(amount)",
             // Not backend-expressible: falls back to relational shape, and
             // the cached entry must reproduce that fallback exactly.
             "SELECT sum(amount) BY city",
         })
      for (int t : {1, 4}) ExpectOffColdWarmIdentical(obj, q, engine, t);
  }
}

TEST(CacheEquivalence, BackendsDerived) {
  const auto& obj = Workloads::Get().retail.object;
  for (QueryEngine engine : {QueryEngine::kMolap, QueryEngine::kRolap,
                             QueryEngine::kRolapBitmap}) {
    for (int t : {1, 4}) {
      ExpectDerivedIdentical(obj, "SELECT sum(amount) BY product, store",
                             "SELECT sum(amount) BY store", engine, t);
      ExpectDerivedIdentical(obj, "SELECT sum(amount) BY product, store",
                             "SELECT sum(amount)", engine, t);
      ExpectDerivedIdentical(
          obj, "SELECT sum(amount) BY store, day WHERE product = 'prod2'",
          "SELECT sum(amount) BY day WHERE product = 'prod2'", engine, t);
    }
  }
}

// --------------------------------------------------------------------------
// Relational derivation: subsets, permutations, multi-aggregate roll-ups
// (sum + count re-finalized to int64, min/max), hierarchy levels.

TEST(CacheEquivalence, RelationalDerivedSubsets) {
  const auto& w = Workloads::Get();
  for (int t : {1, 4}) {
    ExpectDerivedIdentical(w.census, "SELECT sum(population) BY race, sex",
                           "SELECT sum(population) BY race",
                           QueryEngine::kRelational, t);
    // Permutation of the same grouping set: exact keys differ, the family
    // derivation still applies.
    ExpectDerivedIdentical(w.census, "SELECT sum(population) BY race, sex",
                           "SELECT sum(population) BY sex, race",
                           QueryEngine::kRelational, t);
    ExpectDerivedIdentical(
        w.hmo, "SELECT sum(cost), count(cost) BY hospital, month",
        "SELECT sum(cost), count(cost) BY hospital",
        QueryEngine::kRelational, t);
    ExpectDerivedIdentical(
        w.stocks, "SELECT min(close), max(close), count() BY stock, day",
        "SELECT min(close), max(close), count() BY stock",
        QueryEngine::kRelational, t);
    // Hierarchy levels: the cached superset already carries the derived
    // level columns.
    ExpectDerivedIdentical(w.retail.object,
                           "SELECT sum(amount) BY city, month",
                           "SELECT sum(amount) BY city",
                           QueryEngine::kRelational, t);
    // WHERE must carry over into the family.
    ExpectDerivedIdentical(
        w.retail.object,
        "SELECT sum(qty) BY category, store WHERE city = 'city1'",
        "SELECT sum(qty) BY category WHERE city = 'city1'",
        QueryEngine::kRelational, t);
  }
}

TEST(CacheEquivalence, NonDistributiveNeverDerives) {
  const auto& obj = Workloads::Get().stocks;
  ResetCache();
  QueryOptions d = Opts(Mode::kDerive);
  RunQ(obj, "SELECT avg(close) BY stock, day", d, "seed");
  ProfiledQuery pq = RunQ(obj, "SELECT avg(close) BY stock", d, "avg subset");
  EXPECT_EQ(pq.profile.cache, "miss");
  ProfiledQuery off = RunQ(obj, "SELECT avg(close) BY stock",
                          Opts(Mode::kOff), "avg direct");
  ExpectTablesIdentical(*off.table, *pq.table, "avg never derived");
}

// --------------------------------------------------------------------------
// Invalidation: an append moves the epoch, so warm entries stop matching
// and the fresh result reflects the new data.

TEST(CacheEquivalence, AppendInvalidates) {
  auto data = MakeRetailWorkload().ValueOrDie();
  StatisticalObject obj = std::move(data.object);
  const std::string q = "SELECT sum(qty) BY store";
  ResetCache();
  ProfiledQuery cold = RunQ(obj, q, Opts(Mode::kOn), "cold");
  EXPECT_EQ(cold.profile.cache, "miss");
  ProfiledQuery warm = RunQ(obj, q, Opts(Mode::kOn), "warm");
  EXPECT_EQ(warm.profile.cache, "hit");

  // Append one sale; the warm entry must not be served again.
  Row dims, measures;
  dims.push_back(obj.data().row(0)[0]);  // product
  dims.push_back(obj.data().row(0)[1]);  // store
  dims.push_back(obj.data().row(0)[2]);  // day
  measures.push_back(Value(int64_t(1000000)));  // qty
  measures.push_back(Value(int64_t(9)));        // amount
  ASSERT_TRUE(obj.AddCell(dims, measures).ok());

  ProfiledQuery after = RunQ(obj, q, Opts(Mode::kOn), "after append");
  EXPECT_EQ(after.profile.cache, "miss") << "stale entry served after append";
  ProfiledQuery direct = RunQ(obj, q, Opts(Mode::kOff), "direct after append");
  ExpectTablesIdentical(*direct.table, *after.table, "post-append");
  // And the totals actually moved.
  EXPECT_FALSE(cold.table->rows() == after.table->rows());
}

// --------------------------------------------------------------------------
// Distinct WHERE literals get distinct keys: a cached answer is reused only
// for the predicate it answered. Each query runs with the cache on after
// the previous one was admitted, and must match its own cache-off answer.

void ExpectOwnAnswers(const StatisticalObject& obj,
                      const std::vector<std::string>& texts,
                      const std::vector<size_t>& rows) {
  ResetCache();
  for (size_t i = 0; i < texts.size(); ++i) {
    ProfiledQuery off = RunQ(obj, texts[i], Opts(Mode::kOff), texts[i]);
    ProfiledQuery on = RunQ(obj, texts[i], Opts(Mode::kOn), texts[i]);
    EXPECT_EQ(on.profile.cache, "miss") << texts[i];
    EXPECT_EQ(off.table->num_rows(), rows[i]) << texts[i];
    ExpectTablesIdentical(*off.table, *on.table, texts[i]);
  }
}

TEST(CacheEquivalence, DoubleLiteralsOneBitApartDoNotShareAKey) {
  // 86.456448267231465 is the next double above 86.456448267231451, a
  // `close` of the stocks object; both print as 86.4564 at six digits.
  ExpectOwnAnswers(
      Workloads::Get().stocks,
      {"SELECT count() BY stock WHERE close = 86.456448267231451",
       "SELECT count() BY stock WHERE close = 86.456448267231465"},
      {1, 0});
}

TEST(CacheEquivalence, StringLiteralCannotSpellASecondPredicate) {
  const StatisticalObject& obj = Workloads::Get().retail.object;
  const std::string product = obj.data().row(0)[0].AsString();
  const std::string store = obj.data().row(0)[1].AsString();
  ProfiledQuery both = RunQ(obj,
                            "SELECT sum(qty) BY day WHERE product = '" +
                                product + "' AND store = '" + store + "'",
                            Opts(Mode::kOff), "conjunction");
  ASSERT_GT(both.table->num_rows(), 0u);
  ExpectOwnAnswers(
      obj,
      {"SELECT sum(qty) BY day WHERE product = '" + product +
           "&store=string:" + store + "'",
       "SELECT sum(qty) BY day WHERE product = '" + product +
           "' AND store = '" + store + "'"},
      {0, both.table->num_rows()});
}

// --------------------------------------------------------------------------
// Concurrent queriers on the shared global cache: every answer — hit,
// derived or computed — must equal the precomputed baseline. TSan covers
// the lookup/insert/derive races.

TEST(CacheEquivalence, ConcurrentQueriersBitIdentical) {
  const auto& w = Workloads::Get();
  struct Case {
    const StatisticalObject* obj;
    const char* text;
    QueryEngine engine;
  };
  const std::vector<Case> cases = {
      {&w.retail.object, "SELECT sum(amount) BY product, store",
       QueryEngine::kMolap},
      {&w.retail.object, "SELECT sum(amount) BY store", QueryEngine::kMolap},
      {&w.retail.object, "SELECT sum(amount) BY store", QueryEngine::kRolap},
      {&w.retail.object, "SELECT sum(qty) BY city, month",
       QueryEngine::kRelational},
      {&w.retail.object, "SELECT sum(qty) BY city", QueryEngine::kRelational},
      {&w.census, "SELECT sum(population) BY race, sex",
       QueryEngine::kRelational},
      {&w.census, "SELECT sum(population) BY sex", QueryEngine::kRelational},
      {&w.stocks, "SELECT sum(volume) BY stock", QueryEngine::kRelational},
  };
  // Baselines with the cache off.
  std::vector<Table> baseline;
  for (const Case& c : cases)
    baseline.push_back(
        *RunQ(*c.obj, c.text, Opts(Mode::kOff, c.engine), c.text).table);

  ResetCache();
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        size_t n = size_t(t + i) % cases.size();
        const Case& c = cases[n];
        auto r = QueryProfiled(*c.obj, c.text,
                               Opts(Mode::kDerive, c.engine, 1 + t % 2));
        if (!r.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        ExpectTablesIdentical(baseline[n], *r->table, c.text);
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  auto s = ResultCache::Global().stats();
  EXPECT_GT(s.hits + s.derived_hits, 0u) << "cache never hit under load";
}

}  // namespace
}  // namespace statcube
