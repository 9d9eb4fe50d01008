// Cache equivalence battery: the result cache must be invisible except for
// speed. For every workload (census, hmo, retail, stocks), engine
// (relational + the three cube backends) and thread count, the query path
// must produce BIT-identical tables with the cache off, cold (miss +
// insert), warm (exact hit) and derived (lattice roll-up from a cached
// superset) — including table names and value types. Also covers versions
// (invalidation after appends, objects that must not share answers),
// appends folded into cached answers, WHERE literals that must not share a
// key, and concurrent queriers sharing the global cache (TSan target).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "statcube/cache/result_cache.h"
#include "statcube/query/parser.h"
#include "statcube/serve/front_door.h"
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

// Tests share the process-global cache QueryProfiled consults; each
// scenario starts cold.
void ResetCache() { ResultCache::Global().Clear(); }

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
  ProfiledQuery cold =
      RunQ(obj, text, Opts(Mode::kDerive, engine, threads), what);
  EXPECT_EQ(cold.profile.cache, "miss") << what;
  ExpectTablesIdentical(*off.table, *cold.table, what + " [cold]");

  ProfiledQuery warm =
      RunQ(obj, text, Opts(Mode::kDerive, engine, threads), what);
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

// A sum over a measure with non-integral values re-adds its partial sums in
// another order than direct execution, so a roll-up may differ in the last
// bit (here in 8 of the 20 stocks): the key is not derivable, and the query
// executes, bit-identical to Query().
TEST(CacheEquivalence, InexactSumsAreExecutedNotDerived) {
  const auto& obj = Workloads::Get().stocks;
  const std::string text = "SELECT sum(close) BY stock";
  ResetCache();
  QueryOptions d = Opts(Mode::kDerive);
  RunQ(obj, "SELECT sum(close) BY stock, day", d, "seed");
  ProfiledQuery pq = RunQ(obj, text, d, text);
  EXPECT_EQ(pq.profile.cache, "miss");
  Result<Table> reference = Query(obj, text);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ExpectTablesIdentical(*reference, *pq.table, "inexact sum");
}

// --------------------------------------------------------------------------
// Invalidation: an append moves the object's version, so warm entries
// stop being hits and the fresh result reflects the new data: the licensed
// sum is folded forward, the avg (which does not fold) executes.

TEST(CacheEquivalence, AppendInvalidates) {
  auto data = MakeRetailWorkload().ValueOrDie();
  StatisticalObject obj = std::move(data.object);
  const std::string q = "SELECT sum(qty) BY store";
  const std::string avg = "SELECT avg(qty) BY store";
  ResetCache();
  ProfiledQuery cold = RunQ(obj, q, Opts(Mode::kDerive), "cold");
  EXPECT_EQ(cold.profile.cache, "miss");
  ProfiledQuery warm = RunQ(obj, q, Opts(Mode::kDerive), "warm");
  EXPECT_EQ(warm.profile.cache, "hit");
  RunQ(obj, avg, Opts(Mode::kDerive), "avg cold");
  EXPECT_EQ(RunQ(obj, avg, Opts(Mode::kDerive), "avg warm").profile.cache,
            "hit");

  // Append one sale; the warm entry must not be served again.
  Row dims, measures;
  dims.push_back(obj.data().row(0)[0]);  // product
  dims.push_back(obj.data().row(0)[1]);  // store
  dims.push_back(obj.data().row(0)[2]);  // day
  measures.push_back(Value(int64_t(1000000)));  // qty
  measures.push_back(Value(int64_t(9)));        // amount
  ASSERT_TRUE(obj.AddCell(dims, measures).ok());

  ProfiledQuery after = RunQ(obj, q, Opts(Mode::kDerive), "after append");
  EXPECT_EQ(after.profile.cache, "folded") << "stale entry served";
  ProfiledQuery direct = RunQ(obj, q, Opts(Mode::kOff), "direct after append");
  ExpectTablesIdentical(*direct.table, *after.table, "post-append");
  ExpectTablesIdentical(*Query(obj, q), *after.table, "post-append");
  // And the totals actually moved.
  EXPECT_FALSE(cold.table->rows() == after.table->rows());

  ProfiledQuery avg_after =
      RunQ(obj, avg, Opts(Mode::kDerive), "avg after append");
  EXPECT_EQ(avg_after.profile.cache, "miss") << "stale entry served";
  ExpectTablesIdentical(*Query(obj, avg), *avg_after.table, "post-append avg");
}

// --------------------------------------------------------------------------
// Versions and folded appends. An answer is kept for one version of one
// object, (identity, rows); under derive mode an older version's answer of
// a licensed key has the appended rows folded in. Every answer must equal
// Query() on the object as it stands: cell by cell by representation, and
// byte for byte on the wire.

void ExpectReference(const StatisticalObject& obj, const std::string& text,
                     const Table& got, const std::string& what) {
  Result<Table> want = Query(obj, text);
  ASSERT_TRUE(want.ok()) << what << ": " << want.status().ToString();
  EXPECT_EQ(got.name(), want->name()) << what;
  ASSERT_TRUE(got.schema() == want->schema()) << what;
  ASSERT_EQ(got.num_rows(), want->num_rows()) << what;
  for (size_t r = 0; r < got.num_rows(); ++r)
    for (size_t c = 0; c < got.num_columns(); ++c)
      ASSERT_TRUE(SameRepr()(got.at(r, c), want->at(r, c)))
          << what << " row " << r << " col " << c << ": "
          << got.at(r, c).ToString() << " vs " << want->at(r, c).ToString();
  EXPECT_EQ(serve::TableToJson(got), serve::TableToJson(*want)) << what;
}

// A three-row object named `name`, "d" by "m", with `middle` as its
// second cell: (a, 1), middle, (c, 3).
StatisticalObject Twin(const std::string& name, const char* d, double m) {
  StatisticalObject obj(name);
  EXPECT_TRUE(obj.AddDimension(Dimension("d")).ok());
  EXPECT_TRUE(
      obj.AddMeasure({.name = "m", .unit = "", .weight_measure = ""}).ok());
  EXPECT_TRUE(obj.AddCell({Value("a")}, {Value(1.0)}).ok());
  EXPECT_TRUE(obj.AddCell({Value(d)}, {Value(m)}).ok());
  EXPECT_TRUE(obj.AddCell({Value("c")}, {Value(3.0)}).ok());
  return obj;
}

// Two objects with one name, one row count and the same first and last
// rows are still two objects: neither is served the other's answer.
TEST(CacheEquivalence, SameNamedObjectsNeverShareAnswers) {
  const StatisticalObject first = Twin("twin", "b", 2.0);
  const StatisticalObject second = Twin("twin", "z", 9.0);
  const std::string q = "SELECT sum(m) BY d";
  ResetCache();
  ProfiledQuery a = RunQ(first, q, Opts(Mode::kDerive), "first");
  ExpectReference(first, q, *a.table, "first");
  ProfiledQuery b = RunQ(second, q, Opts(Mode::kDerive), "second");
  EXPECT_EQ(b.profile.cache, "miss");
  ExpectReference(second, q, *b.table, "second");
}

// Appends `cells` retail cells for `batch`: coordinates copied from
// existing rows, an int64 qty and a quarter-valued amount (the e2e
// dashboard's appends), with new products and stores along the way, a
// product whose amount is always NULL and one whose amount is NULL only in
// batch 0.
void AppendRetail(StatisticalObject& obj, int batch, int cells) {
  uint64_t x = 0x9e3779b97f4a7c15ull * uint64_t(batch + 1);
  for (int k = 0; k < cells; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const Row like = obj.data().row(size_t(x % obj.data().num_rows()));
    Row dims(like.begin(), like.begin() + 3);
    Value amount(double(1 + x % 20000) / 4);
    if (k % 50 == 7) dims[0] = Value("prod_new" + std::to_string(batch));
    if (k % 70 == 11) dims[1] = Value("store_new" + std::to_string(k % 3));
    if (k % 40 == 0) {
      dims[0] = Value("prod_null");
      amount = Value::Null();
    }
    if (k % 40 == 20) {
      dims[0] = Value("prod_late");
      if (batch == 0) amount = Value::Null();
    }
    ASSERT_TRUE(
        obj.AddCell(dims, {Value(int64_t(1 + x % 9)), std::move(amount)}).ok());
  }
}

StatisticalObject SmallRetail() {
  RetailOptions opt;
  opt.num_products = 12;
  opt.num_stores = 6;
  opt.num_cities = 3;
  opt.num_days = 40;
  opt.num_rows = 3000;
  return MakeRetailWorkload(opt).ValueOrDie().object;
}

const char* const kDashboardPanels[] = {
    "SELECT sum(amount), sum(qty) BY product, store",
    "SELECT sum(amount), sum(qty) BY product, city",
    "SELECT sum(amount), sum(qty) BY product",
    "SELECT sum(amount), sum(qty) BY store",
    "SELECT sum(qty) BY store",
    "SELECT sum(amount), sum(qty) BY city",
    "SELECT sum(qty)",
    "SELECT sum(amount)",
};

TEST(CacheEquivalence, FoldedAppendsAreBitIdentical) {
  std::vector<std::string> queries(std::begin(kDashboardPanels),
                                   std::end(kDashboardPanels));
  queries.push_back(
      "SELECT sum(amount), count() BY store WHERE city = 'city1'");
  queries.push_back("SELECT sum(qty), sum(amount) BY category, month");
  queries.push_back(
      "SELECT count(), count(amount), min(amount), max(amount) BY product");
  queries.push_back("SELECT min(amount), max(qty), count(amount) WHERE "
                    "product = 'prod_late'");
  for (int threads : {1, 4}) {
    StatisticalObject obj = SmallRetail();
    ResetCache();
    for (const std::string& q : queries)
      RunQ(obj, q, Opts(Mode::kDerive, QueryEngine::kRelational, threads), q);
    for (int batch = 0; batch < 4; ++batch) {
      AppendRetail(obj, batch, 400);
      const uint64_t folded0 = ResultCache::Global().stats().folded_hits;
      for (const std::string& q : queries) {
        const std::string what = q + " batch " + std::to_string(batch) +
                                 " threads " + std::to_string(threads);
        ProfiledQuery pq = RunQ(
            obj, q, Opts(Mode::kDerive, QueryEngine::kRelational, threads),
            what);
        EXPECT_EQ(pq.profile.cache, "folded") << what;
        EXPECT_EQ(pq.profile.backend, "cache") << what;
        ExpectReference(obj, q, *pq.table, what);
        ASSERT_NE(pq.json, nullptr) << what;
        EXPECT_EQ(*pq.json, serve::TableToJson(*pq.table)) << what;
        // The folded answer is the key's entry now: a hit.
        ProfiledQuery again = RunQ(
            obj, q, Opts(Mode::kDerive, QueryEngine::kRelational, threads),
            what);
        EXPECT_EQ(again.profile.cache, "hit") << what;
        EXPECT_EQ(again.table.get(), pq.table.get()) << what;
      }
      EXPECT_EQ(ResultCache::Global().stats().folded_hits - folded0,
                queries.size());
      // One version per exact key: the folds replaced their entries.
      EXPECT_EQ(ResultCache::Global().stats().entries, queries.size());
    }
  }
}

// What does not fold re-executes after an append, as a miss: a CUBE, an
// avg, a backend's answer, and a sum whose values do not re-add exactly
// (the stocks' close).
TEST(CacheEquivalence, UnfoldableEntriesReexecuteAfterAppends) {
  struct Case {
    StatisticalObject obj;
    std::string text;
    QueryEngine engine;
  };
  std::vector<Case> cases;
  cases.push_back({SmallRetail(), "SELECT sum(qty) BY CUBE(store, city)",
                   QueryEngine::kRelational});
  cases.push_back({SmallRetail(), "SELECT avg(amount) BY store",
                   QueryEngine::kRelational});
  cases.push_back({SmallRetail(), "SELECT sum(amount) BY store",
                   QueryEngine::kMolap});
  cases.push_back({SmallRetail(), "SELECT sum(amount) BY store",
                   QueryEngine::kRolap});
  cases.push_back({Workloads::Get().stocks, "SELECT sum(close) BY stock",
                   QueryEngine::kRelational});
  for (Case& c : cases) {
    const std::string what = c.text + " engine=" + QueryEngineName(c.engine);
    ResetCache();
    RunQ(c.obj, c.text, Opts(Mode::kDerive, c.engine), what + " [seed]");
    for (int batch = 0; batch < 2; ++batch) {
      // Rows copied from the object itself: every measure keeps its
      // evidence, so a licence lost or held stays as it was.
      for (size_t r = 0; r < 50; ++r) {
        const Row row = c.obj.data().row(r * 7);
        const size_t ndims = c.obj.dimensions().size();
        ASSERT_TRUE(c.obj
                        .AddCell(Row(row.begin(), row.begin() + ndims),
                                 Row(row.begin() + ndims, row.end()))
                        .ok());
      }
      ProfiledQuery pq =
          RunQ(c.obj, c.text, Opts(Mode::kDerive, c.engine), what);
      EXPECT_EQ(pq.profile.cache, "miss") << what;
      ProfiledQuery off = RunQ(c.obj, c.text, Opts(Mode::kOff, c.engine),
                               what + " [off]");
      ExpectTablesIdentical(*off.table, *pq.table, what);
      if (c.engine == QueryEngine::kRelational)
        ExpectReference(c.obj, c.text, *pq.table, what);
    }
  }
}

// A copy is another object: it and its source, appended with different
// rows, each get their own answer, folded from their own entries.
TEST(CacheEquivalence, CopiesAppendedApartKeepTheirOwnAnswers) {
  StatisticalObject source = SmallRetail();
  const std::string q = "SELECT sum(amount), count() BY store";
  ResetCache();
  RunQ(source, q, Opts(Mode::kDerive), "seed");
  StatisticalObject copy = source;
  ProfiledQuery fresh = RunQ(copy, q, Opts(Mode::kDerive), "copy, fresh");
  EXPECT_EQ(fresh.profile.cache, "miss");
  ExpectReference(copy, q, *fresh.table, "copy, fresh");
  AppendRetail(source, 0, 300);
  AppendRetail(copy, 1, 300);
  for (int round = 0; round < 2; ++round) {
    ProfiledQuery a = RunQ(source, q, Opts(Mode::kDerive), "source");
    ProfiledQuery b = RunQ(copy, q, Opts(Mode::kDerive), "copy");
    EXPECT_EQ(a.profile.cache, round == 0 ? "folded" : "hit");
    EXPECT_EQ(b.profile.cache, round == 0 ? "folded" : "hit");
    ExpectReference(source, q, *a.table, "source");
    ExpectReference(copy, q, *b.table, "copy");
    EXPECT_NE(serve::TableToJson(*a.table), serve::TableToJson(*b.table));
  }
}

// Four threads serve the dashboard after one append, all on the same
// keys: each answer is folded by its thread or is a hit on another
// thread's fold, and equals Query() (TSan covers the fold and replace).
TEST(CacheEquivalence, ConcurrentFoldsOfOneAppend) {
  StatisticalObject obj = SmallRetail();
  ResetCache();
  for (const char* q : kDashboardPanels) RunQ(obj, q, Opts(Mode::kDerive), q);
  AppendRetail(obj, 0, 500);
  std::vector<std::string> want;
  for (const char* q : kDashboardPanels)
    want.push_back(serve::TableToJson(*Query(obj, q)));

  std::atomic<int> wrong{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        const size_t p = size_t(t + i) % std::size(kDashboardPanels);
        auto r = QueryProfiled(obj, kDashboardPanels[p],
                               Opts(Mode::kDerive, QueryEngine::kRelational,
                                    1 + t % 2));
        if (!r.ok() || serve::TableToJson(*r->table) != want[p] ||
            r->json == nullptr || *r->json != want[p] ||
            (r->profile.cache != "folded" && r->profile.cache != "hit"))
          wrong.fetch_add(1);
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ResultCache::Global().stats().entries,
            std::size(kDashboardPanels));
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
    ProfiledQuery cached =
        RunQ(obj, texts[i], Opts(Mode::kDerive), texts[i]);
    EXPECT_EQ(cached.profile.cache, "miss") << texts[i];
    EXPECT_EQ(off.table->num_rows(), rows[i]) << texts[i];
    ExpectTablesIdentical(*off.table, *cached.table, texts[i]);
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
