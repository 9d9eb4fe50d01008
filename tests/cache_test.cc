// Unit tests for the lattice-aware result cache (statcube/cache): key
// canonicalization and dataset versioning, LRU/byte-budget eviction,
// cost-aware admission, derivation-source selection, epoch invalidation,
// and the statcube.cache.* metrics.

#include "statcube/cache/result_cache.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "round_trip_cells.h"
#include "statcube/cache/derive.h"
#include "statcube/common/epoch.h"
#include "statcube/query/cache_key.h"
#include "statcube/obs/metrics.h"
#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

using query::BuildQueryKey;
using cache::Mode;
using cache::QueryKey;
using cache::ResultCache;

const StatisticalObject& Retail() {
  static StatisticalObject* obj = [] {
    RetailOptions opt;
    opt.num_products = 6;
    opt.num_stores = 4;
    opt.num_cities = 2;
    opt.num_days = 5;
    opt.num_rows = 500;
    return new StatisticalObject(
        MakeRetailWorkload(opt).ValueOrDie().object);
  }();
  return *obj;
}

QueryKey KeyFor(const std::string& text,
                QueryEngine engine = QueryEngine::kRelational,
                const StatisticalObject* obj = nullptr) {
  auto parsed = ParseQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto key = BuildQueryKey(obj ? *obj : Retail(), *parsed, engine);
  EXPECT_TRUE(key.ok()) << key.status().ToString();
  return *key;
}

// A small result table shaped like a group-by output, `rows` rows.
Table FakeResult(const std::string& name, size_t rows) {
  Schema schema;
  schema.AddColumn("store", ValueType::kString);
  schema.AddColumn("sum_amount", ValueType::kDouble);
  Table t(name, schema);
  for (size_t i = 0; i < rows; ++i)
    t.AppendRowUnchecked({Value("store" + std::to_string(i)),
                          Value(double(i))});
  return t;
}

// --------------------------------------------------------------------------
// Mode parsing.

TEST(CacheMode, Names) {
  EXPECT_STREQ(cache::ModeName(Mode::kOff), "off");
  EXPECT_STREQ(cache::ModeName(Mode::kOn), "on");
  EXPECT_STREQ(cache::ModeName(Mode::kDerive), "derive");
  EXPECT_EQ(*cache::ModeFromName("ON"), Mode::kOn);
  EXPECT_EQ(*cache::ModeFromName("derive"), Mode::kDerive);
  EXPECT_EQ(*cache::ModeFromName("off"), Mode::kOff);
  EXPECT_FALSE(cache::ModeFromName("sometimes").ok());
}

// --------------------------------------------------------------------------
// Key canonicalization.

TEST(QueryKeyTest, WhereOrderDoesNotMatter) {
  QueryKey a = KeyFor(
      "SELECT sum(amount) BY store WHERE city = 'city1' AND product = 'prod1'");
  QueryKey b = KeyFor(
      "SELECT sum(amount) BY store WHERE product = 'prod1' AND city = 'city1'");
  EXPECT_EQ(a.exact, b.exact);
}

TEST(QueryKeyTest, ByOrderIsExactButSharesFamily) {
  QueryKey a = KeyFor("SELECT sum(amount) BY store, city");
  QueryKey b = KeyFor("SELECT sum(amount) BY city, store");
  EXPECT_NE(a.exact, b.exact);  // output column order differs
  EXPECT_EQ(a.family, b.family);  // but derivation may cross them
}

TEST(QueryKeyTest, EngineSeparatesFamilies) {
  QueryKey rel = KeyFor("SELECT sum(amount) BY store");
  QueryKey molap = KeyFor("SELECT sum(amount) BY store", QueryEngine::kMolap);
  EXPECT_NE(rel.family, molap.family);
  EXPECT_FALSE(rel.backend_shaped);
  EXPECT_TRUE(molap.backend_shaped);
}

TEST(QueryKeyTest, BackendShapePrediction) {
  // Hierarchy level in BY -> relational fallback shape even on molap.
  EXPECT_FALSE(
      KeyFor("SELECT sum(amount) BY city", QueryEngine::kMolap).backend_shaped);
  // Multi-aggregate -> fallback.
  EXPECT_FALSE(KeyFor("SELECT sum(amount), sum(qty) BY store",
                      QueryEngine::kMolap)
                   .backend_shaped);
  // Non-measure aggregate column -> backend build would fail -> fallback.
  EXPECT_FALSE(KeyFor("SELECT count() BY store", QueryEngine::kMolap)
                   .backend_shaped);
}

TEST(QueryKeyTest, DerivabilityGates) {
  EXPECT_TRUE(KeyFor("SELECT sum(amount), count(amount) BY store").derivable);
  EXPECT_TRUE(KeyFor("SELECT min(amount), max(amount) BY store").derivable);
  EXPECT_FALSE(KeyFor("SELECT avg(amount) BY store").derivable);
  EXPECT_FALSE(KeyFor("SELECT sum(amount) BY CUBE(store, city)").derivable);
}

TEST(QueryKeyTest, EpochChangesFamily) {
  QueryKey before = KeyFor("SELECT sum(amount) BY store");
  DataEpochs::Global().Bump(Retail().name());
  QueryKey after = KeyFor("SELECT sum(amount) BY store");
  EXPECT_NE(before.exact, after.exact);
  EXPECT_NE(before.family, after.family);
}

TEST(QueryKeyTest, AddCellBumpsEpoch) {
  StatisticalObject obj("epoch_probe");
  ASSERT_TRUE(obj.AddDimension(Dimension("d")).ok());
  ASSERT_TRUE(obj.AddMeasure({.name = "m"}).ok());
  uint64_t e0 = DataEpochs::Global().Of("epoch_probe");
  ASSERT_TRUE(obj.AddCell({Value("a")}, {Value(1.0)}).ok());
  EXPECT_GT(DataEpochs::Global().Of("epoch_probe"), e0);
}

TEST(QueryKeyTest, ValueTypeTagsDoNotCollide) {
  StatisticalObject obj("typed");
  ASSERT_TRUE(obj.AddDimension(Dimension("d")).ok());
  ASSERT_TRUE(obj.AddMeasure({.name = "m"}).ok());
  ASSERT_TRUE(obj.AddCell({Value("1")}, {Value(2.0)}).ok());
  auto parsed_str = ParseQuery("SELECT sum(m) WHERE d = '1'");
  auto parsed_num = ParseQuery("SELECT sum(m) WHERE d = 1");
  ASSERT_TRUE(parsed_str.ok() && parsed_num.ok());
  auto a = BuildQueryKey(obj, *parsed_str, QueryEngine::kRelational);
  auto b = BuildQueryKey(obj, *parsed_num, QueryEngine::kRelational);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->exact, b->exact);
}

// Literals that differ in one bit (each double and its neighbour with the
// lowest bit flipped) never share a key; neither do the int64 edges nor a
// string that spells key syntax. NaNs are left out: a NaN literal matches
// no row, so every NaN answer is the same empty table.
TEST(QueryKeyTest, WhereLiteralsOneBitApartGetDistinctKeys) {
  std::vector<Value> literals;
  auto add = [&literals](const Value& v) {
    if (v.type() == ValueType::kDouble && std::isnan(v.AsDouble())) return;
    for (const Value& seen : literals)
      if (SameBits(seen, v)) return;
    literals.push_back(v);
  };
  for (const Value& v : RoundTripCells()) {
    add(v);
    if (v.type() != ValueType::kDouble) continue;
    uint64_t bits = DoubleBits(v.AsDouble()) ^ 1;
    double flipped = 0;
    std::memcpy(&flipped, &bits, sizeof flipped);
    add(Value(flipped));
  }

  auto parsed = ParseQuery("SELECT sum(amount) BY day");
  ASSERT_TRUE(parsed.ok());
  std::set<std::string> keys;
  for (const Value& v : literals) {
    parsed->where = {{"store", v}};
    auto key = BuildQueryKey(Retail(), *parsed, QueryEngine::kRelational);
    ASSERT_TRUE(key.ok());
    keys.insert(key->exact);
  }
  EXPECT_EQ(keys.size(), literals.size());
}

// --------------------------------------------------------------------------
// The cache proper: insert/lookup, admission, eviction.

ResultCache::Options Tiny(size_t budget, size_t shards = 1) {
  ResultCache::Options o;
  o.byte_budget = budget;
  o.shards = shards;
  o.admit_min_us = 0;  // admit everything unless a test raises it
  o.max_entry_bytes = budget;
  return o;
}

TEST(ResultCacheTest, InsertThenExactHit) {
  ResultCache rc(Tiny(1 << 20));
  QueryKey key = KeyFor("SELECT sum(amount) BY store");
  Table result = FakeResult("r_by_store", 4);
  EXPECT_TRUE(rc.Insert(key, result, /*backend_answered=*/false, 1000));
  auto hit = rc.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ToString(100), result.ToString(100));
  auto s = rc.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(ResultCacheTest, MissOnDifferentKey) {
  ResultCache rc(Tiny(1 << 20));
  rc.Insert(KeyFor("SELECT sum(amount) BY store"), FakeResult("a", 2), false,
            1000);
  EXPECT_FALSE(rc.Lookup(KeyFor("SELECT sum(amount) BY city")).has_value());
  EXPECT_EQ(rc.stats().misses, 1u);
}

TEST(ResultCacheTest, AdmissionRejectsCheapResults) {
  ResultCache rc(Tiny(1 << 20));
  rc.set_admit_min_us(500);
  QueryKey key = KeyFor("SELECT sum(amount) BY store");
  EXPECT_FALSE(rc.Insert(key, FakeResult("a", 2), false, /*exec_us=*/10));
  EXPECT_FALSE(rc.Lookup(key).has_value());
  EXPECT_EQ(rc.stats().admission_rejects, 1u);
  // Expensive enough: admitted.
  EXPECT_TRUE(rc.Insert(key, FakeResult("a", 2), false, /*exec_us=*/5000));
  EXPECT_TRUE(rc.Lookup(key).has_value());
}

TEST(ResultCacheTest, AdmissionRejectsOversizeResults) {
  ResultCache::Options o = Tiny(1 << 20);
  o.max_entry_bytes = 64;  // smaller than any real table
  ResultCache rc(o);
  EXPECT_FALSE(rc.Insert(KeyFor("SELECT sum(amount) BY store"),
                         FakeResult("a", 100), false, 1000));
  EXPECT_EQ(rc.stats().admission_rejects, 1u);
  EXPECT_EQ(rc.entries(), 0u);
}

TEST(ResultCacheTest, LruEvictionUnderByteBudget) {
  // Budget that holds roughly two of the three entries (one shard so LRU
  // order is global).
  // Per-entry overhead beyond the table bytes: the exact-key string plus
  // the Entry struct — comfortably under 1 KiB.
  Table sample = FakeResult("x", 50);
  const size_t budget = 2 * (sample.ByteSize() + 1024);
  ResultCache rc(Tiny(budget, /*shards=*/1));
  QueryKey a = KeyFor("SELECT sum(amount) BY store");
  QueryKey b = KeyFor("SELECT sum(amount) BY city");
  QueryKey c = KeyFor("SELECT sum(amount) BY product");
  rc.Insert(a, FakeResult("a", 50), false, 1000);
  rc.Insert(b, FakeResult("b", 50), false, 1000);
  ASSERT_TRUE(rc.Lookup(a).has_value());  // refresh a; b is now LRU
  rc.Insert(c, FakeResult("c", 50), false, 1000);
  EXPECT_GT(rc.stats().evictions, 0u);
  EXPECT_FALSE(rc.Lookup(b).has_value()) << "LRU victim should be b";
  EXPECT_TRUE(rc.Lookup(a).has_value());
  EXPECT_TRUE(rc.Lookup(c).has_value());
  EXPECT_LE(rc.bytes(), budget);
}

TEST(ResultCacheTest, ClearEmptiesEverything) {
  ResultCache rc(Tiny(1 << 20));
  rc.Insert(KeyFor("SELECT sum(amount) BY store"), FakeResult("a", 5), false,
            1000);
  rc.Clear();
  EXPECT_EQ(rc.entries(), 0u);
  EXPECT_EQ(rc.bytes(), 0u);
  EXPECT_FALSE(rc.Lookup(KeyFor("SELECT sum(amount) BY store")).has_value());
}

// --------------------------------------------------------------------------
// Derivation-source selection.

TEST(ResultCacheTest, FindsSmallestSupersetOfSameShape) {
  ResultCache rc(Tiny(4 << 20));
  QueryKey fine = KeyFor("SELECT sum(amount) BY product, store, city");
  QueryKey mid = KeyFor("SELECT sum(amount) BY store, city");
  QueryKey want = KeyFor("SELECT sum(amount) BY store");
  rc.Insert(fine, FakeResult("r_by_product_store_city", 48), false, 1000);
  rc.Insert(mid, FakeResult("r_by_store_city", 8), false, 1000);
  auto src = rc.FindDerivationSource(want);
  ASSERT_TRUE(src.has_value());
  // The cheaper (fewer-rows) ancestor wins, like CheapestAncestor.
  EXPECT_EQ(src->result.name(), "r_by_store_city");
  EXPECT_EQ(src->by, mid.by);
  ASSERT_EQ(src->agg_fns.size(), 1u);
  EXPECT_EQ(src->agg_fns[0], AggFn::kSum);
  EXPECT_EQ(src->agg_cols[0], "sum_amount");
}

TEST(ResultCacheTest, NoDerivationAcrossShapes) {
  ResultCache rc(Tiny(4 << 20));
  // A relational-shaped entry must not serve a backend-shaped request.
  QueryKey rel_superset = KeyFor("SELECT sum(amount) BY store, city");
  rc.Insert(rel_superset, FakeResult("r_by_store_city", 8), false, 1000);
  QueryKey molap_want =
      KeyFor("SELECT sum(amount) BY store", QueryEngine::kMolap);
  EXPECT_FALSE(rc.FindDerivationSource(molap_want).has_value());
}

TEST(ResultCacheTest, NoDerivationForNonDistributive) {
  ResultCache rc(Tiny(4 << 20));
  rc.Insert(KeyFor("SELECT sum(amount) BY store, city"),
            FakeResult("r_by_store_city", 8), false, 1000);
  QueryKey avg = KeyFor("SELECT avg(amount) BY store");
  EXPECT_FALSE(rc.FindDerivationSource(avg).has_value());
  // And the subset relation must actually hold.
  QueryKey disjoint = KeyFor("SELECT sum(amount) BY product");
  EXPECT_FALSE(rc.FindDerivationSource(disjoint).has_value());
}

TEST(ResultCacheTest, EvictedEntriesLeaveTheIndex) {
  Table sample = FakeResult("x", 50);
  ResultCache rc(Tiny(sample.ByteSize() + 512, /*shards=*/1));
  QueryKey superset = KeyFor("SELECT sum(amount) BY store, city");
  rc.Insert(superset, FakeResult("r_by_store_city", 50), false, 1000);
  // A second insert evicts the first (budget holds one entry).
  rc.Insert(KeyFor("SELECT sum(amount) BY product, city"),
            FakeResult("r_by_product_city", 50), false, 1000);
  EXPECT_GT(rc.stats().evictions, 0u);
  QueryKey want = KeyFor("SELECT sum(amount) BY store");
  auto src = rc.FindDerivationSource(want);
  EXPECT_FALSE(src.has_value()) << "evicted superset must not be offered";
}

// --------------------------------------------------------------------------
// Metrics surface: counters appear under statcube.cache.* when obs is on.

TEST(ResultCacheTest, MetricsRegistered) {
  obs::EnabledScope enabled(true);
  ResultCache rc(Tiny(1 << 20));
  QueryKey key = KeyFor("SELECT sum(amount) BY store");
  auto& reg = obs::MetricsRegistry::Global();
  uint64_t hits0 = reg.GetCounter("statcube.cache.hits").Value();
  uint64_t misses0 = reg.GetCounter("statcube.cache.misses").Value();
  rc.Insert(key, FakeResult("a", 3), false, 1000);
  rc.Lookup(key);
  rc.Lookup(KeyFor("SELECT sum(amount) BY city"));
  EXPECT_EQ(reg.GetCounter("statcube.cache.hits").Value(), hits0 + 1);
  EXPECT_EQ(reg.GetCounter("statcube.cache.misses").Value(), misses0 + 1);
  EXPECT_GT(reg.GetGauge("statcube.cache.bytes").Value(), 0.0);
  std::string text = reg.TextSnapshot();
  EXPECT_NE(text.find("statcube.cache.hits"), std::string::npos);
}

// --------------------------------------------------------------------------
// Concurrency smoke (TSan target): concurrent lookups, inserts and
// derivation scans on one shared cache.

TEST(ResultCacheTest, ConcurrentMixedOperations) {
  ResultCache rc(Tiny(256 << 10, /*shards=*/4));
  const QueryKey keys[] = {
      KeyFor("SELECT sum(amount) BY store"),
      KeyFor("SELECT sum(amount) BY city"),
      KeyFor("SELECT sum(amount) BY store, city"),
      KeyFor("SELECT sum(amount) BY product, store"),
  };
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&rc, &keys, w] {
      for (int i = 0; i < 200; ++i) {
        const QueryKey& key = keys[(w + i) % 4];
        if (i % 3 == 0)
          rc.Insert(key, FakeResult("t_by_x", 10 + i % 7), false, 1000);
        else if (i % 3 == 1)
          rc.Lookup(key);
        else
          rc.FindDerivationSource(keys[w % 2]);
      }
    });
  }
  for (auto& t : workers) t.join();
  auto s = rc.stats();
  EXPECT_GT(s.inserts + s.hits + s.misses, 0u);
}

}  // namespace
}  // namespace statcube
