// Unit tests for the lattice-aware result cache (statcube/cache): key
// canonicalization and data versions, LRU/byte-budget eviction,
// size-bounded admission, derivation-source selection, versioned entries
// (a hit only at the key's version, one version per exact key), and the
// statcube.cache.* metrics.

#include "statcube/cache/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "round_trip_cells.h"
#include "statcube/query/cache_key.h"
#include "statcube/obs/metrics.h"
#include "statcube/query/parser.h"
#include "statcube/serve/front_door.h"
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
std::shared_ptr<const Table> FakeResult(const std::string& name, size_t rows) {
  Schema schema;
  schema.AddColumn("store", ValueType::kString);
  schema.AddColumn("sum_amount", ValueType::kDouble);
  auto t = std::make_shared<Table>(name, schema);
  for (size_t i = 0; i < rows; ++i)
    t->AppendRowUnchecked({Value("store" + std::to_string(i)),
                           Value(double(i))});
  return t;
}

bool Cached(ResultCache& rc, const QueryKey& key) {
  return rc.Lookup(key).hit;
}

// A three-row object, "d" by "m", with `middle` as its second cell.
StatisticalObject Small(const std::string& name, const Row& middle) {
  StatisticalObject obj(name);
  EXPECT_TRUE(obj.AddDimension(Dimension("d")).ok());
  EXPECT_TRUE(obj.AddMeasure({.name = "m"}).ok());
  EXPECT_TRUE(obj.AddCell({Value("a")}, {Value(1.0)}).ok());
  EXPECT_TRUE(obj.AddCell({middle[0]}, {middle[1]}).ok());
  EXPECT_TRUE(obj.AddCell({Value("c")}, {Value(3.0)}).ok());
  return obj;
}

// --------------------------------------------------------------------------
// Mode parsing.

TEST(CacheMode, Names) {
  EXPECT_STREQ(cache::ModeName(Mode::kOff), "off");
  EXPECT_STREQ(cache::ModeName(Mode::kDerive), "derive");
  EXPECT_EQ(*cache::ModeFromName("DERIVE"), Mode::kDerive);
  EXPECT_EQ(*cache::ModeFromName("off"), Mode::kOff);
  EXPECT_FALSE(cache::ModeFromName("sometimes").ok());
  // Exact-only reuse is no mode of its own: `derive` tries the exact hit
  // first.
  Result<Mode> on = cache::ModeFromName("on");
  ASSERT_FALSE(on.ok());
  EXPECT_NE(on.status().message().find("(off|derive)"), std::string::npos)
      << on.status().ToString();
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

// A version is (identity, rows): AddCell keeps the identity and moves the
// row count, so the key's strings stay and its object_rows grows.
TEST(QueryKeyTest, AppendKeepsTheFamilyAndMovesTheVersion) {
  StatisticalObject obj = Small("versioned", {Value("b"), Value(2.0)});
  const uint64_t id = obj.identity();
  QueryKey before = KeyFor("SELECT sum(m) BY d", QueryEngine::kRelational,
                           &obj);
  ASSERT_TRUE(obj.AddCell({Value("e")}, {Value(5.0)}).ok());
  EXPECT_EQ(obj.identity(), id);
  QueryKey after = KeyFor("SELECT sum(m) BY d", QueryEngine::kRelational,
                          &obj);
  EXPECT_EQ(before.exact, after.exact);
  EXPECT_EQ(before.family, after.family);
  EXPECT_EQ(before.object_rows, 3u);
  EXPECT_EQ(after.object_rows, 4u);
}

// Every other way to change what an object answers renews its identity,
// and with it the key's family: a copy, a moved-from object, a new
// dimension or measure and a mutable dimension handle. A move hands the
// identity to its target.
TEST(QueryKeyTest, CopiesMovesAndEditsRenewTheIdentity) {
  StatisticalObject obj = Small("renewed", {Value("b"), Value(2.0)});
  const uint64_t id = obj.identity();
  const std::string family =
      KeyFor("SELECT sum(m) BY d", QueryEngine::kRelational, &obj).family;

  StatisticalObject copy = obj;
  EXPECT_NE(copy.identity(), id);
  EXPECT_EQ(obj.identity(), id);
  EXPECT_NE(KeyFor("SELECT sum(m) BY d", QueryEngine::kRelational, &copy)
                .family,
            family);
  StatisticalObject assigned("other");
  const uint64_t assigned_id = assigned.identity();
  assigned = obj;
  EXPECT_NE(assigned.identity(), id);
  EXPECT_NE(assigned.identity(), assigned_id);

  StatisticalObject moved = std::move(obj);
  EXPECT_EQ(moved.identity(), id);
  EXPECT_NE(obj.identity(), id);  // NOLINT(bugprone-use-after-move)
  StatisticalObject move_assigned("other");
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.identity(), id);
  EXPECT_NE(moved.identity(), id);  // NOLINT(bugprone-use-after-move)

  uint64_t last = move_assigned.identity();
  ASSERT_TRUE(move_assigned.MutableDimensionNamed("d").ok());
  EXPECT_NE(move_assigned.identity(), last);

  StatisticalObject fresh("fresh");
  last = fresh.identity();
  ASSERT_TRUE(fresh.AddDimension(Dimension("d")).ok());
  EXPECT_NE(fresh.identity(), last);
  last = fresh.identity();
  ASSERT_TRUE(fresh.AddMeasure({.name = "m"}).ok());
  EXPECT_NE(fresh.identity(), last);
  last = fresh.identity();
  ASSERT_TRUE(fresh.AddCell({Value("a")}, {Value(1.0)}).ok());
  EXPECT_EQ(fresh.identity(), last);
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

ResultCache::Options Tiny(size_t budget) {
  ResultCache::Options o;
  o.byte_budget = budget;
  o.max_entry_bytes = budget;
  return o;
}

TEST(ResultCacheTest, InsertThenExactHit) {
  ResultCache rc(Tiny(1 << 20));
  QueryKey key = KeyFor("SELECT sum(amount) BY store");
  auto result = FakeResult("r_by_store", 4);
  EXPECT_NE(rc.Insert(key, result, /*backend_answered=*/false),
            nullptr);
  auto hit = rc.Lookup(key);
  ASSERT_NE(hit.table, nullptr);
  EXPECT_EQ(hit.table->ToString(100), result->ToString(100));
  auto s = rc.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(ResultCacheTest, MissOnDifferentKey) {
  ResultCache rc(Tiny(1 << 20));
  rc.Insert(KeyFor("SELECT sum(amount) BY store"), FakeResult("a", 2), false);
  EXPECT_FALSE(Cached(rc, KeyFor("SELECT sum(amount) BY city")));
  EXPECT_EQ(rc.stats().misses, 1u);
}

TEST(ResultCacheTest, AdmissionRejectsOversizeResults) {
  ResultCache::Options o = Tiny(1 << 20);
  o.max_entry_bytes = 64;  // smaller than any real table
  ResultCache rc(o);
  EXPECT_EQ(rc.Insert(KeyFor("SELECT sum(amount) BY store"),
                      FakeResult("a", 100), false),
            nullptr);
  EXPECT_EQ(rc.stats().admission_rejects, 1u);
  EXPECT_EQ(rc.stats().entries, 0u);
}

// An entry is the inserted object itself, shared: a hit and a derivation
// source hand out the very table Insert received, with the encoding Insert
// made once, and that encoding is part of the entry's bytes.
TEST(ResultCacheTest, HitsShareTheInsertedTableAndItsEncoding) {
  ResultCache rc(Tiny(4 << 20));
  QueryKey key = KeyFor("SELECT sum(amount) BY store, city");
  auto result = FakeResult("r_by_store_city", 200);
  std::shared_ptr<const std::string> json =
      rc.Insert(key, result, /*backend_answered=*/false);
  ASSERT_NE(json, nullptr);
  EXPECT_EQ(*json, serve::TableToJson(*result));

  cache::CachedResult hit = rc.Lookup(key);
  EXPECT_EQ(hit.table.get(), result.get());
  EXPECT_EQ(hit.json.get(), json.get());
  auto src = rc.FindDerivationSource(KeyFor("SELECT sum(amount) BY store"));
  ASSERT_TRUE(src.has_value());
  EXPECT_EQ(src->result.get(), result.get());
  // Re-offering a live key keeps the entry and returns its encoding.
  EXPECT_EQ(rc.Insert(key, FakeResult("r_by_store_city", 200), false),
            json);
  EXPECT_EQ(rc.Lookup(key).table.get(), result.get());

  // The encoding counts toward the entry's size: in the resident bytes...
  const size_t entry_bytes = rc.stats().bytes;
  EXPECT_GE(entry_bytes, result->ByteSize() + key.exact.size() + json->size());
  // ...and in the max_entry_bytes check: the same entry is admitted at
  // exactly its size and refused one byte below it.
  for (size_t cap : {entry_bytes, entry_bytes - 1}) {
    ResultCache::Options o = Tiny(4 << 20);
    o.max_entry_bytes = cap;
    ResultCache capped(o);
    EXPECT_EQ(capped.Insert(key, result, false) != nullptr,
              cap == entry_bytes)
        << cap;
    EXPECT_EQ(capped.stats().bytes, cap == entry_bytes ? entry_bytes : 0u);
  }
}

TEST(ResultCacheTest, LruEvictionUnderByteBudget) {
  // Budget that holds roughly two of the three entries. Per-entry overhead
  // beyond the table and its encoding: the exact-key string plus the Entry
  // struct — comfortably under 1 KiB.
  auto sample = FakeResult("x", 50);
  const size_t budget =
      2 * (sample->ByteSize() + serve::TableToJson(*sample).size() + 1024);
  ResultCache rc(Tiny(budget));
  QueryKey a = KeyFor("SELECT sum(amount) BY store");
  QueryKey b = KeyFor("SELECT sum(amount) BY city");
  QueryKey c = KeyFor("SELECT sum(amount) BY product");
  rc.Insert(a, FakeResult("a", 50), false);
  rc.Insert(b, FakeResult("b", 50), false);
  ASSERT_TRUE(Cached(rc, a));  // refresh a; b is now LRU
  rc.Insert(c, FakeResult("c", 50), false);
  EXPECT_GT(rc.stats().evictions, 0u);
  EXPECT_FALSE(Cached(rc, b)) << "LRU victim should be b";
  EXPECT_TRUE(Cached(rc, a));
  EXPECT_TRUE(Cached(rc, c));
  EXPECT_LE(rc.stats().bytes, budget);
}

// A one-row result whose store name is `bytes` long, so that the table and
// its encoding each take about `bytes`.
std::shared_ptr<const Table> Blob(size_t bytes) {
  Schema schema;
  schema.AddColumn("store", ValueType::kString);
  schema.AddColumn("sum_amount", ValueType::kDouble);
  auto t = std::make_shared<Table>("blob", schema);
  t->AppendRowUnchecked({Value(std::string(bytes, 'x')), Value(1.0)});
  return t;
}

// The byte budget bounds the cache as a whole: entries that fit it
// together all stay, wherever their keys hash, even when any two of them
// exceed an eighth of it.
TEST(ResultCacheTest, BudgetBoundsTheWholeCache) {
  ResultCache rc;  // default options: entries up to an eighth of the budget
  const size_t budget = ResultCache::Options().byte_budget;
  std::vector<QueryKey> keys;
  for (const char* by :
       {"store", "city", "product", "day", "store, city", "store, product",
        "store, day", "city, product", "city, day"}) {
    keys.push_back(KeyFor(std::string("SELECT sum(amount) BY ") + by));
    // 5/8 of an eighth: half in the table, half in its encoding.
    ASSERT_NE(rc.Insert(keys.back(), Blob(budget / 8 * 5 / 16), false),
              nullptr);
  }
  const ResultCache::Stats s = rc.stats();
  EXPECT_EQ(s.entries, keys.size());
  EXPECT_LT(s.bytes, budget);
  EXPECT_GT(s.bytes / keys.size() * 2, budget / 8);
  EXPECT_EQ(s.evictions, 0u);
  for (const QueryKey& key : keys) EXPECT_TRUE(Cached(rc, key)) << key.exact;
}

TEST(ResultCacheTest, ClearEmptiesEverything) {
  ResultCache rc(Tiny(1 << 20));
  rc.Insert(KeyFor("SELECT sum(amount) BY store"), FakeResult("a", 5), false);
  rc.Clear();
  EXPECT_EQ(rc.stats().entries, 0u);
  EXPECT_EQ(rc.stats().bytes, 0u);
  EXPECT_FALSE(Cached(rc, KeyFor("SELECT sum(amount) BY store")));
}

// An entry answers one version: a lookup at a later version finds it but
// is no hit (the caller may fold it forward), a derivation never reads it,
// and an insert at the later version replaces it — one entry per exact
// key, one family member, the older table freed for its last reader.
TEST(ResultCacheTest, EntriesAnswerOneVersionAndAreReplaced) {
  ResultCache rc(Tiny(4 << 20));
  QueryKey v1 = KeyFor("SELECT sum(amount) BY store, city");
  QueryKey v2 = v1;
  v2.object_rows = v1.object_rows + 10;
  auto old_table = FakeResult("r_by_store_city", 8);
  rc.Insert(v1, old_table, false);

  cache::CachedResult stale = rc.Lookup(v2);
  EXPECT_FALSE(stale.hit);
  EXPECT_EQ(stale.table.get(), old_table.get());
  EXPECT_EQ(stale.object_rows, v1.object_rows);
  EXPECT_FALSE(stale.backend_shaped);
  EXPECT_EQ(rc.stats().misses, 1u);
  EXPECT_EQ(rc.stats().hits, 0u);
  QueryKey subset = KeyFor("SELECT sum(amount) BY store");
  subset.object_rows = v2.object_rows;
  EXPECT_FALSE(rc.FindDerivationSource(subset).has_value())
      << "an older version must not be rolled up";

  auto new_table = FakeResult("r_by_store_city", 9);
  std::shared_ptr<const std::string> json = rc.Insert(v2, new_table, false);
  ASSERT_NE(json, nullptr);
  EXPECT_EQ(*json, serve::TableToJson(*new_table));
  EXPECT_EQ(rc.stats().entries, 1u);
  EXPECT_EQ(rc.stats().inserts, 2u);
  cache::CachedResult hit = rc.Lookup(v2);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.table.get(), new_table.get());
  std::optional<cache::DerivedSource> src = rc.FindDerivationSource(subset);
  ASSERT_TRUE(src.has_value());
  EXPECT_EQ(src->result.get(), new_table.get());
  // The entry now answers v2 only, and the cache let go of the v1 table.
  EXPECT_FALSE(rc.Lookup(v1).hit);
  EXPECT_EQ(old_table.use_count(), 2);  // this test's and `stale`'s
}

// Replacing an entry whose key no longer derives (its sums lost their
// licence with the append) drops its family member too.
TEST(ResultCacheTest, ReplacedEntryThatNoLongerDerivesLeavesTheIndex) {
  ResultCache rc(Tiny(4 << 20));
  QueryKey v1 = KeyFor("SELECT sum(amount) BY store, city");
  ASSERT_TRUE(v1.derivable);
  rc.Insert(v1, FakeResult("r_by_store_city", 8), false);
  QueryKey v2 = v1;
  v2.object_rows += 1;
  v2.derivable = false;
  rc.Insert(v2, FakeResult("r_by_store_city", 8), false);
  QueryKey subset = KeyFor("SELECT sum(amount) BY store");
  subset.object_rows = v2.object_rows;
  EXPECT_FALSE(rc.FindDerivationSource(subset).has_value());
}

// --------------------------------------------------------------------------
// Derivation-source selection.

TEST(ResultCacheTest, FindsSmallestSupersetOfSameShape) {
  ResultCache rc(Tiny(4 << 20));
  QueryKey fine = KeyFor("SELECT sum(amount) BY product, store, city");
  QueryKey mid = KeyFor("SELECT sum(amount) BY store, city");
  QueryKey want = KeyFor("SELECT sum(amount) BY store");
  rc.Insert(fine, FakeResult("r_by_product_store_city", 48), false);
  rc.Insert(mid, FakeResult("r_by_store_city", 8), false);
  auto src = rc.FindDerivationSource(want);
  ASSERT_TRUE(src.has_value());
  // The cheaper (fewer-rows) ancestor wins, like CheapestAncestor.
  EXPECT_EQ(src->result->name(), "r_by_store_city");
  EXPECT_EQ(src->by, mid.by);
  ASSERT_EQ(src->aggs.size(), 1u);
  EXPECT_EQ(src->aggs[0].fn, AggFn::kSum);
  EXPECT_EQ(src->aggs[0].EffectiveName(), "sum_amount");
}

TEST(ResultCacheTest, NoDerivationAcrossShapes) {
  ResultCache rc(Tiny(4 << 20));
  // A relational-shaped entry must not serve a backend-shaped request.
  QueryKey rel_superset = KeyFor("SELECT sum(amount) BY store, city");
  rc.Insert(rel_superset, FakeResult("r_by_store_city", 8), false);
  QueryKey molap_want =
      KeyFor("SELECT sum(amount) BY store", QueryEngine::kMolap);
  EXPECT_FALSE(rc.FindDerivationSource(molap_want).has_value());
}

TEST(ResultCacheTest, NoDerivationForNonDistributive) {
  ResultCache rc(Tiny(4 << 20));
  rc.Insert(KeyFor("SELECT sum(amount) BY store, city"),
            FakeResult("r_by_store_city", 8), false);
  QueryKey avg = KeyFor("SELECT avg(amount) BY store");
  EXPECT_FALSE(rc.FindDerivationSource(avg).has_value());
  // And the subset relation must actually hold.
  QueryKey disjoint = KeyFor("SELECT sum(amount) BY product");
  EXPECT_FALSE(rc.FindDerivationSource(disjoint).has_value());
}

TEST(ResultCacheTest, EvictedEntriesLeaveTheIndex) {
  auto sample = FakeResult("x", 50);
  ResultCache rc(
      Tiny(sample->ByteSize() + serve::TableToJson(*sample).size() + 512));
  QueryKey superset = KeyFor("SELECT sum(amount) BY store, city");
  rc.Insert(superset, FakeResult("r_by_store_city", 50), false);
  // A second insert evicts the first (budget holds one entry).
  rc.Insert(KeyFor("SELECT sum(amount) BY product, city"),
            FakeResult("r_by_product_city", 50), false);
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
  rc.Insert(key, FakeResult("a", 3), false);
  (void)rc.Lookup(key);
  (void)rc.Lookup(KeyFor("SELECT sum(amount) BY city"));
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
  ResultCache rc(Tiny(256 << 10));
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
          rc.Insert(key, FakeResult("t_by_x", 10 + i % 7), false);
        else if (i % 3 == 1)
          (void)rc.Lookup(key);
        else
          rc.FindDerivationSource(keys[w % 2]);
      }
    });
  }
  for (auto& t : workers) t.join();
  auto s = rc.stats();
  EXPECT_GT(s.inserts + s.hits + s.misses, 0u);
}

// Readers keep the tables and encodings they were handed while writers
// evict their entries (a budget of about two entries, four keys): every
// held table and its bytes must stay intact. Under ASan a
// freed table would be a use after free; under TSan, a race.
TEST(ResultCacheTest, HeldHitsSurviveEviction) {
  constexpr int kKeys = 4;
  const QueryKey keys[kKeys] = {
      KeyFor("SELECT sum(amount) BY store"),
      KeyFor("SELECT sum(amount) BY city"),
      KeyFor("SELECT sum(amount) BY product"),
      KeyFor("SELECT sum(amount) BY day"),
  };
  std::string want[kKeys];
  for (int k = 0; k < kKeys; ++k)
    want[k] = serve::TableToJson(*FakeResult("t" + std::to_string(k), 40 + k));
  auto sample = FakeResult("t0", 43);
  ResultCache rc(Tiny(
      2 * (sample->ByteSize() + serve::TableToJson(*sample).size() + 1024)));

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 400; ++i) {
        const int k = (w + i) % kKeys;
        rc.Insert(keys[k], FakeResult("t" + std::to_string(k), 40 + k), false);
      }
    });
  }
  std::vector<std::thread> readers;
  std::atomic<int> held_total{0}, torn{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::pair<int, cache::CachedResult>> held;
      for (int i = 0; !done.load() || i < 200; ++i) {
        const int k = (r + i) % kKeys;
        cache::CachedResult hit = rc.Lookup(keys[k]);
        if (hit.table != nullptr && held.size() < 1000)
          held.emplace_back(k, std::move(hit));
      }
      // Every entry held has long been evicted or replaced by now.
      for (const auto& [k, hit] : held) {
        if (*hit.json != want[k] || serve::TableToJson(*hit.table) != want[k])
          torn.fetch_add(1);
      }
      held_total.fetch_add(int(held.size()));
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(rc.stats().evictions, 0u);
  EXPECT_GT(held_total.load(), 0);
  EXPECT_EQ(torn.load(), 0);
}

}  // namespace
}  // namespace statcube
