// The three seeded workloads. Each one puts most of its time in different
// layers, so a change to one layer shows on one workload and not another:
//
//  olap_adhoc      cold ad-hoc analyst queries over sparse retail sales —
//                  the relational executor (copy, roll-up, filter, group).
//  sdb_census      a statistician's stream over a dense census object with
//                  the engine drawn per request — cube backend builds and
//                  the fallback to relational; the cache is off.
//  dashboard_live  eight dashboard panels refreshed over and over while a
//                  loader appends — the result cache's hit, derive and
//                  invalidation paths, JSON rendering and HTTP.
//
// Query shapes are stratified: each block of consecutive ops holds every
// shape class a fixed number of times, in a seeded order with seeded
// details, so the mix (and with it p50/p90) does not swing with the seed.

#include <algorithm>
#include <numeric>

#include "harness.h"
#include "statcube/obs/json.h"
#include "statcube/workload/census.h"
#include "statcube/workload/retail.h"

namespace e2e {

using statcube::Result;
using statcube::Row;
using statcube::StatisticalObject;
using statcube::Status;
using statcube::Value;
using statcube::ValueType;

namespace {

// Seed streams: independent sequences derived from the one --seed.
enum Stream : uint64_t {
  kData = 1,
  kOps = 2,
  kShapes = 3,
  kEngines = 4,
  kWarmup = 5,
  kWarmupShapes = 6,
  kAppends = 7,
  kGroupings = 8,  // and 9
};

// Element `i % n` of a seeded permutation of [0, n) drawn per block of n.
size_t Stratified(uint64_t seed, uint64_t stream, uint64_t i, size_t n) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  SplitMix rng(StreamSeed(seed, stream, i / n));
  for (size_t k = n; k > 1; --k) std::swap(perm[k - 1], perm[rng.Uniform(k)]);
  return perm[i % n];
}

std::string Pick(SplitMix& rng, const std::vector<std::string>& from) {
  return from[rng.Uniform(from.size())];
}

// k distinct elements of `from`, in drawn order.
std::vector<std::string> PickDistinct(SplitMix& rng,
                                      std::vector<std::string> from,
                                      size_t k) {
  std::vector<std::string> out;
  for (size_t j = 0; j < k && !from.empty(); ++j) {
    size_t at = rng.Uniform(from.size());
    out.push_back(from[at]);
    from.erase(from.begin() + long(at));
  }
  return out;
}

std::string JoinComma(const std::vector<std::string>& parts) {
  std::string s;
  for (size_t i = 0; i < parts.size(); ++i) s += (i ? ", " : "") + parts[i];
  return s;
}

// The retail sales object of §2.2: product × store × day, with levels
// category and price_range (product), city (store), month and year (day).
// 200 × 40 × 360 = 2.88 M cells, 50,000 of them with facts.
Result<StatisticalObject> MakeRetail(uint64_t seed) {
  statcube::RetailOptions o;
  o.num_products = 200;
  o.num_categories = 8;
  o.num_stores = 40;
  o.num_cities = 8;
  o.num_days = 360;
  o.num_rows = 50000;
  o.seed = StreamSeed(seed, kData);
  STATCUBE_ASSIGN_OR_RETURN(statcube::RetailData data,
                            statcube::MakeRetailWorkload(o));
  return std::move(data.object);
}

// ------------------------------------------------------------- olap_adhoc

// A block of 30 shapes: filter (none, city, category) × 10, and within each
// filter class BY 0 attributes once, 1 attribute four times and 2
// attributes five times; 3 of the 15 two-attribute groupings are CUBE.
// Across blocks, single attributes cycle through seeded permutations of the
// 8 attributes and pairs through seeded permutations of the 28 pairs, so
// the number of roll-up levels per run does not swing with the seed.
constexpr size_t kAdhocBlock = 30;
const std::vector<std::string> kAdhocAttrs = {
    "product", "store", "day", "category", "price_range", "city", "month",
    "year"};

size_t AdhocGroupSize(size_t shape) {
  const size_t within = shape % 10;
  return within == 0 ? 0 : (within <= 4 ? 1 : 2);
}

class OlapAdhoc : public Workload {
 public:
  explicit OlapAdhoc(uint64_t seed) : Workload(seed) {}
  const char* name() const override { return "olap_adhoc"; }
  Result<StatisticalObject> Generate() const override {
    return MakeRetail(seed_);
  }
  // Six fixed shapes, two per filter class, whose BY lists together take a
  // seeded permutation of the 8 attributes: the warm-up's roll-up count, and
  // with it set-up time, is the same for every seed.
  std::vector<Op> Warmup() const override {
    static constexpr size_t kShapesUsed[] = {1, 16, 21, 6, 10, 26};
    std::vector<Op> ops;
    size_t next = 0;
    for (uint64_t i = 0; i < 6; ++i) {
      const size_t shape = kShapesUsed[i];
      std::vector<std::string> by;
      for (size_t k = 0; k < AdhocGroupSize(shape); ++k)
        by.push_back(kAdhocAttrs[Stratified(seed_, kWarmupShapes, next++, 8)]);
      SplitMix rng(StreamSeed(seed_, kWarmup, i));
      ops.push_back(MakeOp(rng, shape, by));
    }
    return ops;
  }
  Op At(uint64_t i) const override {
    const size_t shape = Stratified(seed_, kShapes, i, kAdhocBlock);
    const size_t nby = AdhocGroupSize(shape);
    // Rank of op i among the stream's ops with the same grouping size.
    static constexpr uint64_t kPerBlock[] = {3, 12, 15};
    uint64_t rank = i / kAdhocBlock * kPerBlock[nby];
    for (uint64_t p = i - i % kAdhocBlock; p < i; ++p)
      if (AdhocGroupSize(Stratified(seed_, kShapes, p, kAdhocBlock)) == nby)
        ++rank;
    SplitMix rng(StreamSeed(seed_, kOps, i));
    std::vector<std::string> by;
    if (nby == 1) {
      by.push_back(kAdhocAttrs[Stratified(seed_, kGroupings, rank, 8)]);
    } else if (nby == 2) {
      size_t pair = Stratified(seed_, kGroupings + 1, rank, 28);
      size_t a = 0;
      while (pair >= 7 - a) pair -= 7 - a++;
      by = {kAdhocAttrs[a], kAdhocAttrs[a + 1 + pair]};
      if (rng.Uniform(2)) std::swap(by[0], by[1]);
    }
    return MakeOp(rng, shape, by);
  }
  const char* backend_measure() const override { return "amount"; }
  double ops_per_second() const override { return 13; }
  uint64_t block() const override { return kAdhocBlock; }

 private:
  static Op MakeOp(SplitMix& rng, size_t shape,
                   const std::vector<std::string>& by) {
    static const std::vector<std::string> kFns = {"sum", "count", "avg",
                                                  "min", "max"};
    const size_t filter = shape / 10;  // 0 none, 1 city, 2 category
    // One CUBE per filter class, on its first two-attribute slot.
    const bool cube = shape % 10 == 5;

    std::vector<std::string> aggs;
    const size_t naggs = 1 + rng.Uniform(2);
    while (aggs.size() < naggs) {
      std::string a = Pick(rng, kFns) + "(" +
                      (rng.Uniform(2) ? "qty" : "amount") + ")";
      if (std::find(aggs.begin(), aggs.end(), a) == aggs.end())
        aggs.push_back(a);
    }
    std::string q = "SELECT " + JoinComma(aggs);
    if (!by.empty())
      q += cube ? " BY CUBE(" + JoinComma(by) + ")" : " BY " + JoinComma(by);
    if (filter == 1)
      q += " WHERE city = 'city" + std::to_string(rng.Uniform(8)) + "'";
    if (filter == 2)
      q += " WHERE category = 'cat" + std::to_string(rng.Uniform(8)) + "'";
    Op op;
    op.requests.push_back({q, "relational", "derive"});
    return op;
  }
};

// ------------------------------------------------------------- sdb_census

// The census object of §3.1: county -> state -> region, race, sex, age
// group, year. 20 states × 10 counties in 4 regions, 43,200 dense cells.
// Ten query shapes (seven backend-expressible, three roll-ups) × four
// engines: a block of 40 holds every (shape, engine) pair once.
constexpr size_t kCensusBlock = 40;

class SdbCensus : public Workload {
 public:
  explicit SdbCensus(uint64_t seed) : Workload(seed) {}
  const char* name() const override { return "sdb_census"; }
  Result<StatisticalObject> Generate() const override {
    statcube::CensusOptions o;
    o.num_states = 20;
    o.counties_per_state = 10;
    o.states_per_region = 5;
    o.seed = StreamSeed(seed_, kData);
    return statcube::MakeCensusWorkload(o);
  }
  // Eight fixed (shape, engine) slots, details seeded: the warm-up's cost
  // is the same for every seed.
  std::vector<Op> Warmup() const override {
    static constexpr size_t kShapesUsed[] = {0, 3, 7, 1, 4, 8, 5, 9};
    std::vector<Op> ops;
    for (uint64_t i = 0; i < 8; ++i)
      ops.push_back(
          MakeOp(StreamSeed(seed_, kWarmup, i), kShapesUsed[i] * 4 + i % 4));
    return ops;
  }
  Op At(uint64_t i) const override {
    return MakeOp(StreamSeed(seed_, kOps, i),
                  Stratified(seed_, kShapes, i, kCensusBlock));
  }
  const char* backend_measure() const override { return "population"; }
  double ops_per_second() const override { return 45; }
  uint64_t block() const override { return kCensusBlock; }

 private:
  // Shapes 0-6: SELECT sum(population) BY 1 (shapes 0-2) or 2 (3-6) of
  // county/race/sex/age_group, grouping or fixing year by parity. Shapes
  // 7-9 roll up to state (7), region (8) or either (9). Every query fixes
  // or groups by year: population is a stock measure and must never be
  // summed over time (§3.3.2).
  static Op MakeOp(uint64_t detail_seed, size_t slot) {
    static const std::vector<std::string> kEngineNames = {
        "relational", "molap", "rolap", "rolap+bitmap"};
    static const std::vector<std::string> kDims = {"county", "race", "sex",
                                                   "age_group"};
    const size_t shape = slot / 4;
    SplitMix rng(detail_seed);
    bool group_year = shape % 2 == 0;
    const std::string year = std::to_string(1990 + rng.Uniform(3));
    std::vector<std::string> by;
    std::string agg = "sum(population)";
    if (shape < 7) {
      by = PickDistinct(rng, kDims, shape < 3 ? 1 : 2);
    } else {
      by.push_back(shape == 7 || (shape == 9 && rng.Uniform(2)) ? "state"
                                                                : "region");
      if (rng.Uniform(2)) agg = "avg(avg_income)";
      if (rng.Uniform(2)) by.push_back("sex");
      group_year = rng.Uniform(2) == 1;
    }
    if (group_year) by.push_back("year");
    std::string q = "SELECT " + agg + " BY " + JoinComma(by);
    if (!group_year) q += " WHERE year = " + year;
    Op op;
    op.requests.push_back({q, kEngineNames[slot % 4], "off"});
    return op;
  }
};

// --------------------------------------------------------- dashboard_live

// Ops cycle through [refresh, refresh, refresh, append, refresh]: a loader
// appends before every 4th refresh, so a quarter of refreshes follow an
// append (p90 sits in that mode) and the rest are warm (p50 sits there).
constexpr uint64_t kDashCycle = 5;
constexpr uint64_t kDashAppendSlot = 3;

class DashboardLive : public Workload {
 public:
  explicit DashboardLive(uint64_t seed) : Workload(seed) {}
  const char* name() const override { return "dashboard_live"; }
  Result<StatisticalObject> Generate() const override {
    return MakeRetail(seed_);
  }
  std::vector<Op> Warmup() const override { return {Refresh()}; }
  Op At(uint64_t i) const override {
    if (i % kDashCycle != kDashAppendSlot) return Refresh();
    Op op;
    op.append = true;
    op.append_batch = i / kDashCycle;
    return op;
  }
  const char* backend_measure() const override { return "amount"; }
  bool has_appends() const override { return true; }
  double ops_per_second() const override { return 20; }
  uint64_t block() const override { return kDashCycle; }

 private:
  // Eight panels, finest to coarsest.
  static Op Refresh() {
    static const char* kPanels[] = {
        "SELECT sum(amount), sum(qty) BY product, store",
        "SELECT sum(amount), sum(qty) BY product, city",
        "SELECT sum(amount), sum(qty) BY product",
        "SELECT sum(amount), sum(qty) BY store",
        "SELECT sum(qty) BY store",
        "SELECT sum(amount), sum(qty) BY city",
        "SELECT sum(qty)",
        "SELECT sum(amount)",
    };
    Op op;
    for (const char* q : kPanels)
      op.requests.push_back({q, "relational", "derive"});
    return op;
  }
};

}  // namespace

std::string Request::Body() const {
  return "{\"query\":" + statcube::obs::JsonStr(query) + ",\"engine\":\"" +
         engine + "\",\"cache\":\"" + cache + "\",\"tenant\":\"bench\"}";
}

std::unique_ptr<Workload> Workload::Make(const std::string& name,
                                         uint64_t seed) {
  if (name == "olap_adhoc") return std::make_unique<OlapAdhoc>(seed);
  if (name == "sdb_census") return std::make_unique<SdbCensus>(seed);
  if (name == "dashboard_live") return std::make_unique<DashboardLive>(seed);
  return nullptr;
}

Status Workload::Append(StatisticalObject& obj, uint64_t batch) const {
  SplitMix rng(StreamSeed(seed_, kAppends, batch));
  const auto& dims = obj.dimensions();
  const auto& schema = obj.data().schema();
  for (int k = 0; k < kAppendCells; ++k) {
    Row coords, measures;
    for (const auto& d : dims)
      coords.push_back(d.values()[rng.Uniform(d.values().size())]);
    for (size_t m = dims.size(); m < schema.num_columns(); ++m) {
      if (schema.column(m).type == ValueType::kInt64)
        measures.emplace_back(int64_t(1 + rng.Uniform(9)));
      else
        measures.emplace_back(double(1 + rng.Uniform(20000)) / 4);
    }
    STATCUBE_RETURN_NOT_OK(obj.AddCell(coords, measures));
  }
  return Status::OK();
}

}  // namespace e2e
