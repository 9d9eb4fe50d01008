// Tests for the materialization lattice, greedy/optimal view selection
// ([HUR96], Figure 22), and the materialized view store.

#include <gtest/gtest.h>

#include "statcube/common/rng.h"
#include "statcube/materialize/greedy.h"
#include "statcube/materialize/lattice.h"
#include "statcube/materialize/view_store.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/query_profile.h"

namespace statcube {
namespace {

// The paper's Figure 22 example: product, location, day.
Lattice MakeFigure22() {
  // Sizes chosen with the usual asymmetry: |product x location x day| = 6M,
  // |product x location| = 0.8M, etc.
  std::vector<uint64_t> sizes(8);
  // bit0 = product, bit1 = location, bit2 = day
  sizes[0b000] = 1;
  sizes[0b001] = 2000;      // product
  sizes[0b010] = 100;       // location
  sizes[0b100] = 365;       // day
  sizes[0b011] = 200000;    // product, location
  sizes[0b101] = 730000;    // product, day
  sizes[0b110] = 36500;     // location, day
  sizes[0b111] = 6000000;   // product, location, day
  return Lattice({"product", "location", "day"}, std::move(sizes));
}

TEST(LatticeTest, Derivability) {
  // location derivable from {location, day} and {product, location}.
  EXPECT_TRUE(Lattice::DerivableFrom(0b010, 0b110));
  EXPECT_TRUE(Lattice::DerivableFrom(0b010, 0b011));
  EXPECT_FALSE(Lattice::DerivableFrom(0b011, 0b110));
  EXPECT_TRUE(Lattice::DerivableFrom(0b000, 0b001));
}

TEST(LatticeTest, CostModel) {
  Lattice l = MakeFigure22();
  // With nothing extra materialized, every query costs |top|.
  EXPECT_EQ(l.QueryCost(0b010, {}), 6000000u);
  EXPECT_EQ(l.TotalCost({}), 8u * 6000000);
  // Materializing {product, location} answers 4 views at 200000.
  std::vector<uint32_t> m = {0b011};
  EXPECT_EQ(l.QueryCost(0b010, m), 200000u);
  EXPECT_EQ(l.QueryCost(0b011, m), 200000u);
  EXPECT_EQ(l.QueryCost(0b110, m), 6000000u);  // not derivable
  EXPECT_EQ(l.TotalCost(m), 4u * 200000 + 4u * 6000000);
  EXPECT_EQ(l.Benefit(m), 4u * (6000000 - 200000));
}

TEST(LatticeTest, ViewNames) {
  Lattice l = MakeFigure22();
  EXPECT_EQ(l.ViewName(0b011), "{product, location}");
  EXPECT_EQ(l.ViewName(0), "{()}");
}

TEST(LatticeTest, FromTableCountsDistinct) {
  Schema s;
  s.AddColumn("a", ValueType::kString);
  s.AddColumn("b", ValueType::kString);
  Table t("t", s);
  t.AppendRowUnchecked({Value("a1"), Value("b1")});
  t.AppendRowUnchecked({Value("a1"), Value("b2")});
  t.AppendRowUnchecked({Value("a2"), Value("b1")});
  t.AppendRowUnchecked({Value("a2"), Value("b1")});  // duplicate
  auto l = Lattice::FromTable(t, {"a", "b"});
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l->size(0b00), 1u);
  EXPECT_EQ(l->size(0b01), 2u);  // a
  EXPECT_EQ(l->size(0b10), 2u);  // b
  EXPECT_EQ(l->size(0b11), 3u);  // distinct pairs
}

TEST(LatticeTest, FromCardinalitiesCapsAtRows) {
  Lattice l = Lattice::FromCardinalities({"a", "b"}, {1000, 1000}, 5000);
  EXPECT_EQ(l.size(0b11), 5000u);  // capped
  EXPECT_EQ(l.size(0b01), 1000u);
}

TEST(GreedyTest, PicksHighBenefitViewsFirst) {
  Lattice l = MakeFigure22();
  ViewSelection sel = GreedySelect(l, 2);
  ASSERT_EQ(sel.views.size(), 2u);
  // {location, day} (36.5k rows) covers 4 views nearly for free: benefit
  // 4*(6M - 36.5k) beats {product, location}'s 4*(6M - 200k).
  EXPECT_EQ(sel.views[0], 0b110u);
  // Second pick: {product, location} covers the remaining {product} and
  // {product, location} queries.
  EXPECT_EQ(sel.views[1], 0b011u);
  EXPECT_GT(sel.benefit, 0u);
  EXPECT_EQ(sel.total_cost, l.TotalCost(sel.views));
  // Greedy matches the exhaustive optimum here.
  auto opt = OptimalSelect(l, 2);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(sel.benefit, opt->benefit);
}

TEST(GreedyTest, MatchesOptimalOnSmallLattices) {
  // Randomized small lattices: the greedy solution must reach at least
  // (1 - 1/e) of the optimal benefit; on most instances it is optimal.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 3;
    std::vector<uint64_t> sizes(1u << n);
    sizes[(1u << n) - 1] = 100000 + rng.Uniform(1000000);
    for (uint32_t m = 0; m + 1 < (1u << n); ++m)
      sizes[m] = 1 + rng.Uniform(sizes[(1u << n) - 1]);
    sizes[0] = 1;
    Lattice l({"a", "b", "c"}, sizes);
    for (size_t k = 1; k <= 3; ++k) {
      ViewSelection g = GreedySelect(l, k);
      auto o = OptimalSelect(l, k);
      ASSERT_TRUE(o.ok());
      EXPECT_GE(double(g.benefit), (1.0 - 1.0 / 2.71828) * double(o->benefit))
          << "trial " << trial << " k " << k;
      EXPECT_LE(g.benefit, o->benefit);
    }
  }
}

TEST(GreedyTest, BudgetedSelectionRespectsBudget) {
  Lattice l = MakeFigure22();
  ViewSelection sel = GreedySelectWithBudget(l, 250000);
  EXPECT_LE(sel.space_rows, 250000u);
  // Benefit-per-row favors the tiny views first: the grand total (1 row,
  // ~6M benefit) then {location} / {day} / {location, day}.
  ASSERT_FALSE(sel.views.empty());
  EXPECT_EQ(sel.views[0], 0b000u);
  // The budget admits {location, day} and more; cost must strictly improve.
  EXPECT_LT(sel.total_cost, l.TotalCost({}));
  // Zero budget picks nothing.
  EXPECT_TRUE(GreedySelectWithBudget(l, 0).views.empty());
}

// ------------------------------------------------------------- view store

Table MakeBase(int n, uint64_t seed) {
  Schema s;
  s.AddColumn("product", ValueType::kString);
  s.AddColumn("location", ValueType::kString);
  s.AddColumn("day", ValueType::kString);
  s.AddColumn("sales", ValueType::kInt64);
  Table t("base", s);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    t.AppendRowUnchecked({Value("p" + std::to_string(rng.Uniform(20))),
                          Value("l" + std::to_string(rng.Uniform(5))),
                          Value("d" + std::to_string(rng.Uniform(30))),
                          Value(int64_t(rng.Uniform(100)))});
  }
  return t;
}

TEST(ViewStoreTest, QueriesAnswerFromBaseWithoutViews) {
  auto store = MaterializedCubeStore::Create(
      MakeBase(3000, 5), {"product", "location", "day"},
      {{AggFn::kSum, "sales", "total"}});
  ASSERT_TRUE(store.ok());
  auto q = store->Query(0b001);  // by product
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(store->last_rows_scanned(), 3000u);
  EXPECT_EQ(q->num_rows(), 20u);
}

TEST(ViewStoreTest, MaterializedViewCutsScanCost) {
  Table base = MakeBase(3000, 6);
  auto store = MaterializedCubeStore::Create(
      base, {"product", "location", "day"}, {{AggFn::kSum, "sales", "total"}});
  ASSERT_TRUE(store.ok());
  // Materialize {product, location}: at most 100 rows.
  ASSERT_TRUE(store->Materialize(0b011).ok());
  auto q = store->Query(0b001);
  ASSERT_TRUE(q.ok());
  EXPECT_LE(store->last_rows_scanned(), 100u);
  // Results equal direct computation from the base.
  auto direct = GroupBy(base, {"product"}, {{AggFn::kSum, "sales", "total"}});
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(q->num_rows(), direct->num_rows());
  for (size_t r = 0; r < q->num_rows(); ++r) {
    EXPECT_EQ(q->at(r, 0), direct->at(r, 0));
    EXPECT_DOUBLE_EQ(q->at(r, 1).AsDouble(), direct->at(r, 1).AsDouble());
  }
}

TEST(ViewStoreTest, AnswersEveryMaskCorrectly) {
  Table base = MakeBase(1000, 7);
  auto store = MaterializedCubeStore::Create(
      base, {"product", "location", "day"},
      {{AggFn::kSum, "sales", "total"}, {AggFn::kCountAll, "", "n"}});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Materialize(0b111).ok());
  ASSERT_TRUE(store->Materialize(0b011).ok());
  ASSERT_TRUE(store->Materialize(0b100).ok());
  for (uint32_t mask = 0; mask < 8; ++mask) {
    auto q = store->Query(mask);
    ASSERT_TRUE(q.ok()) << mask;
    std::vector<std::string> dims;
    for (size_t d = 0; d < 3; ++d)
      if (mask & (1u << d))
        dims.push_back(std::vector<std::string>{"product", "location",
                                                "day"}[d]);
    auto direct = GroupBy(base, dims,
                          {{AggFn::kSum, "sales", "total"},
                           {AggFn::kCountAll, "", "n"}});
    ASSERT_TRUE(direct.ok());
    // The measure is integral, so a roll-up from a view repeats GroupBy
    // over the base exactly: name, value types and bits.
    EXPECT_EQ(q->name(), direct->name()) << mask;
    ASSERT_EQ(q->num_rows(), direct->num_rows()) << mask;
    for (size_t r = 0; r < q->num_rows(); ++r)
      for (size_t c = 0; c < q->num_columns(); ++c)
        EXPECT_TRUE(SameRepr()(q->at(r, c), direct->at(r, c)))
            << mask << " " << r << " " << c << ": " << q->at(r, c).ToString()
            << " vs " << direct->at(r, c).ToString();
  }
}

TEST(ViewStoreTest, RejectsNonDistributiveAggregates) {
  auto store = MaterializedCubeStore::Create(
      MakeBase(10, 8), {"product"}, {{AggFn::kAvg, "sales", "avg"}});
  EXPECT_FALSE(store.ok());
}

TEST(ViewStoreTest, ValidatesMasks) {
  auto store = MaterializedCubeStore::Create(MakeBase(10, 9), {"product"},
                                             {{AggFn::kSum, "sales", "t"}});
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->Materialize(99).ok());
  EXPECT_FALSE(store->Query(99).ok());
}

TEST(ViewStoreTest, ObservabilityCountsHitsMissesAndRefreshRows) {
  obs::EnabledScope on(true);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();

  auto store = MaterializedCubeStore::Create(
      MakeBase(1000, 11), {"product", "location", "day"},
      {{AggFn::kSum, "sales", "total"}});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Materialize(0b011).ok());

  obs::ProfileScope scope;
  ASSERT_TRUE(store->Query(0b011).ok());  // exact view: hit
  ASSERT_TRUE(store->Query(0b001).ok());  // from {product, location}: miss
  ASSERT_TRUE(store->Query(0b100).ok());  // not derivable: miss, from base
  obs::QueryProfile p = scope.Take();

  EXPECT_EQ(reg.GetCounter("statcube.viewstore.hits").Value(), 1u);
  EXPECT_EQ(reg.GetCounter("statcube.viewstore.misses").Value(), 2u);
  EXPECT_EQ(p.view_hits, 1u);
  EXPECT_EQ(p.view_misses, 2u);
  ASSERT_EQ(p.view_events.size(), 3u);
  EXPECT_TRUE(p.view_events[0].hit);
  EXPECT_EQ(p.view_events[1].ancestor_mask, 0b011);
  EXPECT_EQ(p.view_events[2].ancestor_mask, -1);  // base table

  // Incremental refresh reports re-aggregated rows.
  std::vector<Row> delta = {{Value("p1"), Value("l1"), Value("d1"),
                             Value(int64_t(5))}};
  auto reagg = store->AppendAndRefresh(delta);
  ASSERT_TRUE(reagg.ok());
  EXPECT_EQ(reg.GetCounter("statcube.viewstore.reagg_rows").Value(), *reagg);

  // The text snapshot carries the counters (acceptance criterion).
  std::string text = reg.TextSnapshot();
  EXPECT_NE(text.find("statcube.viewstore.hits 1\n"), std::string::npos);
  EXPECT_NE(text.find("statcube.viewstore.misses 2\n"), std::string::npos);
}

}  // namespace
}  // namespace statcube
