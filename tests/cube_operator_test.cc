// Tests for the CUBE / ROLLUP operators (paper §5.4, Figure 15): the ALL
// pseudo-value, agreement between the naive and simultaneous
// implementations, and grand totals.

#include "statcube/relational/cube_operator.h"

#include <gtest/gtest.h>

#include "statcube/common/rng.h"
#include "statcube/relational/expression.h"
#include "statcube/relational/operators.h"

namespace statcube {
namespace {

Table MakeSales(int n, int nstates, int nyears, uint64_t seed) {
  Schema s;
  s.AddColumn("state", ValueType::kString);
  s.AddColumn("year", ValueType::kInt64);
  s.AddColumn("sex", ValueType::kString);
  s.AddColumn("pop", ValueType::kInt64);
  Table t("sales", s);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    t.AppendRowUnchecked(
        {Value("st" + std::to_string(rng.Uniform(uint64_t(nstates)))),
         Value(int64_t(1990 + rng.Uniform(uint64_t(nyears)))),
         Value(rng.Bernoulli(0.5) ? "M" : "F"),
         Value(int64_t(rng.Uniform(1000)))});
  }
  return t;
}

TEST(CubeOperatorTest, RowCountsSmall) {
  // 2 states x 2 years known exactly: cube rows = (2+1)*(2+1) when all
  // combinations occur.
  Table t = MakeSales(500, 2, 2, 1);
  auto cube = CubeBy(t, {"state", "year"}, {{AggFn::kSum, "pop", "total"}});
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->num_rows(), 9u);
}

TEST(CubeOperatorTest, GrandTotalPresent) {
  Table t = MakeSales(300, 3, 2, 2);
  auto cube = CubeBy(t, {"state", "year", "sex"},
                     {{AggFn::kSum, "pop", "total"}, {AggFn::kCountAll, "", "n"}});
  ASSERT_TRUE(cube.ok());
  // Find the ALL/ALL/ALL row.
  double direct_total = 0;
  for (const Row& r : t.rows()) direct_total += r[3].AsDouble();
  bool found = false;
  for (const Row& r : cube->rows()) {
    if (r[0].is_all() && r[1].is_all() && r[2].is_all()) {
      found = true;
      EXPECT_DOUBLE_EQ(r[3].AsDouble(), direct_total);
      EXPECT_EQ(r[4], Value(300));
    }
  }
  EXPECT_TRUE(found);
}

TEST(CubeOperatorTest, NaiveAndSimultaneousAgree) {
  Table t = MakeSales(2000, 4, 3, 3);
  std::vector<AggSpec> aggs = {{AggFn::kSum, "pop", "s"},
                               {AggFn::kAvg, "pop", "a"},
                               {AggFn::kMin, "pop", "lo"},
                               {AggFn::kMax, "pop", "hi"},
                               {AggFn::kCountAll, "", "n"}};
  auto naive = CubeByNaive(t, {"state", "year", "sex"}, aggs);
  auto fast = CubeBy(t, {"state", "year", "sex"}, aggs);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(fast.ok());
  ASSERT_EQ(naive->num_rows(), fast->num_rows());
  for (size_t i = 0; i < naive->num_rows(); ++i) {
    for (size_t c = 0; c < naive->num_columns(); ++c) {
      if (naive->at(i, c).is_numeric()) {
        EXPECT_NEAR(naive->at(i, c).AsDouble(), fast->at(i, c).AsDouble(),
                    1e-6)
            << "row " << i << " col " << c;
      } else {
        EXPECT_EQ(naive->at(i, c), fast->at(i, c)) << "row " << i;
      }
    }
  }
}

TEST(CubeOperatorTest, CubeMatchesExplicitGroupBys) {
  // Each (state, ALL) row must equal GROUP BY state.
  Table t = MakeSales(800, 3, 3, 4);
  auto cube = CubeBy(t, {"state", "year"}, {{AggFn::kSum, "pop", "total"}});
  ASSERT_TRUE(cube.ok());
  auto by_state = GroupBy(t, {"state"}, {{AggFn::kSum, "pop", "total"}});
  ASSERT_TRUE(by_state.ok());
  for (const Row& g : by_state->rows()) {
    bool found = false;
    for (const Row& c : cube->rows()) {
      if (c[0] == g[0] && c[1].is_all()) {
        found = true;
        EXPECT_DOUBLE_EQ(c[2].AsDouble(), g[1].AsDouble());
      }
    }
    EXPECT_TRUE(found) << g[0].ToString();
  }
}

TEST(CubeOperatorTest, RollupProducesPrefixGroupings) {
  Table t = MakeSales(400, 2, 2, 5);
  auto rollup = RollupBy(t, {"state", "year"}, {{AggFn::kSum, "pop", "t"}});
  ASSERT_TRUE(rollup.ok());
  // Groupings: (state, year) = 4 rows, (state) = 2 rows, () = 1 row.
  EXPECT_EQ(rollup->num_rows(), 7u);
  // (state, ALL) rows exist; (ALL, year) rows must NOT exist.
  for (const Row& r : rollup->rows()) {
    if (r[0].is_all()) {
      EXPECT_TRUE(r[1].is_all());
    }
  }
}

TEST(CubeOperatorTest, ZeroDimensionCube) {
  Table t = MakeSales(50, 2, 2, 6);
  auto cube = CubeBy(t, {}, {{AggFn::kCountAll, "", "n"}});
  ASSERT_TRUE(cube.ok());
  ASSERT_EQ(cube->num_rows(), 1u);
  EXPECT_EQ(cube->at(0, 0), Value(50));
}

TEST(CubeOperatorTest, UpperBound) {
  EXPECT_EQ(CubeUpperBound({2, 3}), 12u);
  EXPECT_EQ(CubeUpperBound({}), 1u);
}

TEST(CubeOperatorTest, RefusesHugeDimensionLists) {
  Table t = MakeSales(10, 2, 2, 7);
  std::vector<std::string> dims(21, "state");
  EXPECT_FALSE(CubeByNaive(t, dims, {{AggFn::kCountAll, "", "n"}}).ok());
  EXPECT_FALSE(CubeBy(t, dims, {{AggFn::kCountAll, "", "n"}}).ok());
}

TEST(CubeOperatorTest, RollupRefusesMoreDimensionsThanMaskBits) {
  // Groupings are 32-bit masks: 31 dimensions fit, 32 would shift past the
  // mask width.
  Schema s;
  std::vector<std::string> dims;
  for (int d = 0; d < 32; ++d) {
    dims.push_back(std::string("d").append(std::to_string(d)));
    s.AddColumn(dims.back(), ValueType::kInt64);
  }
  Table t("wide", s);
  t.AppendRowUnchecked(Row(32, Value(int64_t(1))));
  auto refused = RollupBy(t, dims, {{AggFn::kCountAll, "", "n"}});
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  dims.pop_back();
  auto rollup = RollupBy(t, dims, {{AggFn::kCountAll, "", "n"}});
  ASSERT_TRUE(rollup.ok()) << rollup.status().ToString();
  EXPECT_EQ(rollup->num_rows(), 32u);  // one row per prefix, () to (d0..d30)
}

}  // namespace
}  // namespace statcube
