// Tests for the pluggable cube backends: MOLAP, ROLAP, ROLAP+bitmap must
// answer identically (the §6.6 equivalence invariant).

#include "statcube/olap/backend.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>

#include "statcube/query/parser.h"
#include "statcube/workload/census.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

class BackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RetailOptions opt;
    opt.num_products = 15;
    opt.num_stores = 6;
    opt.num_days = 20;
    opt.num_rows = 3000;
    data_ = std::make_unique<RetailData>(*MakeRetailWorkload(opt));
    molap_ = MakeMolapBackend(data_->object, "amount").ValueOrDie();
    rolap_ = MakeRolapBackend(data_->object, "amount").ValueOrDie();
    indexed_ = MakeRolapBackend(data_->object, "amount",
                                {.build_bitmap_indexes = true})
                   .ValueOrDie();
  }

  std::unique_ptr<RetailData> data_;
  std::unique_ptr<CubeBackend> molap_, rolap_, indexed_;
};

TEST_F(BackendTest, Names) {
  EXPECT_EQ(molap_->name(), "molap");
  EXPECT_EQ(rolap_->name(), "rolap");
  EXPECT_EQ(indexed_->name(), "rolap+bitmap");
}

TEST_F(BackendTest, SumsAgreeAcrossBackends) {
  std::vector<std::vector<EqFilter>> cases = {
      {},
      {{"product", Value("prod1")}},
      {{"store", Value("city0/s#0")}},
      {{"product", Value("prod2")}, {"day", Value("1996-1-3")}},
      {{"product", Value("never_sold")}},
  };
  for (const auto& filters : cases) {
    auto a = molap_->Sum(filters);
    auto b = rolap_->Sum(filters);
    auto c = indexed_->Sum(filters);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_NEAR(*a, *b, 1e-6);
    EXPECT_NEAR(*a, *c, 1e-6);
  }
}

TEST_F(BackendTest, GroupBySumsAgree) {
  CubeQuery q;
  q.group_dims = {"store"};
  auto a = molap_->GroupBySum(q);
  auto b = rolap_->GroupBySum(q);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // ROLAP only returns non-empty groups; MOLAP enumerates every dimension
  // value. Compare on ROLAP's groups; MOLAP's extras must be zero.
  size_t bi = 0;
  for (size_t ai = 0; ai < a->num_rows(); ++ai) {
    if (bi < b->num_rows() && a->at(ai, 0) == b->at(bi, 0)) {
      EXPECT_NEAR(a->at(ai, 1).AsDouble(), b->at(bi, 1).AsDouble(), 1e-6);
      ++bi;
    } else {
      EXPECT_DOUBLE_EQ(a->at(ai, 1).AsDouble(), 0.0)
          << a->at(ai, 0).ToString();
    }
  }
  EXPECT_EQ(bi, b->num_rows());
}

TEST_F(BackendTest, GroupByWithFilter) {
  CubeQuery q;
  q.group_dims = {"product"};
  q.filters = {{"store", Value("city1/s#0")}};
  auto a = molap_->GroupBySum(q);
  auto b = rolap_->GroupBySum(q);
  ASSERT_TRUE(a.ok() && b.ok());
  double ta = 0, tb = 0;
  for (const Row& r : a->rows()) ta += r.back().AsDouble();
  for (const Row& r : b->rows()) tb += r.back().AsDouble();
  EXPECT_NEAR(ta, tb, 1e-6);
}

TEST_F(BackendTest, TwoDimensionGroupBy) {
  CubeQuery q;
  q.group_dims = {"store", "day"};
  auto a = molap_->GroupBySum(q);
  auto b = rolap_->GroupBySum(q);
  ASSERT_TRUE(a.ok() && b.ok());
  // MOLAP enumerates the full cross product; totals must agree.
  double ta = 0, tb = 0;
  for (const Row& r : a->rows()) ta += r.back().AsDouble();
  for (const Row& r : b->rows()) tb += r.back().AsDouble();
  EXPECT_NEAR(ta, tb, 1e-6);
  EXPECT_GE(a->num_rows(), b->num_rows());
  // Spot check: every ROLAP group appears in MOLAP output with equal sum.
  std::map<Row, double> molap_groups;
  for (const Row& r : a->rows()) {
    Row key(r.begin(), r.begin() + 2);
    molap_groups[key] = r.back().AsDouble();
  }
  for (const Row& r : b->rows()) {
    Row key(r.begin(), r.begin() + 2);
    auto it = molap_groups.find(key);
    ASSERT_NE(it, molap_groups.end());
    EXPECT_NEAR(it->second, r.back().AsDouble(), 1e-6);
  }
}

TEST_F(BackendTest, EmptyGroupIsGrandTotal) {
  CubeQuery q;
  auto a = molap_->GroupBySum(q);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->num_rows(), 1u);
  auto total = molap_->Sum({});
  ASSERT_TRUE(total.ok());
  EXPECT_NEAR(a->at(0, 0).AsDouble(), *total, 1e-6);
}

TEST_F(BackendTest, BitmapIndexReadsFewerBytesThanScan) {
  rolap_->counter().Reset();
  indexed_->counter().Reset();
  (void)*rolap_->Sum({{"product", Value("prod1")}});
  (void)*indexed_->Sum({{"product", Value("prod1")}});
  EXPECT_LT(indexed_->counter().bytes_read(), rolap_->counter().bytes_read());
}

TEST_F(BackendTest, UnknownDimensionErrors) {
  EXPECT_FALSE(molap_->Sum({{"ghost", Value(1)}}).ok());
  EXPECT_FALSE(indexed_->Sum({{"ghost", Value(1)}}).ok());
  CubeQuery q;
  q.group_dims = {"ghost"};
  EXPECT_FALSE(molap_->GroupBySum(q).ok());
  EXPECT_FALSE(rolap_->GroupBySum(q).ok());
}

// Same group columns and, row by row, the same group values and the same
// sum to the bit: a backend's answer against the relational one (both sort
// by the group values; the backend calls its aggregate "sum").
void ExpectSameGroups(const Table& want, const Table& got,
                      const std::string& what) {
  ASSERT_EQ(want.num_columns(), got.num_columns()) << what;
  const size_t nby = want.num_columns() - 1;
  for (size_t c = 0; c < nby; ++c)
    EXPECT_EQ(want.schema().column(c).name, got.schema().column(c).name)
        << what;
  ASSERT_EQ(want.num_rows(), got.num_rows()) << what;
  for (size_t i = 0; i < want.num_rows(); ++i) {
    for (size_t c = 0; c < nby; ++c)
      EXPECT_TRUE(want.at(i, c) == got.at(i, c)) << what << " row " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(want.at(i, nby).AsDouble()),
              std::bit_cast<uint64_t>(got.at(i, nby).AsDouble()))
        << what << " row " << i;
  }
}

// A WHERE on a BY dimension keeps only its value's groups, and two filters
// on one dimension intersect — on MOLAP as on the ROLAP backends and the
// relational executor. So do a BY on the innermost dimension (year) and a
// BY on outer dimensions with the innermost fixed (one-cell segments), at
// one worker and at four.
TEST(BackendFilterTest, FiltersOnOneDimensionIntersectOnEveryBackend) {
  CensusOptions opt;
  opt.num_states = 2;
  opt.counties_per_state = 3;
  opt.seed = 7;
  const StatisticalObject obj = MakeCensusWorkload(opt).ValueOrDie();
  const char* const kWhereOnBy =
      "SELECT sum(population) BY county, year WHERE county = 'st0_co1'";
  ASSERT_EQ(Query(obj, kWhereOnBy)->num_rows(), 3u);  // one county, 3 years
  const std::vector<EqFilter> disjoint = {{"county", Value("st0_co0")},
                                          {"county", Value("st0_co1")}};
  for (auto& backend :
       {MakeMolapBackend(obj, "population").ValueOrDie(),
        MakeRolapBackend(obj, "population").ValueOrDie(),
        MakeRolapBackend(obj, "population", {.build_bitmap_indexes = true})
            .ValueOrDie()}) {
    for (const char* text :
         {kWhereOnBy, "SELECT sum(population) BY county, year",
          "SELECT sum(population) BY race, sex WHERE year = 1991"}) {
      const Table want = Query(obj, text).ValueOrDie();
      const ParsedQuery q = ParseQuery(text).ValueOrDie();
      for (int threads : {1, 4}) {
        const std::string what = backend->name() + " @" +
                                 std::to_string(threads) + ": " + text;
        Result<Table> got = ExecuteQueryOnBackend(obj, q, *backend, threads);
        ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
        ExpectSameGroups(want, *got, what);
      }
    }
    Result<double> none = backend->Sum(disjoint);
    ASSERT_TRUE(none.ok()) << backend->name();
    EXPECT_EQ(*none, 0.0) << backend->name();
  }
  EXPECT_EQ(Query(obj,
                  "SELECT sum(population) WHERE county = 'st0_co0' AND "
                  "county = 'st0_co1'")
                ->num_rows(),
            0u);
}

}  // namespace
}  // namespace statcube
