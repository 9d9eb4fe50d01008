// Tests for the DataCube facade: chained operators, backend-routed
// aggregates, queries, automatic aggregation and rendering through one
// handle.

#include "statcube/olap/data_cube.h"

#include <gtest/gtest.h>

#include <memory>

#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

DataCube MakeCube(BackendKind backend = BackendKind::kMolap) {
  RetailOptions opt;
  opt.num_products = 8;
  opt.num_stores = 4;
  opt.num_cities = 2;
  opt.num_days = 10;
  opt.num_rows = 1200;
  return DataCube(MakeRetailWorkload(opt)->object,
                  {.backend = backend, .enforce_summarizability = true});
}

TEST(DataCubeTest, DescribeAndBackendName) {
  DataCube cube = MakeCube();
  EXPECT_NE(cube.Describe().find("Summary measure: qty"), std::string::npos);
  EXPECT_EQ(cube.backend_name(), "(none)");  // lazy
  ASSERT_TRUE(cube.Sum("qty").ok());
  EXPECT_EQ(cube.backend_name(), "molap");
}

TEST(DataCubeTest, SumAgreesAcrossBackends) {
  DataCube molap = MakeCube(BackendKind::kMolap);
  DataCube rolap = MakeCube(BackendKind::kRolap);
  DataCube bitmap = MakeCube(BackendKind::kRolapBitmap);
  std::vector<EqFilter> f = {{"product", Value("prod1")}};
  auto a = molap.Sum("amount", f);
  auto b = rolap.Sum("amount", f);
  auto c = bitmap.Sum("amount", f);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NEAR(*a, *b, 1e-6);
  EXPECT_NEAR(*a, *c, 1e-6);
  EXPECT_EQ(rolap.backend_name(), "rolap");
  EXPECT_EQ(bitmap.backend_name(), "rolap+bitmap");
}

// Copies of a handle share its backend; the ROLAP backends read the
// object in place, so the object must live as long as any copy does (the
// ASan build catches a dangling read).
TEST(DataCubeTest, CopyOutlivesTheOriginalsBackend) {
  std::vector<EqFilter> f = {{"product", Value("prod1")}};
  auto original = std::make_unique<DataCube>(MakeCube(BackendKind::kRolapBitmap));
  auto want = original->Sum("amount", f);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  DataCube copy = *original;
  original.reset();
  EXPECT_EQ(copy.backend_name(), "rolap+bitmap");
  auto got = copy.Sum("amount", f);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *want);
}

TEST(DataCubeTest, ChainedPipeline) {
  DataCube cube = MakeCube();
  // Roll stores up to cities, keep city0, summarize days away.
  auto city = cube.RollUp("store", "by_city");
  ASSERT_TRUE(city.ok()) << city.status().ToString();
  auto only0 = city->SliceAt("city", Value("city0"));
  ASSERT_TRUE(only0.ok());
  auto no_days = only0->Slice("day");
  ASSERT_TRUE(no_days.ok()) << no_days.status().ToString();
  EXPECT_EQ(no_days->object().dimensions().size(), 2u);
  // Grand total of the pipeline equals a filtered Sum on the original.
  DataCube fresh = MakeCube();
  auto total = Query(no_days->object(), "SELECT sum(qty)");
  ASSERT_TRUE(total.ok());
  auto per_city = fresh.object();
  double expect = 0;
  size_t si = *per_city.data().schema().IndexOf("store");
  size_t qi = *per_city.data().schema().IndexOf("qty");
  for (const Row& r : per_city.data().rows())
    if (r[si].AsString().rfind("city0", 0) == 0) expect += r[qi].AsDouble();
  EXPECT_NEAR(total->at(0, 0).AsDouble(), expect, 1e-6);
}

TEST(DataCubeTest, EnforcementFlowsThroughOptions) {
  RetailOptions opt;
  opt.num_rows = 200;
  StatisticalObject obj = MakeRetailWorkload(opt)->object;
  // Make qty a stock measure so projecting over days is illegal.
  StatisticalObject stocky("s");
  (void)stocky.AddDimension(Dimension("day", DimensionKind::kTemporal));
  (void)stocky.AddDimension(Dimension("x"));
  (void)stocky.AddMeasure({"level", "", MeasureType::kStock, AggFn::kSum, ""});
  (void)stocky.AddCell({Value("d1"), Value("x1")}, {Value(1)});

  DataCube strict(stocky, {.enforce_summarizability = true});
  EXPECT_EQ(strict.Slice("day").status().code(),
            StatusCode::kNotSummarizable);
  DataCube loose(stocky, {.enforce_summarizability = false});
  EXPECT_TRUE(loose.Slice("day").ok());
}

TEST(DataCubeTest, QueryAskRender) {
  DataCube cube = MakeCube();
  auto q = Query(cube.object(), "SELECT sum(amount) BY city");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_rows(), 2u);

  AutoQuery ask;
  ask.selections = {{"category", Value("cat1")}};
  ask.measure = "qty";
  auto a = cube.Ask(ask);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(a->value.is_numeric() || a->value.is_null());

  Render2DOptions ropt;
  ropt.row_dims = {"store"};
  ropt.col_dims = {"day"};
  ropt.measure = "qty";
  auto r = cube.Render(ropt);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->find("store"), std::string::npos);
}

TEST(DataCubeTest, UnionOfPages) {
  DataCube cube = MakeCube();
  auto a = cube.Select("store", {Value("city0/s#0")});
  auto b = cube.Select("store", {Value("city1/s#0")});
  ASSERT_TRUE(a.ok() && b.ok());
  auto u = a->Union(*b);
  ASSERT_TRUE(u.ok());
  // SUnion consolidates duplicate coordinates (the raw retail object holds
  // one cell per transaction); the union holds the distinct coordinates of
  // both pages, which are disjoint by construction.
  auto ca = Consolidate(a->object());
  auto cb = Consolidate(b->object());
  ASSERT_TRUE(ca.ok() && cb.ok());
  EXPECT_EQ(u->object().data().num_rows(),
            ca->data().num_rows() + cb->data().num_rows());
  // And the measure totals are conserved.
  auto total = [](const StatisticalObject& o) {
    size_t qi = *o.data().schema().IndexOf("qty");
    double t = 0;
    for (const Row& r : o.data().rows()) t += r[qi].AsDouble();
    return t;
  };
  EXPECT_NEAR(total(u->object()),
              total(a->object()) + total(b->object()), 1e-6);
}

}  // namespace
}  // namespace statcube
