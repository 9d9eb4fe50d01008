// Tests for the header-compressed sparse MOLAP cube: agreement with the
// dense cube, compression on sparse data, and incremental view maintenance
// in the materialized store.

#include "statcube/olap/sparse_cube.h"

#include <gtest/gtest.h>

#include "statcube/common/rng.h"
#include "statcube/materialize/view_store.h"
#include "statcube/olap/molap_cube.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

RetailData MakeSparse(int rows) {
  RetailOptions opt;
  opt.num_products = 50;
  opt.num_stores = 10;
  opt.num_days = 60;  // 30k cells
  opt.num_rows = rows;
  opt.seed = 21;
  return *MakeRetailWorkload(opt);
}

TEST(SparseCubeTest, AgreesWithDenseCube) {
  RetailData data = MakeSparse(2000);
  auto dense = MolapCube::Build(data.object, "amount");
  auto sparse = SparseMolapCube::Build(data.object, "amount");
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(sparse.ok());

  std::vector<std::vector<EqFilter>> cases = {
      {},
      {{"product", Value("prod0")}},
      {{"store", Value("city1/s#1")}},
      {{"product", Value("prod3")}, {"day", Value("1996-1-4")}},
      {{"product", Value("never")}},
  };
  for (const auto& filters : cases) {
    auto a = dense->SumWhere(filters);
    auto b = sparse->SumWhere(filters);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NEAR(*a, *b, 1e-6);
  }
  EXPECT_FALSE(sparse->SumWhere({{"ghost", Value(1)}}).ok());

  // Point lookups agree too.
  auto pa = dense->GetCell({Value("prod1"), Value("city0/s#0"),
                            Value("1996-1-1")});
  auto pb = sparse->GetCell({Value("prod1"), Value("city0/s#0"),
                             Value("1996-1-1")});
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_NEAR(*pa, *pb, 1e-9);
}

TEST(SparseCubeTest, CompressesSparseCubes) {
  RetailData sparse_data = MakeSparse(800);  // ~2.5% density
  auto sparse = SparseMolapCube::Build(sparse_data.object, "amount");
  ASSERT_TRUE(sparse.ok());
  EXPECT_GT(sparse->compression_ratio(), 3.0);
  EXPECT_LT(sparse->ByteSize(), sparse->DenseByteSize());
}

TEST(SparseCubeTest, RandomizedEquivalenceSweep) {
  Rng rng(77);
  RetailData data = MakeSparse(1500);
  auto dense = MolapCube::Build(data.object, "amount");
  auto sparse = SparseMolapCube::Build(data.object, "amount");
  ASSERT_TRUE(dense.ok() && sparse.ok());
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<EqFilter> filters;
    if (rng.Bernoulli(0.7))
      filters.push_back(
          {"product", Value("prod" + std::to_string(rng.Uniform(50)))});
    if (rng.Bernoulli(0.5))
      filters.push_back(
          {"day", Value("1996-" + std::to_string(1 + rng.Uniform(2)) + "-" +
                        std::to_string(1 + rng.Uniform(30)))});
    auto a = dense->SumWhere(filters);
    auto b = sparse->SumWhere(filters);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_NEAR(*a, *b, 1e-6) << trial;
  }
}

TEST(IncrementalRefreshTest, MatchesFullRecompute) {
  RetailData data = MakeSparse(3000);
  auto store = MaterializedCubeStore::Create(
      data.flat, {"product", "store", "day"},
      {{AggFn::kSum, "amount", "revenue"},
       {AggFn::kCountAll, "", "n"},
       {AggFn::kMax, "amount", "peak"}});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Materialize(0b001).ok());
  ASSERT_TRUE(store->Materialize(0b011).ok());

  // New day of data.
  RetailData more = MakeSparse(3500);
  std::vector<Row> delta(more.flat.rows().begin() + 3000,
                         more.flat.rows().end());
  auto reagg = store->AppendAndRefresh(delta);
  ASSERT_TRUE(reagg.ok()) << reagg.status().ToString();
  EXPECT_EQ(*reagg, 2u * 500);  // 2 views x 500 delta rows

  // Every view now equals a from-scratch recompute over base+delta, named
  // like the base: the measure is integral, so exactly, in name, value
  // types and bits.
  Table full(data.flat.name(), data.flat.schema());
  for (const Row& r : data.flat.rows()) full.AppendRowUnchecked(r);
  for (const Row& r : delta) full.AppendRowUnchecked(r);
  for (uint32_t mask : {0b001u, 0b011u}) {
    auto q = store->Query(mask);
    ASSERT_TRUE(q.ok());
    std::vector<std::string> dims;
    if (mask & 1) dims.push_back("product");
    if (mask & 2) dims.push_back("store");
    auto direct = GroupBy(full, dims,
                          {{AggFn::kSum, "amount", "revenue"},
                           {AggFn::kCountAll, "", "n"},
                           {AggFn::kMax, "amount", "peak"}});
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(q->name(), direct->name()) << mask;
    ASSERT_EQ(q->num_rows(), direct->num_rows()) << mask;
    for (size_t r = 0; r < q->num_rows(); ++r)
      for (size_t c = 0; c < q->num_columns(); ++c)
        EXPECT_TRUE(SameRepr()(q->at(r, c), direct->at(r, c)))
            << mask << " " << r << " " << c << ": " << q->at(r, c).ToString()
            << " vs " << direct->at(r, c).ToString();
  }
}

TEST(IncrementalRefreshTest, ValidatesArity) {
  RetailData data = MakeSparse(100);
  auto store = MaterializedCubeStore::Create(
      data.flat, {"product"}, {{AggFn::kSum, "amount", "revenue"}});
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->AppendAndRefresh({{Value(1)}}).ok());
}

}  // namespace
}  // namespace statcube
