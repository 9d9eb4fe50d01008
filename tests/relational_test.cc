// Tests for the relational engine: table, expressions, operators, group-by,
// join, star schema.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "statcube/relational/aggregate.h"
#include "statcube/relational/expression.h"
#include "statcube/relational/join.h"
#include "statcube/relational/operators.h"
#include "statcube/relational/star_schema.h"
#include "statcube/relational/table.h"

namespace statcube {
namespace {

Table MakeEmployment() {
  // Mirrors the paper's Figure 10-style relation.
  Schema s;
  s.AddColumn("state", ValueType::kString);
  s.AddColumn("sex", ValueType::kString);
  s.AddColumn("year", ValueType::kInt64);
  s.AddColumn("population", ValueType::kInt64);
  Table t("employment", s);
  auto add = [&](const char* st, const char* sex, int year, int pop) {
    EXPECT_TRUE(t.AppendRow({Value(st), Value(sex), Value(year), Value(pop)}).ok());
  };
  add("CA", "M", 1990, 100);
  add("CA", "F", 1990, 110);
  add("CA", "M", 1991, 120);
  add("CA", "F", 1991, 130);
  add("NV", "M", 1990, 10);
  add("NV", "F", 1990, 12);
  add("NV", "M", 1991, 14);
  add("NV", "F", 1991, 16);
  return t;
}

TEST(TableTest, AppendRowChecksArity) {
  Table t = MakeEmployment();
  Status s = t.AppendRow({Value("CA")});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 8u);
}

TEST(TableTest, ColumnExtraction) {
  Table t = MakeEmployment();
  auto col = t.Column("population");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->size(), 8u);
  EXPECT_EQ((*col)[0], Value(100));
  EXPECT_FALSE(t.Column("nope").ok());
}

TEST(TableTest, SortBy) {
  Table t = MakeEmployment();
  ASSERT_TRUE(t.SortBy({"population"}).ok());
  EXPECT_EQ(t.at(0, 3), Value(10));
  EXPECT_EQ(t.at(7, 3), Value(130));
}

TEST(ExpressionTest, ColumnCompareOps) {
  Table t = MakeEmployment();
  auto ge = expr::ColumnCompare(t.schema(), "population", CompareOp::kGe,
                                Value(100));
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(Select(t, *ge).num_rows(), 4u);
  auto lt = expr::ColumnCompare(t.schema(), "population", CompareOp::kLt,
                                Value(14));
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(Select(t, *lt).num_rows(), 2u);
}

TEST(ExpressionTest, InBetweenAndOrNot) {
  Table t = MakeEmployment();
  auto in_state =
      expr::ColumnIn(t.schema(), "state", {Value("NV"), Value("OR")});
  ASSERT_TRUE(in_state.ok());
  EXPECT_EQ(Select(t, *in_state).num_rows(), 4u);

  auto between = expr::ColumnBetween(t.schema(), "population", Value(12),
                                     Value(100));
  ASSERT_TRUE(between.ok());
  EXPECT_EQ(Select(t, *between).num_rows(), 4u);  // 12,14,16,100

  auto is_m = expr::ColumnEq(t.schema(), "sex", Value("M"));
  ASSERT_TRUE(is_m.ok());
  auto both = expr::And({*in_state, *is_m});
  EXPECT_EQ(Select(t, both).num_rows(), 2u);
  auto either = expr::Or({*in_state, *is_m});
  EXPECT_EQ(Select(t, either).num_rows(), 6u);
  EXPECT_EQ(Select(t, expr::Not(*is_m)).num_rows(), 4u);
}

TEST(ExpressionTest, MissingColumnErrors) {
  Table t = MakeEmployment();
  EXPECT_FALSE(expr::ColumnEq(t.schema(), "ghost", Value(1)).ok());
}

TEST(OperatorsTest, ProjectKeepsOrderAndDuplicates) {
  Table t = MakeEmployment();
  auto p = Project(t, {"sex", "state"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_columns(), 2u);
  EXPECT_EQ(p->num_rows(), 8u);
  EXPECT_EQ(p->at(0, 0), Value("M"));
  EXPECT_EQ(p->at(0, 1), Value("CA"));
}

TEST(OperatorsTest, ProjectDistinct) {
  Table t = MakeEmployment();
  auto p = ProjectDistinct(t, {"state"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_rows(), 2u);
}

TEST(OperatorsTest, UnionAllRequiresSameSchema) {
  Table t = MakeEmployment();
  auto u = UnionAll(t, t);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->num_rows(), 16u);

  Schema other;
  other.AddColumn("x", ValueType::kInt64);
  Table o("o", other);
  EXPECT_FALSE(UnionAll(t, o).ok());
}

TEST(OperatorsTest, UnionDistinctDedups) {
  Table t = MakeEmployment();
  auto u = UnionDistinct(t, t);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->num_rows(), 8u);
}

TEST(OperatorsTest, Limit) {
  Table t = MakeEmployment();
  EXPECT_EQ(Limit(t, 3).num_rows(), 3u);
  EXPECT_EQ(Limit(t, 100).num_rows(), 8u);
}

TEST(AggregateTest, GroupBySums) {
  Table t = MakeEmployment();
  auto g = GroupBy(t, {"state"}, {{AggFn::kSum, "population", ""}});
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->num_rows(), 2u);
  // sorted by state: CA first
  EXPECT_EQ(g->at(0, 0), Value("CA"));
  EXPECT_EQ(g->at(0, 1), Value(460.0));
  EXPECT_EQ(g->at(1, 1), Value(52.0));
}

TEST(AggregateTest, MultipleAggs) {
  Table t = MakeEmployment();
  auto g = GroupBy(t, {"sex"},
                   {{AggFn::kSum, "population", "total"},
                    {AggFn::kAvg, "population", "mean"},
                    {AggFn::kMin, "population", "lo"},
                    {AggFn::kMax, "population", "hi"},
                    {AggFn::kCountAll, "", "n"}});
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->num_rows(), 2u);
  // F: 110+130+12+16 = 268
  EXPECT_EQ(g->at(0, 0), Value("F"));
  EXPECT_EQ(g->at(0, 1), Value(268.0));
  EXPECT_EQ(g->at(0, 2), Value(67.0));
  EXPECT_EQ(g->at(0, 3), Value(12.0));
  EXPECT_EQ(g->at(0, 4), Value(130.0));
  EXPECT_EQ(g->at(0, 5), Value(4));
}

TEST(AggregateTest, GlobalGroup) {
  Table t = MakeEmployment();
  auto g = GroupBy(t, {}, {{AggFn::kSum, "population", ""}});
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->num_rows(), 1u);
  EXPECT_EQ(g->at(0, 0), Value(512.0));
}

TEST(AggregateTest, CountSkipsNulls) {
  Schema s;
  s.AddColumn("k", ValueType::kString);
  s.AddColumn("v", ValueType::kInt64);
  Table t("t", s);
  ASSERT_TRUE(t.AppendRow({Value("a"), Value(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("a"), Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value("a"), Value(3)}).ok());
  auto g = GroupBy(t, {"k"},
                   {{AggFn::kCount, "v", "nv"}, {AggFn::kCountAll, "", "n"}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->at(0, 1), Value(2));
  EXPECT_EQ(g->at(0, 2), Value(3));
}

TEST(AggregateTest, VarianceAndStdDev) {
  Schema s;
  s.AddColumn("v", ValueType::kDouble);
  Table t("t", s);
  for (double d : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    ASSERT_TRUE(t.AppendRow({Value(d)}).ok());
  auto g = GroupBy(t, {}, {{AggFn::kVariance, "v", ""}, {AggFn::kStdDev, "v", ""}});
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->at(0, 0).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(g->at(0, 1).AsDouble(), 2.0);
}

TEST(AggregateTest, StateMergeEqualsDirect) {
  // Merging two disjoint halves equals aggregating the whole: the property
  // the cube builder and materialized views depend on.
  Table t = MakeEmployment();
  AggState whole, a, b;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    whole.Add(t.at(i, 3));
    (i < 4 ? a : b).Add(t.at(i, 3));
  }
  a.Merge(b);
  for (AggFn fn : {AggFn::kCount, AggFn::kSum, AggFn::kAvg, AggFn::kMin,
                   AggFn::kMax, AggFn::kVariance, AggFn::kStdDev}) {
    EXPECT_EQ(a.Finalize(fn), whole.Finalize(fn)) << AggFnName(fn);
  }
}

// ---------------------------------------------------------------------------
// RollupFinalized over several sources: the linear merge (sources strictly
// sorted on the grouping itself) against the hash path and GroupBy.

// Cells bit for bit: the same type, the same bits for doubles.
void ExpectSameCells(const Table& a, const Table& b, const std::string& what) {
  EXPECT_EQ(a.name(), b.name()) << what;
  ASSERT_TRUE(a.schema() == b.schema()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (size_t r = 0; r < a.num_rows(); ++r)
    for (size_t c = 0; c < a.num_columns(); ++c)
      ASSERT_TRUE(SameRepr()(a.at(r, c), b.at(r, c)))
          << what << " row " << r << " col " << c << ": "
          << a.at(r, c).ToString() << " vs " << b.at(r, c).ToString();
}

// (k1, k2, v) rows named "t", so every group-by of them is "t_by_...".
Table KV(const std::vector<std::tuple<const char*, int, Value>>& rows) {
  Schema s;
  s.AddColumn("k1", ValueType::kString);
  s.AddColumn("k2", ValueType::kInt64);
  s.AddColumn("v", ValueType::kDouble);
  Table t("t", s);
  for (const auto& [k1, k2, v] : rows)
    EXPECT_TRUE(t.AppendRow({Value(k1), Value(k2), v}).ok());
  return t;
}

Table Concat(const Table& a, const Table& b) {
  Table out(a.name(), a.schema());
  for (const Row& r : a.rows()) out.AppendRowUnchecked(r);
  for (const Row& r : b.rows()) out.AppendRowUnchecked(r);
  return out;
}

TEST(AggregateTest, RollupMergeEqualsHashPathAndGroupBy) {
  // Keys new on either side; a group whose values are all NULL on one
  // side (sum NULL there) and one NULL on both; min/max ties between 0.0
  // and -0.0 across the sides, in both orders.
  const Table first = KV({{"a", 1, Value(3.0)},
                          {"a", 2, Value(0.0)},
                          {"b", 1, Value::Null()},
                          {"b", 2, Value(-0.0)},
                          {"c", 7, Value(5.0)},
                          {"n", 1, Value::Null()},
                          {"a", 1, Value(-2.0)}});
  const Table second = KV({{"a", 2, Value(-0.0)},
                           {"b", 1, Value(4.0)},
                           {"b", 2, Value(0.0)},
                           {"d", 3, Value(6.0)},
                           {"n", 1, Value::Null()},
                           {"a", 0, Value(1.0)}});
  const std::vector<std::string> by = {"k1", "k2"};
  const std::vector<AggSpec> aggs = {{AggFn::kSum, "v", ""},
                                     {AggFn::kCount, "v", ""},
                                     {AggFn::kCountAll, "", ""},
                                     {AggFn::kMin, "v", ""},
                                     {AggFn::kMax, "v", ""}};
  Result<Table> a = GroupBy(first, by, aggs);
  Result<Table> b = GroupBy(second, by, aggs);
  Result<Table> direct = GroupBy(Concat(first, second), by, aggs);
  ASSERT_TRUE(a.ok() && b.ok() && direct.ok());

  Result<Table> merged = RollupFinalized({&*a, &*b}, by, aggs, by);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectSameCells(*merged, *direct, "merge vs GroupBy");

  // A shuffled source is no longer sorted: the hash path runs.
  Table shuffled(a->name(), a->schema());
  for (size_t r = a->num_rows(); r-- > 0;)
    shuffled.AppendRowUnchecked(a->row(r));
  Result<Table> hashed = RollupFinalized({&shuffled, &*b}, by, aggs, by);
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  ExpectSameCells(*merged, *hashed, "merge vs hash path");
  // So does one source holding both sides' groups.
  const Table both = Concat(*a, *b);
  Result<Table> one = RollupFinalized({&both}, by, aggs, by);
  ASSERT_TRUE(one.ok());
  ExpectSameCells(*merged, *one, "merge vs one concatenated source");
  // The other source order keeps the second side's spelling of a tie.
  Result<Table> swapped = RollupFinalized({&*b, &*a}, by, aggs, by);
  Result<Table> swapped_hash = RollupFinalized({&*b, &shuffled}, by, aggs, by);
  ASSERT_TRUE(swapped.ok() && swapped_hash.ok());
  ExpectSameCells(*swapped, *swapped_hash, "swapped merge vs hash path");

  // Counts stay int64, and the all-NULL group's sum, min and max stay NULL.
  for (size_t r = 0; r < merged->num_rows(); ++r) {
    EXPECT_EQ(merged->at(r, 3).type(), ValueType::kInt64);
    EXPECT_EQ(merged->at(r, 4).type(), ValueType::kInt64);
    if (merged->at(r, 0) == Value("n")) {
      EXPECT_TRUE(merged->at(r, 2).is_null());
      EXPECT_TRUE(merged->at(r, 5).is_null());
      EXPECT_EQ(merged->at(r, 3).AsInt64(), 0);
      EXPECT_EQ(merged->at(r, 4).AsInt64(), 2);
    }
  }

  // Onto a subset of the grouping the hash path runs, and agrees with
  // GroupBy too.
  Result<Table> coarse = RollupFinalized({&*a, &*b}, by, aggs, {"k1"});
  Result<Table> coarse_direct = GroupBy(Concat(first, second), {"k1"}, aggs);
  ASSERT_TRUE(coarse.ok() && coarse_direct.ok());
  ExpectSameCells(*coarse, *coarse_direct, "subset roll-up vs GroupBy");
}

// Empty BY: each source is one global row (or none), merged into one.
TEST(AggregateTest, RollupMergeOfGlobalRows) {
  const Table first = KV({{"a", 1, Value(1.5)}, {"b", 2, Value(2.0)}});
  const Table second = KV({{"c", 3, Value(0.25)}});
  const Table none = KV({});
  const std::vector<AggSpec> aggs = {{AggFn::kSum, "v", ""},
                                     {AggFn::kCountAll, "", ""}};
  Result<Table> a = GroupBy(first, {}, aggs);
  Result<Table> b = GroupBy(second, {}, aggs);
  Result<Table> c = GroupBy(none, {}, aggs);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  Result<Table> merged = RollupFinalized({&*a, &*c, &*b}, {}, aggs, {});
  Result<Table> direct = GroupBy(Concat(first, second), {}, aggs);
  ASSERT_TRUE(merged.ok() && direct.ok());
  ExpectSameCells(*merged, *direct, "global rows");
  EXPECT_FALSE(RollupFinalized({}, {}, aggs, {}).ok());
  EXPECT_FALSE(
      RollupFinalized({&*a}, {}, {{AggFn::kAvg, "v", ""}}, {}).ok());
}

TEST(JoinTest, HashJoinInner) {
  Schema fs;
  fs.AddColumn("store_id", ValueType::kInt64);
  fs.AddColumn("amount", ValueType::kInt64);
  Table fact("sales", fs);
  ASSERT_TRUE(fact.AppendRow({Value(1), Value(10)}).ok());
  ASSERT_TRUE(fact.AppendRow({Value(2), Value(20)}).ok());
  ASSERT_TRUE(fact.AppendRow({Value(1), Value(30)}).ok());
  ASSERT_TRUE(fact.AppendRow({Value(9), Value(99)}).ok());  // dangling

  Schema ds;
  ds.AddColumn("id", ValueType::kInt64);
  ds.AddColumn("city", ValueType::kString);
  Table dim("store", ds);
  ASSERT_TRUE(dim.AppendRow({Value(1), Value("sf")}).ok());
  ASSERT_TRUE(dim.AppendRow({Value(2), Value("la")}).ok());

  auto j = HashJoin(fact, "store_id", dim, "id");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 3u);  // dangling fact row dropped
  EXPECT_EQ(j->num_columns(), 3u);
  ASSERT_TRUE(j->schema().Contains("city"));
}

TEST(JoinTest, LeftOuterKeepsDanglingRows) {
  Schema fs;
  fs.AddColumn("store_id", ValueType::kInt64);
  fs.AddColumn("amount", ValueType::kInt64);
  Table fact("sales", fs);
  ASSERT_TRUE(fact.AppendRow({Value(1), Value(10)}).ok());
  ASSERT_TRUE(fact.AppendRow({Value(9), Value(99)}).ok());  // dangling

  Schema ds;
  ds.AddColumn("id", ValueType::kInt64);
  ds.AddColumn("city", ValueType::kString);
  Table dim("store", ds);
  ASSERT_TRUE(dim.AppendRow({Value(1), Value("sf")}).ok());

  auto j = LeftOuterHashJoin(fact, "store_id", dim, "id");
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j->num_rows(), 2u);
  EXPECT_EQ(j->at(0, 2), Value("sf"));
  EXPECT_TRUE(j->at(1, 2).is_null());  // NULL-padded right side
  EXPECT_EQ(j->at(1, 1), Value(99));
  // Inner join drops the dangling row; outer keeps everything on the left.
  auto inner = HashJoin(fact, "store_id", dim, "id");
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner->num_rows(), 1u);
}

TEST(JoinTest, NameClashPrefixed) {
  Schema fs;
  fs.AddColumn("k", ValueType::kInt64);
  fs.AddColumn("name", ValueType::kString);
  Table left("l", fs);
  ASSERT_TRUE(left.AppendRow({Value(1), Value("left")}).ok());
  Schema ds;
  ds.AddColumn("k", ValueType::kInt64);
  ds.AddColumn("name", ValueType::kString);
  Table right("r", ds);
  ASSERT_TRUE(right.AppendRow({Value(1), Value("right")}).ok());
  auto j = HashJoin(left, "k", right, "k");
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->schema().Contains("r.name"));
}

StarSchema MakeHospitalStar() {
  // The paper's Figure 11: hospital / procedure / time dimensions.
  Schema fs;
  fs.AddColumn("hospital_id", ValueType::kInt64);
  fs.AddColumn("procedure_id", ValueType::kInt64);
  fs.AddColumn("time_id", ValueType::kInt64);
  fs.AddColumn("number", ValueType::kInt64);
  Table fact("fact", fs);
  // hospital 1 (sf, CA), 2 (la, CA), 3 (reno, NV)
  // procedure 1 (xray, radiology), 2 (mri, radiology), 3 (cast, ortho)
  int k = 0;
  for (int h = 1; h <= 3; ++h)
    for (int p = 1; p <= 3; ++p)
      for (int t = 1; t <= 2; ++t)
        EXPECT_TRUE(
            fact.AppendRow({Value(h), Value(p), Value(t), Value(++k)}).ok());

  StarSchema star(std::move(fact));

  Schema hs;
  hs.AddColumn("hospital_id", ValueType::kInt64);
  hs.AddColumn("hname", ValueType::kString);
  hs.AddColumn("city", ValueType::kString);
  hs.AddColumn("hstate", ValueType::kString);
  Table hosp("hospital", hs);
  EXPECT_TRUE(hosp.AppendRow({Value(1), Value("h1"), Value("sf"), Value("CA")}).ok());
  EXPECT_TRUE(hosp.AppendRow({Value(2), Value("h2"), Value("la"), Value("CA")}).ok());
  EXPECT_TRUE(hosp.AppendRow({Value(3), Value("h3"), Value("reno"), Value("NV")}).ok());
  EXPECT_TRUE(star.AddDimension({"hospital", std::move(hosp), "hospital_id",
                                 "hospital_id",
                                 {"city", "hstate"}})
                  .ok());

  Schema ps;
  ps.AddColumn("procedure_id", ValueType::kInt64);
  ps.AddColumn("pname", ValueType::kString);
  ps.AddColumn("ptype", ValueType::kString);
  Table proc("procedure", ps);
  EXPECT_TRUE(proc.AppendRow({Value(1), Value("xray"), Value("radiology")}).ok());
  EXPECT_TRUE(proc.AppendRow({Value(2), Value("mri"), Value("radiology")}).ok());
  EXPECT_TRUE(proc.AppendRow({Value(3), Value("cast"), Value("ortho")}).ok());
  EXPECT_TRUE(star.AddDimension({"procedure", std::move(proc), "procedure_id",
                                 "procedure_id",
                                 {"ptype"}})
                  .ok());
  return star;
}

TEST(StarSchemaTest, RejectsBadDimension) {
  StarSchema star = MakeHospitalStar();
  Schema ds;
  ds.AddColumn("id", ValueType::kInt64);
  Table d("d", ds);
  // fk not in fact
  EXPECT_FALSE(star.AddDimension({"bogus", d, "id", "ghost_fk", {}}).ok());
  // key not in dimension table
  EXPECT_FALSE(star.AddDimension({"bogus", d, "ghost", "hospital_id", {}}).ok());
}

TEST(StarSchemaTest, OwnerResolution) {
  StarSchema star = MakeHospitalStar();
  auto owner = star.OwnerOf("city");
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(*owner, 0);
  owner = star.OwnerOf("number");
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(*owner, -1);
  EXPECT_FALSE(star.OwnerOf("ghost").ok());
}

TEST(StarSchemaTest, AggregateByDimensionAttribute) {
  StarSchema star = MakeHospitalStar();
  auto g = star.Aggregate({"hstate"}, {{AggFn::kSum, "number", "total"}});
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->num_rows(), 2u);
  // Sum over all 18 fact rows = 171; NV owns hospital 3 => rows 13..18 = 93.
  EXPECT_EQ(g->at(0, 0), Value("CA"));
  EXPECT_EQ(g->at(0, 1), Value(78.0));
  EXPECT_EQ(g->at(1, 0), Value("NV"));
  EXPECT_EQ(g->at(1, 1), Value(93.0));
}

TEST(StarSchemaTest, GroupByFactOwnedAttribute) {
  // Grouping by a fact-table column requires no join at all.
  StarSchema star = MakeHospitalStar();
  auto g = star.Aggregate({"time_id"}, {{AggFn::kSum, "number", "total"}});
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_rows(), 2u);
  double t = 0;
  for (const Row& r : g->rows()) t += r[1].AsDouble();
  EXPECT_DOUBLE_EQ(t, 171.0);  // sum 1..18
}

TEST(StarSchemaTest, DenormalizeJoinsOnlyNeededDimensions) {
  StarSchema star = MakeHospitalStar();
  auto d = star.Denormalize({"city"});
  ASSERT_TRUE(d.ok());
  // Only the hospital dimension joined: its columns appear, procedure's not.
  EXPECT_TRUE(d->schema().Contains("city"));
  EXPECT_FALSE(d->schema().Contains("ptype"));
  EXPECT_FALSE(star.Denormalize({"ghost"}).ok());
}

TEST(StarSchemaTest, AggregateWithFilterAcrossTwoDimensions) {
  StarSchema star = MakeHospitalStar();
  auto g = star.Aggregate({"ptype"}, {{AggFn::kCountAll, "", "n"}},
                          {{"hstate", Value("CA")}});
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->num_rows(), 2u);
  EXPECT_EQ(g->at(0, 0), Value("ortho"));
  EXPECT_EQ(g->at(0, 1), Value(4));  // 2 hospitals x 1 proc x 2 times
  EXPECT_EQ(g->at(1, 0), Value("radiology"));
  EXPECT_EQ(g->at(1, 1), Value(8));
}

}  // namespace
}  // namespace statcube
