// Tests for the S-operators / OLAP operators and their Figure 14
// correspondences, including the double-counting behaviour on non-strict
// hierarchies that summarizability enforcement prevents.

#include "statcube/olap/operators.h"

#include <gtest/gtest.h>

namespace statcube {
namespace {

// Employment by sex x year x profession (profession classified).
StatisticalObject MakeEmployment() {
  StatisticalObject obj("employment");
  EXPECT_TRUE(obj.AddDimension(Dimension("sex")).ok());
  EXPECT_TRUE(
      obj.AddDimension(Dimension("year", DimensionKind::kTemporal)).ok());
  Dimension prof("profession");
  ClassificationHierarchy h("by_class", {"profession", "professional_class"});
  EXPECT_TRUE(h.Link(0, Value("chemical eng"), Value("engineer")).ok());
  EXPECT_TRUE(h.Link(0, Value("civil eng"), Value("engineer")).ok());
  EXPECT_TRUE(h.Link(0, Value("junior sec"), Value("secretary")).ok());
  h.DeclareComplete(0, "employment");
  prof.AddHierarchy(h);
  EXPECT_TRUE(obj.AddDimension(prof).ok());
  EXPECT_TRUE(obj.AddMeasure(
                     {"employment", "", MeasureType::kStock, AggFn::kSum, ""})
                  .ok());
  int64_t v = 0;
  for (const char* sex : {"M", "F"})
    for (int year : {1990, 1991})
      for (const char* p : {"chemical eng", "civil eng", "junior sec"})
        EXPECT_TRUE(
            obj.AddCell({Value(sex), Value(year), Value(p)}, {Value(v += 10)})
                .ok());
  return obj;  // cells 10..120, total 780
}

double TotalMeasure(const StatisticalObject& obj, const std::string& m) {
  size_t idx = *obj.data().schema().IndexOf(m);
  double t = 0;
  for (const Row& r : obj.data().rows()) t += r[idx].AsDouble();
  return t;
}

TEST(SSelectTest, KeepsOnlySelectedValues) {
  auto obj = MakeEmployment();
  auto sel = SSelect(obj, "sex", {Value("F")});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->data().num_rows(), 6u);
  EXPECT_EQ(sel->dimensions().size(), 3u);
  // Hierarchies carried over.
  auto prof = sel->DimensionNamed("profession");
  ASSERT_TRUE(prof.ok());
  EXPECT_EQ((*prof)->hierarchies().size(), 1u);
  // F cells are 70..120 -> total 570.
  EXPECT_DOUBLE_EQ(TotalMeasure(*sel, "employment"), 570.0);
  EXPECT_FALSE(SSelect(obj, "ghost", {Value(1)}).ok());
}

TEST(DiceTest, MultiDimensionSelection) {
  auto obj = MakeEmployment();
  auto d = Dice(obj, {{"sex", {Value("M")}},
                      {"profession", {Value("civil eng"), Value("junior sec")}}});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->data().num_rows(), 4u);
}

TEST(SProjectTest, RemovesDimensionAndAggregates) {
  auto obj = MakeEmployment();
  auto p = SProject(obj, "sex");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->dimensions().size(), 2u);
  EXPECT_EQ(p->data().num_rows(), 6u);  // 2 years x 3 professions
  EXPECT_DOUBLE_EQ(TotalMeasure(*p, "employment"), 780.0);
}

TEST(SProjectTest, EnforcementBlocksStockOverTime) {
  auto obj = MakeEmployment();
  // Summing a stock measure (employment headcount) over years is
  // meaningless; enforcement refuses.
  auto p = SProject(obj, "year");
  EXPECT_EQ(p.status().code(), StatusCode::kNotSummarizable);
  // Explicitly overriding executes anyway.
  auto forced = SProject(obj, "year", {.enforce_summarizability = false});
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(forced->dimensions().size(), 2u);
}

TEST(SliceAtTest, FixesSingleValue) {
  auto obj = MakeEmployment();
  auto s = SliceAt(obj, "year", Value(1990));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->dimensions().size(), 3u);  // dimension kept as singleton
  EXPECT_EQ(s->data().num_rows(), 6u);
  auto year = s->DimensionNamed("year");
  ASSERT_TRUE(year.ok());
  EXPECT_EQ((*year)->cardinality(), 1u);
}

TEST(SAggregateTest, RollsUpStrictHierarchy) {
  auto obj = MakeEmployment();
  auto r = SAggregate(obj, "profession", "by_class", 1);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Dimension renamed to the level attribute.
  auto dim = r->DimensionNamed("professional_class");
  ASSERT_TRUE(dim.ok());
  EXPECT_EQ((*dim)->cardinality(), 2u);  // engineer, secretary
  // 2 sexes x 2 years x 2 classes = 8 cells; total preserved.
  EXPECT_EQ(r->data().num_rows(), 8u);
  EXPECT_DOUBLE_EQ(TotalMeasure(*r, "employment"), 780.0);
}

TEST(SAggregateTest, RollUpIsOneLevel) {
  auto obj = MakeEmployment();
  auto r1 = RollUp(obj, "profession", "by_class");
  auto r2 = SAggregate(obj, "profession", "by_class", 1);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->data().num_rows(), r2->data().num_rows());
}

TEST(SAggregateTest, NonStrictDoubleCountsWhenForced) {
  // The §3.3.2 example: physicians with multiple specialties counted
  // multiple times when summing over specialty groups.
  StatisticalObject obj("physicians");
  Dimension spec("specialty");
  ClassificationHierarchy h("spec_group", {"specialty", "group"});
  EXPECT_TRUE(h.Link(0, Value("oncology"), Value("internal")).ok());
  EXPECT_TRUE(h.Link(0, Value("oncology"), Value("surgery")).ok());  // both!
  EXPECT_TRUE(h.Link(0, Value("cardiology"), Value("internal")).ok());
  h.DeclareComplete(0, "physicians");
  spec.AddHierarchy(h);
  ASSERT_TRUE(obj.AddDimension(spec).ok());
  ASSERT_TRUE(obj.AddMeasure(
                   {"physicians", "", MeasureType::kFlow, AggFn::kSum, ""})
                  .ok());
  ASSERT_TRUE(obj.AddCell({Value("oncology")}, {Value(10)}).ok());
  ASSERT_TRUE(obj.AddCell({Value("cardiology")}, {Value(5)}).ok());

  // Enforcement catches it.
  auto refused = SAggregate(obj, "specialty", "spec_group", 1);
  EXPECT_EQ(refused.status().code(), StatusCode::kNotSummarizable);

  // Forcing reproduces the double count: 10 oncologists appear under both
  // groups; the "total over all groups" would be 25, not 15.
  auto forced = SAggregate(obj, "specialty", "spec_group", 1,
                           {.enforce_summarizability = false});
  ASSERT_TRUE(forced.ok());
  EXPECT_DOUBLE_EQ(TotalMeasure(*forced, "physicians"), 25.0);
}

TEST(SAggregateTest, MultiLevelRollup) {
  StatisticalObject obj("sales");
  Dimension day("day", DimensionKind::kTemporal);
  ClassificationHierarchy cal("calendar", {"day", "month", "year"});
  for (int m = 1; m <= 2; ++m) {
    for (int d = 1; d <= 2; ++d) {
      std::string ds = "m" + std::to_string(m) + "d" + std::to_string(d);
      EXPECT_TRUE(cal.Link(0, Value(ds), Value("m" + std::to_string(m))).ok());
    }
    EXPECT_TRUE(cal.Link(1, Value("m" + std::to_string(m)), Value("y1")).ok());
  }
  cal.DeclareComplete(0, "qty");
  cal.DeclareComplete(1, "qty");
  day.AddHierarchy(cal);
  ASSERT_TRUE(obj.AddDimension(day).ok());
  ASSERT_TRUE(
      obj.AddMeasure({"qty", "dollars", MeasureType::kFlow, AggFn::kSum, ""})
          .ok());
  int v = 0;
  for (const char* d : {"m1d1", "m1d2", "m2d1", "m2d2"})
    ASSERT_TRUE(obj.AddCell({Value(d)}, {Value(++v)}).ok());

  auto to_year = SAggregate(obj, "day", "calendar", 2);
  ASSERT_TRUE(to_year.ok()) << to_year.status().ToString();
  EXPECT_EQ(to_year->data().num_rows(), 1u);
  EXPECT_DOUBLE_EQ(TotalMeasure(*to_year, "qty"), 10.0);
  // The truncated hierarchy (month level upward) is gone at year level, but
  // rolling to month retains month -> year.
  auto to_month = SAggregate(obj, "day", "calendar", 1);
  ASSERT_TRUE(to_month.ok());
  auto dim = to_month->DimensionNamed("month");
  ASSERT_TRUE(dim.ok());
  ASSERT_EQ((*dim)->hierarchies().size(), 1u);
  EXPECT_EQ((*dim)->hierarchies()[0].num_levels(), 2u);
  // Roll the rolled-up object further: month -> year.
  auto again = SAggregate(*to_month, "month", "calendar", 1,
                          {.enforce_summarizability = false});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_DOUBLE_EQ(TotalMeasure(*again, "qty"), 10.0);
}

TEST(DrillDownTest, RederivesFinerViewFromBase) {
  auto obj = MakeEmployment();
  auto coarse = SAggregate(obj, "profession", "by_class", 1);
  ASSERT_TRUE(coarse.ok());
  // Drill back down using the base.
  auto fine = DrillDown(obj, "profession", "by_class", 0);
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(fine->data().num_rows(), obj.data().num_rows());
}

TEST(SUnionTest, MergesDisjointObjects) {
  // Two "pages": California and Nevada (the Figure 1(iii) observation).
  StatisticalObject ca("ca"), nv("nv");
  for (auto* o : {&ca, &nv}) {
    ASSERT_TRUE(o->AddDimension(Dimension("state")).ok());
    ASSERT_TRUE(o->AddDimension(Dimension("sex")).ok());
    ASSERT_TRUE(o->AddMeasure(
                     {"pop", "", MeasureType::kStock, AggFn::kSum, ""})
                    .ok());
  }
  ASSERT_TRUE(ca.AddCell({Value("CA"), Value("M")}, {Value(10)}).ok());
  ASSERT_TRUE(ca.AddCell({Value("CA"), Value("F")}, {Value(11)}).ok());
  ASSERT_TRUE(nv.AddCell({Value("NV"), Value("M")}, {Value(3)}).ok());
  auto u = SUnion(ca, nv);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->data().num_rows(), 3u);
  EXPECT_DOUBLE_EQ(TotalMeasure(*u, "pop"), 24.0);
}

TEST(SUnionTest, OverlappingCellsAggregate) {
  StatisticalObject a("a"), b("b");
  for (auto* o : {&a, &b}) {
    ASSERT_TRUE(o->AddDimension(Dimension("k")).ok());
    ASSERT_TRUE(
        o->AddMeasure({"n", "", MeasureType::kFlow, AggFn::kSum, ""}).ok());
  }
  ASSERT_TRUE(a.AddCell({Value("x")}, {Value(5)}).ok());
  ASSERT_TRUE(b.AddCell({Value("x")}, {Value(7)}).ok());
  auto u = SUnion(a, b);
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->data().num_rows(), 1u);
  EXPECT_DOUBLE_EQ(TotalMeasure(*u, "n"), 12.0);
}

TEST(SUnionTest, StructuralMismatchRejected) {
  StatisticalObject a("a"), b("b");
  ASSERT_TRUE(a.AddDimension(Dimension("k")).ok());
  ASSERT_TRUE(b.AddDimension(Dimension("different")).ok());
  ASSERT_TRUE(
      a.AddMeasure({"n", "", MeasureType::kFlow, AggFn::kSum, ""}).ok());
  ASSERT_TRUE(
      b.AddMeasure({"n", "", MeasureType::kFlow, AggFn::kSum, ""}).ok());
  EXPECT_FALSE(SUnion(a, b).ok());
}

TEST(SDisaggregateTest, ProxySplitsAdditiveMeasures) {
  // The §5.3 example: population known per state, disaggregate to counties
  // by area proxy.
  StatisticalObject obj("pop");
  ASSERT_TRUE(
      obj.AddDimension(Dimension("state", DimensionKind::kSpatial)).ok());
  ASSERT_TRUE(obj.AddDimension(Dimension("year", DimensionKind::kTemporal)).ok());
  ASSERT_TRUE(obj.AddMeasure(
                   {"population", "", MeasureType::kStock, AggFn::kSum, ""})
                  .ok());
  ASSERT_TRUE(obj.AddMeasure({"avg_income", "dollars",
                              MeasureType::kValuePerUnit, AggFn::kAvg, ""})
                  .ok());
  ASSERT_TRUE(
      obj.AddCell({Value("CA"), Value(1990)}, {Value(1000), Value(50.0)}).ok());
  ASSERT_TRUE(
      obj.AddCell({Value("NV"), Value(1990)}, {Value(100), Value(40.0)}).ok());

  std::vector<ProxyChild> counties = {{Value("ca1"), Value("CA"), 1.0},
                                      {Value("ca2"), Value("CA"), 3.0},
                                      {Value("nv1"), Value("NV"), 2.0}};
  auto fine = SDisaggregateByProxy(obj, "state", "county", counties);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_EQ(fine->data().num_rows(), 3u);
  auto dim = fine->DimensionNamed("county");
  ASSERT_TRUE(dim.ok());
  EXPECT_EQ((*dim)->kind(), DimensionKind::kSpatial);

  size_t pi = *fine->data().schema().IndexOf("population");
  size_t ai = *fine->data().schema().IndexOf("avg_income");
  double total = 0;
  for (const Row& r : fine->data().rows()) {
    total += r[pi].AsDouble();
    if (r[0] == Value("ca1")) {
      EXPECT_DOUBLE_EQ(r[pi].AsDouble(), 250.0);  // 1000 * 1/4
      EXPECT_DOUBLE_EQ(r[ai].AsDouble(), 50.0);   // rates copy, not split
    }
    if (r[0] == Value("nv1")) {
      EXPECT_DOUBLE_EQ(r[pi].AsDouble(), 100.0);
    }
  }
  EXPECT_DOUBLE_EQ(total, 1100.0);  // additive totals conserved

  // Missing parent mapping or degenerate weights error out.
  EXPECT_FALSE(
      SDisaggregateByProxy(obj, "state", "county",
                           {{Value("x"), Value("CA"), 1.0}})
          .ok());  // NV unmapped
  EXPECT_FALSE(SDisaggregateByProxy(obj, "state", "county",
                                    {{Value("x"), Value("CA"), 0.0},
                                     {Value("y"), Value("NV"), 1.0}})
                   .ok());
}

TEST(WeightedAvgTest, AvgMeasureUsesWeights) {
  // avg_income with a population weight: merging cells must form the
  // weighted mean, not the mean of means.
  StatisticalObject obj("income");
  ASSERT_TRUE(obj.AddDimension(Dimension("county")).ok());
  ASSERT_TRUE(obj.AddMeasure({"avg_income", "dollars",
                              MeasureType::kValuePerUnit, AggFn::kAvg, "pop"})
                  .ok());
  ASSERT_TRUE(
      obj.AddMeasure({"pop", "", MeasureType::kStock, AggFn::kSum, ""}).ok());
  // county A: 100 people at 10; county B: 300 people at 30.
  ASSERT_TRUE(obj.AddCell({Value("A")}, {Value(10.0), Value(100)}).ok());
  ASSERT_TRUE(obj.AddCell({Value("B")}, {Value(30.0), Value(300)}).ok());

  auto merged = SProject(obj, "county", {.enforce_summarizability = false});
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->data().num_rows(), 1u);
  size_t ai = *merged->data().schema().IndexOf("avg_income");
  size_t pi = *merged->data().schema().IndexOf("pop");
  // Weighted: (10*100 + 30*300) / 400 = 25, not (10+30)/2 = 20.
  EXPECT_DOUBLE_EQ(merged->data().at(0, ai).AsDouble(), 25.0);
  EXPECT_DOUBLE_EQ(merged->data().at(0, pi).AsDouble(), 400.0);
}

}  // namespace
}  // namespace statcube
