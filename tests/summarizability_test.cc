// Tests for the summarizability checker (paper §3.3.2, [LS97]): each
// constructed violation is flagged, and only those.

#include "statcube/core/summarizability.h"

#include <gtest/gtest.h>

namespace statcube {
namespace {

// HMO-style object: physician counts by specialty (non-strict), procedure
// costs by disease, populations over time.
StatisticalObject MakeHmo() {
  StatisticalObject obj("hmo");

  Dimension disease("disease");
  ClassificationHierarchy dh("disease_cat", {"disease", "disease_category"});
  EXPECT_TRUE(dh.Link(0, Value("lung cancer"), Value("cancer")).ok());
  EXPECT_TRUE(dh.Link(0, Value("lung cancer"), Value("respiratory")).ok());
  EXPECT_TRUE(dh.Link(0, Value("leukemia"), Value("cancer")).ok());
  EXPECT_TRUE(dh.Link(0, Value("asthma"), Value("respiratory")).ok());
  dh.DeclareComplete(0, "cost");
  disease.AddHierarchy(dh);
  EXPECT_TRUE(obj.AddDimension(disease).ok());

  Dimension region("region", DimensionKind::kSpatial);
  ClassificationHierarchy rh("geo", {"city", "state"});
  EXPECT_TRUE(rh.Link(0, Value("sf"), Value("CA")).ok());
  EXPECT_TRUE(rh.Link(0, Value("la"), Value("CA")).ok());
  EXPECT_TRUE(rh.Link(0, Value("reno"), Value("NV")).ok());
  region.AddHierarchy(rh);
  EXPECT_TRUE(obj.AddDimension(region).ok());

  Dimension month("month", DimensionKind::kTemporal);
  EXPECT_TRUE(obj.AddDimension(month).ok());

  EXPECT_TRUE(obj.AddMeasure({"cost", "dollars", MeasureType::kFlow,
                              AggFn::kSum, ""}).ok());
  EXPECT_TRUE(obj.AddMeasure({"population", "", MeasureType::kStock,
                              AggFn::kSum, ""}).ok());
  EXPECT_TRUE(obj.AddMeasure({"avg_income", "dollars",
                              MeasureType::kValuePerUnit, AggFn::kAvg, ""})
                  .ok());
  return obj;
}

TEST(SummarizabilityTest, NonStrictStepFlagged) {
  auto obj = MakeHmo();
  auto rep = CheckRollup(obj, "disease", "disease_cat", 0, 1, "cost",
                         AggFn::kSum);
  ASSERT_TRUE(rep.ok());
  EXPECT_FALSE(rep->summarizable);
  ASSERT_FALSE(rep->violations.empty());
  EXPECT_NE(rep->violations[0].find("non-strict"), std::string::npos);
  EXPECT_NE(rep->violations[0].find("lung cancer"), std::string::npos);
  EXPECT_EQ(rep->ToStatus().code(), StatusCode::kNotSummarizable);
}

TEST(SummarizabilityTest, MinMaxTolerateNonStrict) {
  auto obj = MakeHmo();
  auto rep =
      CheckRollup(obj, "disease", "disease_cat", 0, 1, "cost", AggFn::kMax);
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->summarizable) << rep->ToStatus().ToString();
}

TEST(SummarizabilityTest, UndeclaredCompletenessFlagged) {
  auto obj = MakeHmo();
  // The geo step never declared complete for population: cities do not
  // exhaust a state's population.
  auto rep = CheckRollup(obj, "region", "geo", 0, 1, "population", AggFn::kSum);
  ASSERT_TRUE(rep.ok());
  EXPECT_FALSE(rep->summarizable);
  bool mentions_complete = false;
  for (const auto& v : rep->violations)
    if (v.find("complete") != std::string::npos) mentions_complete = true;
  EXPECT_TRUE(mentions_complete);
}

TEST(SummarizabilityTest, DeclaredCompletenessClearsViolation) {
  auto obj = MakeHmo();
  auto* region = *obj.MutableDimensionNamed("region");
  region->mutable_hierarchies()[0].DeclareComplete(0, "cost");
  auto rep = CheckRollup(obj, "region", "geo", 0, 1, "cost", AggFn::kSum);
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->summarizable) << rep->ToStatus().ToString();
}

TEST(SummarizabilityTest, NonCoveringStepFlagged) {
  auto obj = MakeHmo();
  auto* region = *obj.MutableDimensionNamed("region");
  auto& geo = region->mutable_hierarchies()[0];
  geo.DeclareComplete(0, "cost");
  ASSERT_TRUE(geo.AddValue(0, Value("unmapped_city")).ok());
  auto rep = CheckRollup(obj, "region", "geo", 0, 1, "cost", AggFn::kSum);
  ASSERT_TRUE(rep.ok());
  EXPECT_FALSE(rep->summarizable);
  bool mentions_covering = false;
  for (const auto& v : rep->violations)
    if (v.find("covering") != std::string::npos) mentions_covering = true;
  EXPECT_TRUE(mentions_covering);
}

TEST(SummarizabilityTest, StockOverTimeFlagged) {
  auto obj = MakeHmo();
  // "it is meaningless to add populations over time"
  auto rep = CheckProjectOut(obj, "month", "population", AggFn::kSum);
  ASSERT_TRUE(rep.ok());
  EXPECT_FALSE(rep->summarizable);
  EXPECT_NE(rep->violations[0].find("stock"), std::string::npos);
  // ... but averaging over time is fine.
  rep = CheckProjectOut(obj, "month", "population", AggFn::kAvg);
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->summarizable);
  // ... and adding accident-like flows over time is fine.
  rep = CheckProjectOut(obj, "month", "cost", AggFn::kSum);
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->summarizable);
}

TEST(SummarizabilityTest, StockOverNonTemporalOk) {
  auto obj = MakeHmo();
  auto rep = CheckProjectOut(obj, "region", "population", AggFn::kSum);
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->summarizable);
}

TEST(SummarizabilityTest, ValuePerUnitNeverSums) {
  auto obj = MakeHmo();
  for (const char* dim : {"region", "month", "disease"}) {
    auto rep = CheckProjectOut(obj, dim, "avg_income", AggFn::kSum);
    ASSERT_TRUE(rep.ok());
    EXPECT_FALSE(rep->summarizable) << dim;
  }
  auto rep = CheckProjectOut(obj, "region", "avg_income", AggFn::kAvg);
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->summarizable);
}

TEST(SummarizabilityTest, MultipleViolationsAllReported) {
  auto obj = MakeHmo();
  // Non-strict AND not declared complete for population AND stock measure
  // (but disease is not temporal, so type is OK for sum).
  auto rep = CheckRollup(obj, "disease", "disease_cat", 0, 1, "population",
                         AggFn::kSum);
  ASSERT_TRUE(rep.ok());
  EXPECT_FALSE(rep->summarizable);
  EXPECT_GE(rep->violations.size(), 2u);
}

TEST(SummarizabilityTest, ArgumentValidation) {
  auto obj = MakeHmo();
  EXPECT_FALSE(CheckRollup(obj, "ghost", "geo", 0, 1, "cost", AggFn::kSum).ok());
  EXPECT_FALSE(
      CheckRollup(obj, "region", "ghost", 0, 1, "cost", AggFn::kSum).ok());
  EXPECT_FALSE(
      CheckRollup(obj, "region", "geo", 0, 1, "ghost", AggFn::kSum).ok());
  EXPECT_FALSE(
      CheckRollup(obj, "region", "geo", 1, 1, "cost", AggFn::kSum).ok());
  EXPECT_FALSE(
      CheckRollup(obj, "region", "geo", 0, 5, "cost", AggFn::kSum).ok());
}

}  // namespace
}  // namespace statcube
