// Tests for the 2-D statistical table renderer (Figures 1 and 9).

#include "statcube/core/table_render.h"

#include <gtest/gtest.h>

namespace statcube {
namespace {

// A small version of the paper's Figure 1: employment by sex by year by
// profession, with professional class above profession.
StatisticalObject MakeEmployment() {
  StatisticalObject obj("employment_in_california");
  EXPECT_TRUE(obj.AddDimension(Dimension("sex")).ok());
  EXPECT_TRUE(
      obj.AddDimension(Dimension("year", DimensionKind::kTemporal)).ok());
  Dimension prof("profession");
  ClassificationHierarchy h("by_class", {"profession", "professional_class"});
  EXPECT_TRUE(h.Link(0, Value("chemical eng"), Value("engineer")).ok());
  EXPECT_TRUE(h.Link(0, Value("civil eng"), Value("engineer")).ok());
  EXPECT_TRUE(h.Link(0, Value("junior sec"), Value("secretary")).ok());
  prof.AddHierarchy(h);
  EXPECT_TRUE(obj.AddDimension(prof).ok());
  EXPECT_TRUE(obj.AddMeasure(
                      {"employment", "", MeasureType::kStock, AggFn::kSum, ""})
                  .ok());

  int64_t v = 100;
  for (const char* sex : {"M", "F"})
    for (int year : {1991, 1992})
      for (const char* p : {"chemical eng", "civil eng", "junior sec"})
        EXPECT_TRUE(
            obj.AddCell({Value(sex), Value(year), Value(p)}, {Value(v += 10)})
                .ok());
  return obj;
}

TEST(TableRenderTest, BasicLayout) {
  auto obj = MakeEmployment();
  Render2DOptions opt;
  opt.row_dims = {"sex", "year"};
  opt.col_dims = {"profession"};
  opt.measure = "employment";
  auto out = Render2D(obj, opt);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // All professions appear as columns; sexes/years as rows.
  EXPECT_NE(out->find("chemical eng"), std::string::npos);
  EXPECT_NE(out->find("junior sec"), std::string::npos);
  EXPECT_NE(out->find("1991"), std::string::npos);
  EXPECT_NE(out->find("110"), std::string::npos);  // first cell value
}

TEST(TableRenderTest, NestedHierarchyHeader) {
  auto obj = MakeEmployment();
  Render2DOptions opt;
  opt.row_dims = {"sex", "year"};
  opt.col_dims = {"profession"};
  opt.measure = "employment";
  opt.nest_hierarchy = "by_class";
  auto out = Render2D(obj, opt);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("engineer"), std::string::npos);
  EXPECT_NE(out->find("secretary"), std::string::npos);
}

TEST(TableRenderTest, MarginalsMatchSums) {
  auto obj = MakeEmployment();
  Render2DOptions opt;
  opt.row_dims = {"sex", "year"};
  opt.col_dims = {"profession"};
  opt.measure = "employment";
  opt.marginals = true;
  auto out = Render2D(obj, opt);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("total"), std::string::npos);
  // Grand total = sum of 110..220 step 10 = 12 values = 1,980.
  EXPECT_NE(out->find("1,980"), std::string::npos);
}

TEST(TableRenderTest, MarginalsWithNestedHierarchy) {
  auto obj = MakeEmployment();
  Render2DOptions opt;
  opt.row_dims = {"sex"};
  opt.col_dims = {"profession"};
  opt.measure = "employment";
  opt.marginals = true;
  opt.nest_hierarchy = "by_class";
  auto out = Render2D(obj, opt);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Per-parent totals plus the grand column and total row all render.
  EXPECT_NE(out->find("engineer"), std::string::npos);
  EXPECT_NE(out->find("total"), std::string::npos);
  EXPECT_NE(out->find("1,980"), std::string::npos);
}

TEST(TableRenderTest, RejectsNonStrictNesting) {
  StatisticalObject obj("hmo");
  Dimension disease("disease");
  ClassificationHierarchy dh("cat", {"disease", "category"});
  EXPECT_TRUE(dh.Link(0, Value("lung cancer"), Value("cancer")).ok());
  EXPECT_TRUE(dh.Link(0, Value("lung cancer"), Value("respiratory")).ok());
  disease.AddHierarchy(dh);
  ASSERT_TRUE(obj.AddDimension(disease).ok());
  ASSERT_TRUE(obj.AddDimension(Dimension("city")).ok());
  ASSERT_TRUE(obj.AddMeasure(
                      {"cost", "dollars", MeasureType::kFlow, AggFn::kSum, ""})
                  .ok());
  ASSERT_TRUE(
      obj.AddCell({Value("lung cancer"), Value("sf")}, {Value(5.0)}).ok());

  Render2DOptions opt;
  opt.row_dims = {"city"};
  opt.col_dims = {"disease"};
  opt.measure = "cost";
  opt.nest_hierarchy = "cat";
  auto out = Render2D(obj, opt);
  EXPECT_EQ(out.status().code(), StatusCode::kNotSummarizable);
}

TEST(TableRenderTest, ValidatesArguments) {
  auto obj = MakeEmployment();
  Render2DOptions opt;
  opt.measure = "employment";
  EXPECT_FALSE(Render2D(obj, opt).ok());  // no dims
  opt.row_dims = {"sex"};
  opt.col_dims = {"profession"};
  opt.measure = "ghost";
  EXPECT_FALSE(Render2D(obj, opt).ok());
  opt.measure = "employment";
  opt.nest_hierarchy = "ghost";
  EXPECT_FALSE(Render2D(obj, opt).ok());
}

TEST(TableRenderTest, EmptyCellsRenderAsDot) {
  StatisticalObject obj("sparse");
  ASSERT_TRUE(obj.AddDimension(Dimension("a")).ok());
  ASSERT_TRUE(obj.AddDimension(Dimension("b")).ok());
  ASSERT_TRUE(
      obj.AddMeasure({"m", "", MeasureType::kFlow, AggFn::kSum, ""}).ok());
  ASSERT_TRUE(obj.AddCell({Value("a1"), Value("b1")}, {Value(1.0)}).ok());
  ASSERT_TRUE(obj.AddCell({Value("a2"), Value("b2")}, {Value(2.0)}).ok());
  Render2DOptions opt;
  opt.row_dims = {"a"};
  opt.col_dims = {"b"};
  opt.measure = "m";
  auto out = Render2D(obj, opt);
  ASSERT_TRUE(out.ok());
  // (a1,b2) and (a2,b1) are empty.
  EXPECT_NE(out->find("."), std::string::npos);
}

}  // namespace
}  // namespace statcube
