// Tests for the S/X/C schema graph (Figures 3–7), including the Figure 6
// equivalence of nested and flat dimension groups.

#include "statcube/core/schema_graph.h"

#include <gtest/gtest.h>

namespace statcube {
namespace {

StatisticalObject MakeIncome() {
  StatisticalObject obj("avg_income_california");
  EXPECT_TRUE(obj.AddDimension(Dimension("sex")).ok());
  EXPECT_TRUE(obj.AddDimension(Dimension("race")).ok());
  EXPECT_TRUE(obj.AddDimension(Dimension("age")).ok());
  EXPECT_TRUE(
      obj.AddDimension(Dimension("year", DimensionKind::kTemporal)).ok());
  Dimension prof("profession");
  ClassificationHierarchy h("by_class", {"profession", "professional_class"});
  EXPECT_TRUE(h.Link(0, Value("civil engineer"), Value("engineer")).ok());
  prof.AddHierarchy(h);
  EXPECT_TRUE(obj.AddDimension(prof).ok());
  EXPECT_TRUE(obj.AddMeasure({"avg_income", "dollars",
                              MeasureType::kValuePerUnit, AggFn::kAvg, ""})
                  .ok());
  return obj;
}

TEST(SchemaGraphTest, Figure4Structure) {
  SchemaGraph g = SchemaGraph::FromObject(MakeIncome());
  // Root is the S node labeled with the measure.
  const auto& root = g.nodes()[size_t(g.root())];
  EXPECT_EQ(root.kind, GraphNodeKind::kSummary);
  EXPECT_EQ(root.label, "avg_income");
  ASSERT_EQ(root.children.size(), 1u);
  const auto& x = g.nodes()[size_t(root.children[0])];
  EXPECT_EQ(x.kind, GraphNodeKind::kCross);
  EXPECT_EQ(x.children.size(), 5u);  // 5 dimensions
  EXPECT_EQ(g.CrossNodeCount(), 1u);
}

TEST(SchemaGraphTest, HierarchyChainCoarsestFirst) {
  SchemaGraph g = SchemaGraph::FromObject(MakeIncome());
  // Find the professional_class C node: it must have a profession child.
  bool found = false;
  for (const auto& n : g.nodes()) {
    if (n.kind == GraphNodeKind::kCategory && n.label == "professional_class") {
      ASSERT_EQ(n.children.size(), 1u);
      EXPECT_EQ(g.nodes()[size_t(n.children[0])].label, "profession");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SchemaGraphTest, DimensionLabelsUseFinestLevel) {
  SchemaGraph g = SchemaGraph::FromObject(MakeIncome());
  auto labels = g.DimensionLabels();
  EXPECT_EQ(labels, (std::vector<std::string>{"age", "profession", "race",
                                              "sex", "year"}));
}

TEST(SchemaGraphTest, Figure5GroupingAndFigure6Equivalence) {
  SchemaGraph g = SchemaGraph::FromObject(MakeIncome());
  auto before = g.DimensionLabels();
  ASSERT_TRUE(
      g.GroupDimensions("socio_economic", {"sex", "race", "age"}).ok());
  EXPECT_EQ(g.CrossNodeCount(), 2u);
  // The Figure 6 property: grouping does not change the cross product.
  EXPECT_EQ(g.DimensionLabels(), before);
  // Flatten restores a single X-node, same dimensions.
  g.Flatten();
  EXPECT_EQ(g.CrossNodeCount(), 1u);
  EXPECT_EQ(g.DimensionLabels(), before);
}

TEST(SchemaGraphTest, IteratedGrouping) {
  SchemaGraph g = SchemaGraph::FromObject(MakeIncome());
  auto before = g.DimensionLabels();
  ASSERT_TRUE(g.GroupDimensions("demo", {"sex", "race"}).ok());
  ASSERT_TRUE(g.GroupDimensions("work", {"profession"}).ok());
  EXPECT_EQ(g.CrossNodeCount(), 3u);
  EXPECT_EQ(g.DimensionLabels(), before);
  g.Flatten();
  EXPECT_EQ(g.CrossNodeCount(), 1u);
  EXPECT_EQ(g.DimensionLabels(), before);
}

TEST(SchemaGraphTest, GroupUnknownDimensionFails) {
  SchemaGraph g = SchemaGraph::FromObject(MakeIncome());
  EXPECT_FALSE(g.GroupDimensions("g", {"ghost"}).ok());
}

TEST(SchemaGraphTest, Figure7TwoDimensionalLayout) {
  auto g = SchemaGraph::With2DLayout(MakeIncome(), {"sex", "year"},
                                     {"profession", "race", "age"});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->CrossNodeCount(), 3u);  // X, rows, columns
  auto labels = g->DimensionLabels();
  EXPECT_EQ(labels, (std::vector<std::string>{"age", "profession", "race",
                                              "sex", "year"}));
  EXPECT_FALSE(
      SchemaGraph::With2DLayout(MakeIncome(), {"ghost"}, {"race"}).ok());
}

TEST(SchemaGraphTest, Figure3InstanceGraph) {
  StatisticalObject obj("inc");
  ASSERT_TRUE(obj.AddDimension(Dimension("sex")).ok());
  Dimension prof("profession");
  ClassificationHierarchy h("by_class", {"profession", "professional_class"});
  ASSERT_TRUE(h.Link(0, Value("civil eng"), Value("engineer")).ok());
  ASSERT_TRUE(h.Link(0, Value("chemical eng"), Value("engineer")).ok());
  ASSERT_TRUE(h.Link(0, Value("junior sec"), Value("secretary")).ok());
  prof.AddHierarchy(h);
  ASSERT_TRUE(obj.AddDimension(prof).ok());
  ASSERT_TRUE(obj.AddMeasure(
                   {"avg_income", "", MeasureType::kValuePerUnit, AggFn::kAvg,
                    ""})
                  .ok());
  ASSERT_TRUE(obj.AddCell({Value("M"), Value("civil eng")}, {Value(1.0)}).ok());
  ASSERT_TRUE(obj.AddCell({Value("F"), Value("junior sec")}, {Value(2.0)}).ok());

  auto g = SchemaGraph::FromObjectWithValues(obj);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // The dual-role node: "engineer" is a value node that carries the
  // profession values beneath it.
  bool engineer_has_children = false;
  for (const auto& n : g->nodes()) {
    if (n.label == "engineer") {
      EXPECT_EQ(n.children.size(), 2u);
      engineer_has_children = true;
    }
  }
  EXPECT_TRUE(engineer_has_children);
  // Value nodes appear in the DOT export.
  std::string dot = g->ToDot();
  EXPECT_NE(dot.find("civil eng"), std::string::npos);
  EXPECT_NE(dot.find("M"), std::string::npos);
}

TEST(SchemaGraphTest, InstanceGraphRefusesLargeValueSets) {
  // The paper's complaint: "in case the number of categories ... was large
  // (e.g. 50 states), it was not possible to represent that on screens".
  StatisticalObject obj("big");
  Dimension state("state");
  ASSERT_TRUE(obj.AddDimension(state).ok());
  ASSERT_TRUE(obj.AddMeasure(
                   {"pop", "", MeasureType::kStock, AggFn::kSum, ""})
                  .ok());
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(
        obj.AddCell({Value("state" + std::to_string(i))}, {Value(1)}).ok());
  auto g = SchemaGraph::FromObjectWithValues(obj, 16);
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  // The schema-level graph (Figure 4) handles it fine.
  SchemaGraph ok = SchemaGraph::FromObject(obj);
  EXPECT_EQ(ok.CrossNodeCount(), 1u);
}

TEST(SchemaGraphTest, DotExport) {
  SchemaGraph g = SchemaGraph::FromObject(MakeIncome());
  std::string dot = g.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);      // S node
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);  // X node
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);  // C nodes
  EXPECT_NE(dot.find("profession"), std::string::npos);
}

}  // namespace
}  // namespace statcube
