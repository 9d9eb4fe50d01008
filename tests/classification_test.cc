// Tests for classification structures (paper §4.2, Figure 8): strictness,
// covering, completeness declarations, ID dependency, value properties,
// ancestors/descendants.

#include "statcube/core/classification.h"

#include <gtest/gtest.h>

namespace statcube {
namespace {

// The paper's Figure 1 structure: profession -> professional class.
ClassificationHierarchy MakeProfessions() {
  ClassificationHierarchy h("by_class", {"profession", "professional_class"});
  EXPECT_TRUE(h.Link(0, Value("chemical engineer"), Value("engineer")).ok());
  EXPECT_TRUE(h.Link(0, Value("civil engineer"), Value("engineer")).ok());
  EXPECT_TRUE(h.Link(0, Value("junior secretary"), Value("secretary")).ok());
  EXPECT_TRUE(h.Link(0, Value("executive secretary"), Value("secretary")).ok());
  EXPECT_TRUE(h.Link(0, Value("elementary teacher"), Value("teacher")).ok());
  EXPECT_TRUE(h.Link(0, Value("high school teacher"), Value("teacher")).ok());
  return h;
}

// The paper's §3.2(iii) HMO example: lung cancer under both cancer and
// respiratory — a non-strict structure.
ClassificationHierarchy MakeDiseases() {
  ClassificationHierarchy h("disease", {"disease", "disease_category"});
  EXPECT_TRUE(h.Link(0, Value("lung cancer"), Value("cancer")).ok());
  EXPECT_TRUE(h.Link(0, Value("lung cancer"), Value("respiratory")).ok());
  EXPECT_TRUE(h.Link(0, Value("leukemia"), Value("cancer")).ok());
  EXPECT_TRUE(h.Link(0, Value("asthma"), Value("respiratory")).ok());
  return h;
}

// The paper's §2.2 time hierarchy: day -> month -> year, ID dependent.
ClassificationHierarchy MakeTime() {
  ClassificationHierarchy h("calendar", {"day", "month", "year"});
  for (int m = 1; m <= 2; ++m)
    for (int d = 1; d <= 3; ++d) {
      std::string day = "1996-0" + std::to_string(m) + "-0" + std::to_string(d);
      std::string month = "1996-0" + std::to_string(m);
      EXPECT_TRUE(h.Link(0, Value(day), Value(month)).ok());
    }
  EXPECT_TRUE(h.Link(1, Value("1996-01"), Value("1996")).ok());
  EXPECT_TRUE(h.Link(1, Value("1996-02"), Value("1996")).ok());
  h.set_id_dependent(true);
  return h;
}

TEST(ClassificationTest, LevelsAndLookup) {
  auto h = MakeProfessions();
  EXPECT_EQ(h.num_levels(), 2u);
  auto idx = h.LevelIndex("professional_class");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_FALSE(h.LevelIndex("ghost").ok());
}

TEST(ClassificationTest, ParentsAndChildren) {
  auto h = MakeProfessions();
  auto ps = h.Parents(0, Value("civil engineer"));
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0], Value("engineer"));
  auto cs = h.Children(1, Value("teacher"));
  EXPECT_EQ(cs.size(), 2u);
  EXPECT_TRUE(h.Parents(1, Value("engineer")).empty());  // top level
  EXPECT_TRUE(h.Children(0, Value("civil engineer")).empty());  // leaf
}

TEST(ClassificationTest, StrictnessDetection) {
  EXPECT_TRUE(MakeProfessions().IsStrict());
  auto d = MakeDiseases();
  EXPECT_FALSE(d.IsStrict());
  EXPECT_FALSE(d.IsStrictAt(0));
  auto multi = d.MultiParentValues(0);
  ASSERT_EQ(multi.size(), 1u);
  EXPECT_EQ(multi[0], Value("lung cancer"));
}

TEST(ClassificationTest, CoveringDetection) {
  auto h = MakeProfessions();
  EXPECT_TRUE(h.IsCoveringAt(0));
  // Register a profession with no class: not covering any more.
  ASSERT_TRUE(h.AddValue(0, Value("freelancer")).ok());
  EXPECT_FALSE(h.IsCoveringAt(0));
}

TEST(ClassificationTest, CompletenessIsDeclared) {
  auto h = MakeProfessions();
  EXPECT_FALSE(h.IsDeclaredComplete(0, "employment"));
  h.DeclareComplete(0, "employment");
  EXPECT_TRUE(h.IsDeclaredComplete(0, "employment"));
  EXPECT_FALSE(h.IsDeclaredComplete(0, "other_measure"));
  h.DeclareComplete(0, "employment", false);
  EXPECT_FALSE(h.IsDeclaredComplete(0, "employment"));
}

TEST(ClassificationTest, MultiLevelAncestors) {
  auto t = MakeTime();
  auto anc = t.Ancestors(0, Value("1996-02-03"), 2);
  ASSERT_TRUE(anc.ok());
  ASSERT_EQ(anc->size(), 1u);
  EXPECT_EQ((*anc)[0], Value("1996"));
  auto month = t.Ancestors(0, Value("1996-02-03"), 1);
  ASSERT_TRUE(month.ok());
  EXPECT_EQ((*month)[0], Value("1996-02"));
  // Ancestors of a value at its own level is itself.
  auto self = t.Ancestors(1, Value("1996-01"), 1);
  ASSERT_TRUE(self.ok());
  EXPECT_EQ((*self)[0], Value("1996-01"));
}

TEST(ClassificationTest, AncestorsThroughNonStrictFanOut) {
  auto d = MakeDiseases();
  auto anc = d.Ancestors(0, Value("lung cancer"), 1);
  ASSERT_TRUE(anc.ok());
  EXPECT_EQ(anc->size(), 2u);
}

TEST(ClassificationTest, LeafDescendants) {
  auto t = MakeTime();
  auto leaves = t.LeafDescendants(2, Value("1996"));
  ASSERT_TRUE(leaves.ok());
  EXPECT_EQ(leaves->size(), 6u);
  auto month_leaves = t.LeafDescendants(1, Value("1996-01"));
  ASSERT_TRUE(month_leaves.ok());
  EXPECT_EQ(month_leaves->size(), 3u);
}

TEST(ClassificationTest, QualifiedIdentity) {
  auto t = MakeTime();
  auto qid = t.QualifiedIdentity(0, Value("1996-01-02"));
  ASSERT_TRUE(qid.ok());
  ASSERT_EQ(qid->size(), 3u);
  EXPECT_EQ((*qid)[0], Value("1996-01-02"));
  EXPECT_EQ((*qid)[1], Value("1996-01"));
  EXPECT_EQ((*qid)[2], Value("1996"));
  // Undefined through a non-strict structure.
  auto d = MakeDiseases();
  EXPECT_FALSE(d.QualifiedIdentity(0, Value("lung cancer")).ok());
}

TEST(ClassificationTest, ValueProperties) {
  // Figure 8 middle: the video classification with ISA properties.
  ClassificationHierarchy h("video", {"product", "category"});
  ASSERT_TRUE(h.Link(0, Value("vcr-100"), Value("home VCR")).ok());
  ASSERT_TRUE(h.Link(0, Value("cam-7"), Value("camcorder")).ok());
  ASSERT_TRUE(h.SetProperty(0, Value("vcr-100"), "brand", Value("Sony")).ok());
  ASSERT_TRUE(h.SetProperty(0, Value("cam-7"), "brand", Value("Sanyo")).ok());
  ASSERT_TRUE(
      h.SetProperty(0, Value("vcr-100"), "sound", Value("stereo")).ok());

  auto brand = h.GetProperty(0, Value("vcr-100"), "brand");
  ASSERT_TRUE(brand.ok());
  EXPECT_EQ(*brand, Value("Sony"));
  EXPECT_FALSE(h.GetProperty(0, Value("vcr-100"), "ghost").ok());
  EXPECT_FALSE(h.GetProperty(0, Value("ghost"), "brand").ok());

  auto sanyo = h.ValuesWithProperty(0, "brand", Value("Sanyo"));
  ASSERT_EQ(sanyo.size(), 1u);
  EXPECT_EQ(sanyo[0], Value("cam-7"));
}

TEST(ClassificationTest, ErrorsOnBadLevels) {
  auto h = MakeProfessions();
  EXPECT_FALSE(h.AddValue(7, Value("x")).ok());
  EXPECT_FALSE(h.Link(1, Value("engineer"), Value("super")).ok());  // at top
  EXPECT_FALSE(h.Ancestors(0, Value("civil engineer"), 5).ok());
  EXPECT_FALSE(h.Ancestors(1, Value("engineer"), 0).ok());  // downward
}

TEST(ClassificationTest, LinkIdempotent) {
  auto h = MakeProfessions();
  ASSERT_TRUE(h.Link(0, Value("civil engineer"), Value("engineer")).ok());
  EXPECT_EQ(h.Parents(0, Value("civil engineer")).size(), 1u);
  EXPECT_EQ(h.ValuesAt(1).size(), 3u);
}

TEST(ClassificationTest, ValuesAtOnEmptyHierarchyAndBadLevel) {
  // Level storage is sized by the first mutation; reading before that, or
  // past the last level, yields an empty list rather than a wild read.
  ClassificationHierarchy fresh("calendar", {"day", "month"});
  EXPECT_TRUE(fresh.ValuesAt(0).empty());
  EXPECT_TRUE(fresh.ValuesAt(1).empty());
  EXPECT_TRUE(fresh.ValuesAt(2).empty());
  ASSERT_TRUE(fresh.AddValue(1, Value("1996-1")).ok());
  EXPECT_TRUE(fresh.ValuesAt(0).empty());
  EXPECT_EQ(fresh.ValuesAt(1), std::vector<Value>{Value("1996-1")});
  EXPECT_TRUE(fresh.ValuesAt(99).empty());
}

}  // namespace
}  // namespace statcube
