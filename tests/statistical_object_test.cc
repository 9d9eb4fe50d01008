// Tests for the StatisticalObject data type: construction, cells, structure
// description, FromTable.

#include "statcube/core/statistical_object.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "statcube/common/rng.h"

namespace statcube {
namespace {

StatisticalObject MakeEmployment() {
  StatisticalObject obj("employment_in_california");
  EXPECT_TRUE(obj.AddDimension(Dimension("sex")).ok());
  Dimension year("year", DimensionKind::kTemporal);
  EXPECT_TRUE(obj.AddDimension(year).ok());
  Dimension prof("profession");
  ClassificationHierarchy h("by_class", {"profession", "professional_class"});
  EXPECT_TRUE(h.Link(0, Value("civil engineer"), Value("engineer")).ok());
  EXPECT_TRUE(h.Link(0, Value("chemical engineer"), Value("engineer")).ok());
  EXPECT_TRUE(h.Link(0, Value("junior secretary"), Value("secretary")).ok());
  prof.AddHierarchy(h);
  EXPECT_TRUE(obj.AddDimension(prof).ok());
  EXPECT_TRUE(obj.AddMeasure({"employment", "", MeasureType::kStock,
                              AggFn::kSum, ""})
                  .ok());
  // Some cells.
  EXPECT_TRUE(obj.AddCell({Value("M"), Value(1991), Value("civil engineer")},
                          {Value(241100)})
                  .ok());
  EXPECT_TRUE(obj.AddCell({Value("M"), Value(1991), Value("chemical engineer")},
                          {Value(197700)})
                  .ok());
  EXPECT_TRUE(obj.AddCell({Value("F"), Value(1991), Value("junior secretary")},
                          {Value(667300)})
                  .ok());
  return obj;
}

TEST(StatisticalObjectTest, SchemaFollowsStructure) {
  StatisticalObject obj = MakeEmployment();
  EXPECT_EQ(obj.data().num_columns(), 4u);
  EXPECT_EQ(obj.data().schema().column(0).name, "sex");
  EXPECT_EQ(obj.data().schema().column(3).name, "employment");
  EXPECT_EQ(obj.data().num_rows(), 3u);
}

TEST(StatisticalObjectTest, DimensionValueRegistration) {
  StatisticalObject obj = MakeEmployment();
  auto sex = obj.DimensionNamed("sex");
  ASSERT_TRUE(sex.ok());
  EXPECT_EQ((*sex)->cardinality(), 2u);
  auto prof = obj.DimensionNamed("profession");
  ASSERT_TRUE(prof.ok());
  EXPECT_EQ((*prof)->cardinality(), 3u);
}

TEST(StatisticalObjectTest, DuplicateNamesRejected) {
  StatisticalObject obj = MakeEmployment();
  EXPECT_EQ(obj.AddDimension(Dimension("sex")).code(),
            StatusCode::kInvalidArgument);  // after cells
  StatisticalObject fresh("f");
  ASSERT_TRUE(fresh.AddDimension(Dimension("a")).ok());
  EXPECT_EQ(fresh.AddDimension(Dimension("a")).code(),
            StatusCode::kAlreadyExists);
  const SummaryMeasure m = {"m", "", MeasureType::kFlow, AggFn::kSum, ""};
  ASSERT_TRUE(fresh.AddMeasure(m).ok());
  EXPECT_EQ(fresh.AddMeasure(m).code(), StatusCode::kAlreadyExists);
}

TEST(StatisticalObjectTest, CellArityChecked) {
  StatisticalObject obj = MakeEmployment();
  EXPECT_FALSE(obj.AddCell({Value("M")}, {Value(1)}).ok());
  EXPECT_FALSE(
      obj.AddCell({Value("M"), Value(1990), Value("x")}, {}).ok());
}

TEST(StatisticalObjectTest, LookupErrors) {
  StatisticalObject obj = MakeEmployment();
  EXPECT_FALSE(obj.DimensionNamed("ghost").ok());
  EXPECT_FALSE(obj.MeasureNamed("ghost").ok());
  EXPECT_FALSE(obj.DimensionIndex("ghost").ok());
  auto idx = obj.DimensionIndex("year");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
}

TEST(StatisticalObjectTest, DescribeStructureMatchesPaperStyle) {
  StatisticalObject obj = MakeEmployment();
  std::string desc = obj.DescribeStructure();
  EXPECT_NE(desc.find("Summary measure: employment"), std::string::npos);
  EXPECT_NE(desc.find("Dimensions: sex, year, profession"), std::string::npos);
  EXPECT_NE(desc.find("professional_class --> profession"), std::string::npos);
  EXPECT_NE(desc.find("stock"), std::string::npos);
}

TEST(StatisticalObjectTest, FromTable) {
  Schema s;
  s.AddColumn("product", ValueType::kString);
  s.AddColumn("day", ValueType::kString);
  s.AddColumn("qty", ValueType::kDouble);
  Table t("sales", s);
  ASSERT_TRUE(t.AppendRow({Value("banana"), Value("d1"), Value(3.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("apple"), Value("d1"), Value(5.0)}).ok());

  auto obj = StatisticalObject::FromTable(
      t, {"product", "day"},
      {{"qty", "dollars", MeasureType::kFlow, AggFn::kSum, ""}}, {"day"});
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->dimensions().size(), 2u);
  EXPECT_TRUE(obj->dimensions()[1].is_temporal());
  EXPECT_FALSE(obj->dimensions()[0].is_temporal());
  EXPECT_EQ(obj->data().num_rows(), 2u);

  // Missing columns error.
  EXPECT_FALSE(StatisticalObject::FromTable(
                   t, {"ghost"},
                   {{"qty", "", MeasureType::kFlow, AggFn::kSum, ""}})
                   .ok());
  EXPECT_FALSE(StatisticalObject::FromTable(
                   t, {"product"},
                   {{"ghost", "", MeasureType::kFlow, AggFn::kSum, ""}})
                   .ok());
}

// The values AddCell sees in the tests below: the corners of
// representation versus Value::Compare equality.
std::vector<Value> CornerValues() {
  const int64_t two53 = int64_t(1) << 53;
  return {Value::Null(),
          Value(std::nan("")),
          Value(int64_t(1)),
          Value(1.0),
          Value(two53),
          Value(two53 + 1),
          Value(double(two53)),
          Value(double(two53) + 2.0),
          Value(-0.0),
          Value(0.0),
          Value("a category name longer than sixteen bytes"),
          Value("a category name longer than sixteen bytes"),
          Value("x")};
}

// Same type and the same bits (doubles) or the same value: finer than ==.
bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == ValueType::kDouble)
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  return a == b;
}

void ExpectSameValues(const std::vector<Value>& want,
                      const std::vector<Value>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i)
    EXPECT_TRUE(SameBits(want[i], got[i]))
        << what << " entry " << i << ": " << want[i].ToString() << " vs "
        << got[i].ToString();
}

// AddCell registers a leaf only when its representation is new. The
// registry must still read exactly as if every call had made the linear,
// ==-based AddValue, in every order — NaN, which == calls equal to every
// number, and the 2^53 neighbours included — and again after a mutable
// handle cleared it.
TEST(StatisticalObjectTest, RegistersEachLeafOncePerRepresentation) {
  const std::vector<Value> corners = CornerValues();
  Rng rng(5);
  for (int order = 0; order < 40; ++order) {
    std::vector<Value> seq = corners;
    for (size_t k = seq.size(); k > 1; --k)
      std::swap(seq[k - 1], seq[rng.Uniform(k)]);
    for (int i = 0; i < 10; ++i)
      seq.push_back(corners[rng.Uniform(corners.size())]);
    StatisticalObject obj("registry");
    ASSERT_TRUE(obj.AddDimension(Dimension("d")).ok());
    ASSERT_TRUE(
        obj.AddMeasure({"m", "", MeasureType::kFlow, AggFn::kSum, ""}).ok());
    std::vector<Value> linear;  // the registry as every call once kept it
    auto add_value = [&](const Value& v) {
      for (const Value& e : linear)
        if (e == v) return;
      linear.push_back(v);
    };
    for (size_t i = 0; i < seq.size(); ++i) {
      if (i == seq.size() / 2) {
        // A mutable handle may clear the registry behind the object's back.
        Dimension* d = *obj.MutableDimensionNamed("d");
        d->ClearValues();
        linear.clear();
      }
      ASSERT_TRUE(obj.AddCell({seq[i]}, {Value(1.0)}).ok());
      add_value(seq[i]);
      ExpectSameValues(linear, obj.dimensions()[0].values(),
                       "order " + std::to_string(order) + " after cell " +
                           std::to_string(i));
    }
  }
}

// The code columns decode to data() cell by cell, by representation, and
// each slab entry folds exactly as AggState::Add folds its Value.
TEST(StatisticalObjectTest, CodeColumnsAndSlabsMirrorTheCells) {
  const std::vector<Value> corners = CornerValues();
  StatisticalObject obj("coded");
  ASSERT_TRUE(obj.AddDimension(Dimension("a")).ok());
  ASSERT_TRUE(obj.AddDimension(Dimension("b")).ok());
  ASSERT_TRUE(
      obj.AddMeasure({"m", "", MeasureType::kFlow, AggFn::kSum, ""}).ok());
  ASSERT_TRUE(
      obj.AddMeasure({"n", "", MeasureType::kFlow, AggFn::kSum, ""}).ok());
  std::vector<Value> measures = corners;
  measures.push_back(Value::All());
  measures.push_back(Value(std::numeric_limits<double>::infinity()));
  measures.push_back(Value(int64_t(-7)));
  measures.push_back(Value(2.5));
  Rng rng(9);
  for (int i = 0; i < 500; ++i)
    ASSERT_TRUE(obj.AddCell({corners[rng.Uniform(corners.size())],
                             corners[rng.Uniform(corners.size())]},
                            {measures[rng.Uniform(measures.size())],
                             measures[rng.Uniform(measures.size())]})
                    .ok());

  const Table& data = obj.data();
  const auto& cols = obj.code_columns();
  ASSERT_EQ(cols.size(), 2u);
  for (size_t d = 0; d < cols.size(); ++d) {
    ASSERT_EQ(cols[d].codes.size(), data.num_rows());
    for (size_t r = 0; r < data.num_rows(); ++r)
      ASSERT_TRUE(SameBits(cols[d].dictionary.at(cols[d].codes[r]),
                           data.at(r, d)))
          << "dimension " << d << " row " << r;
    // One entry per representation, in first-occurrence order.
    for (size_t i = 0; i < cols[d].dictionary.size(); ++i)
      for (size_t j = 0; j < i; ++j)
        EXPECT_FALSE(SameBits(cols[d].dictionary[i], cols[d].dictionary[j]));
  }

  const auto& slabs = obj.measure_slabs();
  ASSERT_EQ(slabs.size(), 2u);
  for (size_t m = 0; m < slabs.size(); ++m) {
    ASSERT_EQ(slabs[m].values.size(), data.num_rows());
    ASSERT_EQ(slabs[m].flags.size(), data.num_rows());
    SlabEvidence evidence;
    for (size_t r = 0; r < data.num_rows(); ++r) {
      const Value& v = data.at(r, 2 + m);
      AggState want, got;
      want.Add(v);
      got.AddSlab(slabs[m].values[r], slabs[m].flags[r]);
      ASSERT_EQ(want.rows, got.rows) << "row " << r;
      ASSERT_EQ(want.count, got.count) << "row " << r;
      for (auto [x, y] : {std::pair{want.sum, got.sum},
                          {want.sum_sq, got.sum_sq},
                          {want.min, got.min},
                          {want.max, got.max}})
        ASSERT_EQ(std::bit_cast<uint64_t>(x), std::bit_cast<uint64_t>(y))
            << "row " << r << ": " << v.ToString();
      double x = 0.0;
      EncodeSlabEntry(v, &x, &evidence);
    }
    EXPECT_EQ(evidence.scale, slabs[m].evidence.scale);
    EXPECT_EQ(evidence.max_abs, slabs[m].evidence.max_abs);
    EXPECT_EQ(evidence.gap, slabs[m].evidence.gap);
  }
}

}  // namespace
}  // namespace statcube
