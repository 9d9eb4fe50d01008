// Tests for the CSV + metadata interchange (§5.6 "clean interfaces").

#include "statcube/io/csv.h"

#include <gtest/gtest.h>

#include "round_trip_cells.h"
#include "statcube/olap/homomorphism.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

TEST(CsvTest, WritesAndReadsSimpleTable) {
  Schema s;
  s.AddColumn("name", ValueType::kString);
  s.AddColumn("n", ValueType::kInt64);
  s.AddColumn("x", ValueType::kDouble);
  Table t("t", s);
  t.AppendRowUnchecked({Value("plain"), Value(3), Value(1.5)});
  t.AppendRowUnchecked({Value("with,comma"), Value(-7), Value::Null()});
  t.AppendRowUnchecked({Value("with\"quote"), Value::All(), Value(2.0)});

  std::string csv = WriteCsv(t);
  auto back = ReadCsv(csv, "t");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), 3u);
  ASSERT_EQ(back->num_columns(), 3u);
  EXPECT_EQ(back->at(0, 0), Value("plain"));
  EXPECT_EQ(back->at(0, 1), Value(3));
  EXPECT_EQ(back->at(1, 0), Value("with,comma"));
  EXPECT_EQ(back->at(1, 1), Value(-7));
  EXPECT_TRUE(back->at(1, 2).is_null());
  EXPECT_EQ(back->at(2, 0), Value("with\"quote"));
  EXPECT_TRUE(back->at(2, 1).is_all());
}

TEST(CsvTest, QuotedStringsStayStrings) {
  // "1996" the string must not come back as 1996 the number.
  Schema s;
  s.AddColumn("year_label", ValueType::kString);
  Table t("t", s);
  t.AppendRowUnchecked({Value("1996")});
  auto back = ReadCsv(WriteCsv(t), "t");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->at(0, 0).type(), ValueType::kString);
  EXPECT_EQ(back->at(0, 0), Value("1996"));
}

// Numbers are written exactly and an integral double keeps a ".0", so every
// cell reads back with its type and bits.
TEST(CsvTest, EveryCellRoundTripsExactly) {
  const std::vector<Value> cells = RoundTripCells();
  Schema s;
  s.AddColumn("v", ValueType::kDouble);
  Table t("t", s);
  for (const Value& v : cells) t.AppendRowUnchecked({v});

  const std::string csv = WriteCsv(t);
  auto back = ReadCsv(csv, "t");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i)
    EXPECT_TRUE(SameBits(back->at(i, 0), cells[i]))
        << "row " << i << ": " << back->at(i, 0).ToString() << " in\n" << csv;
}

TEST(ExportImportTest, EveryMeasureCellRoundTripsExactly) {
  const std::vector<Value> cells = RoundTripCells();
  StatisticalObject obj("cells");
  ASSERT_TRUE(obj.AddDimension(Dimension("k")).ok());
  SummaryMeasure measure;
  measure.name = "v";
  ASSERT_TRUE(obj.AddMeasure(measure).ok());
  for (size_t i = 0; i < cells.size(); ++i)
    ASSERT_TRUE(obj.AddCell({Value(std::to_string(i))}, {cells[i]}).ok());

  auto back = ImportObject(ExportObject(obj));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->data().num_rows(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i)
    EXPECT_TRUE(SameBits(back->data().at(i, 1), cells[i]))
        << "row " << i << ": " << back->data().at(i, 1).ToString();
}

TEST(CsvTest, Errors) {
  EXPECT_FALSE(ReadCsv("", "t").ok());
  EXPECT_FALSE(ReadCsv("a,b\n1\n", "t").ok());           // arity mismatch
  EXPECT_FALSE(ReadCsv("a\n\"unterminated\n", "t").ok());
}

TEST(ExportImportTest, ObjectRoundTrip) {
  RetailOptions opt;
  opt.num_products = 6;
  opt.num_stores = 4;
  opt.num_days = 5;
  opt.num_rows = 300;
  auto data = MakeRetailWorkload(opt);
  ASSERT_TRUE(data.ok());
  const StatisticalObject& obj = data->object;

  std::string text = ExportObject(obj);
  auto back = ImportObject(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  // Structure survives.
  EXPECT_EQ(back->name(), obj.name());
  ASSERT_EQ(back->dimensions().size(), obj.dimensions().size());
  for (size_t i = 0; i < obj.dimensions().size(); ++i) {
    EXPECT_EQ(back->dimensions()[i].name(), obj.dimensions()[i].name());
    EXPECT_EQ(back->dimensions()[i].kind(), obj.dimensions()[i].kind());
    EXPECT_EQ(back->dimensions()[i].hierarchies().size(),
              obj.dimensions()[i].hierarchies().size());
  }
  ASSERT_EQ(back->measures().size(), obj.measures().size());
  for (size_t i = 0; i < obj.measures().size(); ++i) {
    EXPECT_EQ(back->measures()[i].name, obj.measures()[i].name);
    EXPECT_EQ(back->measures()[i].type, obj.measures()[i].type);
    EXPECT_EQ(back->measures()[i].default_fn, obj.measures()[i].default_fn);
  }

  // Hierarchy content survives (links, ID dependency, completeness).
  auto store = back->DimensionNamed("store");
  ASSERT_TRUE(store.ok());
  auto geo = (*store)->HierarchyNamed("by_city");
  ASSERT_TRUE(geo.ok());
  EXPECT_TRUE((*geo)->id_dependent());
  EXPECT_TRUE((*geo)->IsDeclaredComplete(0, "qty"));
  auto orig_geo = (*obj.DimensionNamed("store"))->HierarchyNamed("by_city");
  EXPECT_EQ((*geo)->ValuesAt(1).size(), (*orig_geo)->ValuesAt(1).size());

  // Cells survive exactly.
  auto eq = MacroDataEqual(obj, *back, 1e-9);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST(ExportImportTest, MutationFuzz) {
  // Mutated exports must either import cleanly or fail with a Status —
  // never crash or silently mis-shape the object.
  RetailOptions opt;
  opt.num_products = 4;
  opt.num_stores = 2;
  opt.num_days = 3;
  opt.num_rows = 60;
  auto data = MakeRetailWorkload(opt);
  ASSERT_TRUE(data.ok());
  std::string text = ExportObject(data->object);

  // Deterministic mutations: drop a line, duplicate a line, truncate.
  std::vector<std::string> lines;
  {
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      lines.push_back(text.substr(start, end - start));
      start = end + 1;
    }
  }
  for (size_t drop = 0; drop < lines.size(); drop += 3) {
    std::string mutated;
    for (size_t i = 0; i < lines.size(); ++i)
      if (i != drop) mutated += lines[i] + "\n";
    auto r = ImportObject(mutated);  // must not crash
    if (r.ok()) {
      // If it imported, the object must be internally consistent.
      EXPECT_EQ(r->data().num_columns(),
                r->dimensions().size() + r->measures().size());
    }
  }
  for (size_t cut = 1; cut < text.size(); cut += text.size() / 7) {
    auto r = ImportObject(text.substr(0, cut));
    if (r.ok()) {
      EXPECT_EQ(r->data().num_columns(),
                r->dimensions().size() + r->measures().size());
    }
  }
}

TEST(ExportImportTest, RejectsGarbage) {
  EXPECT_FALSE(ImportObject("").ok());
  EXPECT_FALSE(ImportObject("not a header\n").ok());
  EXPECT_FALSE(
      ImportObject("# statcube-object v1\n# bogus,tag\n# end\n").ok());
  EXPECT_FALSE(ImportObject("# statcube-object v1\n"
                            "# link,ghost,0,\"a\",\"b\"\n# end\n")
                   .ok());
}

}  // namespace
}  // namespace statcube
