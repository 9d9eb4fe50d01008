// Tests for the concise query language (§5.1): parsing, execution,
// hierarchy-level inference, error reporting — and a seeded differential
// battery holding the executor, at several thread counts, and the Query()
// reference to the plain per-row pipeline they replaced, and the cube
// backends to Query() over backend-expressible queries.

#include "statcube/query/parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <map>
#include <set>

#include "statcube/common/rng.h"
#include "statcube/relational/cube_operator.h"
#include "statcube/relational/expression.h"
#include "statcube/relational/operators.h"
#include "statcube/workload/census.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

const StatisticalObject& Sales() {
  static StatisticalObject obj = [] {
    RetailOptions opt;
    opt.num_products = 10;
    opt.num_stores = 4;
    opt.num_cities = 2;
    opt.num_days = 10;
    opt.num_rows = 1000;
    return MakeRetailWorkload(opt)->object;
  }();
  return obj;
}

TEST(ParseTest, FullQuery) {
  auto q = ParseQuery(
      "SELECT sum(amount), avg(qty) BY city WHERE product = 'prod1' AND "
      "day = '1996-1-3'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->aggs.size(), 2u);
  EXPECT_EQ(q->aggs[0].fn, AggFn::kSum);
  EXPECT_EQ(q->aggs[0].column, "amount");
  EXPECT_EQ(q->aggs[1].fn, AggFn::kAvg);
  EXPECT_EQ(q->by, (std::vector<std::string>{"city"}));
  ASSERT_EQ(q->where.size(), 2u);
  EXPECT_EQ(q->where[0].first, "product");
  EXPECT_EQ(q->where[0].second, Value("prod1"));
}

TEST(ParseTest, CountStarAndNumbers) {
  auto q = ParseQuery("select count() where year = 1996 and price = 19.5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->aggs[0].fn, AggFn::kCountAll);
  EXPECT_EQ(q->where[0].second, Value(int64_t(1996)));
  EXPECT_EQ(q->where[1].second, Value(19.5));
}

TEST(ParseTest, SyntaxErrors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("sum(amount)").ok());            // no SELECT
  EXPECT_FALSE(ParseQuery("SELECT bogus(amount)").ok());   // unknown fn
  EXPECT_FALSE(ParseQuery("SELECT sum amount").ok());      // missing parens
  EXPECT_FALSE(ParseQuery("SELECT sum(amount) extra").ok());
  EXPECT_FALSE(ParseQuery("SELECT sum(amount) WHERE x").ok());
  EXPECT_FALSE(ParseQuery("SELECT sum(amount) WHERE x = 'unterminated").ok());
  EXPECT_TRUE(ParseQuery("SELECT count()").ok());  // count() is legal
}

TEST(ExecuteTest, GroupByDimension) {
  auto r = Query(Sales(), "SELECT sum(amount) BY store");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 4u);
  EXPECT_TRUE(r->schema().Contains("sum_amount"));
}

TEST(ExecuteTest, GroupByHierarchyLevelRollsUp) {
  // "city" is not a dimension of the object — it is level 1 of the store
  // hierarchy; the executor rolls up automatically.
  auto r = Query(Sales(), "SELECT sum(amount) BY city");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 2u);
  // Totals match the direct store-level query.
  auto by_store = Query(Sales(), "SELECT sum(amount) BY store");
  ASSERT_TRUE(by_store.ok());
  double t1 = 0, t2 = 0;
  for (const Row& row : r->rows()) t1 += row[1].AsDouble();
  for (const Row& row : by_store->rows()) t2 += row[1].AsDouble();
  EXPECT_NEAR(t1, t2, 1e-6);
}

TEST(ExecuteTest, WhereOnHierarchyLevel) {
  auto r = Query(Sales(),
                 "SELECT sum(qty) BY product WHERE category = 'cat1'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Only products of cat1 appear.
  EXPECT_GT(r->num_rows(), 0u);
  EXPECT_LT(r->num_rows(), 10u);
}

TEST(ExecuteTest, LeafAndParentLevelTogether) {
  // Group by the leaf dimension while filtering on its parent level: the
  // derived-column strategy must keep both addressable.
  auto r = Query(Sales(), "SELECT sum(qty) BY store WHERE city = 'city1'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 2u);  // 4 stores over 2 cities
  for (const Row& row : r->rows())
    EXPECT_NE(row[0].AsString().find("city1"), std::string::npos);
}

TEST(ExecuteTest, GlobalAggregate) {
  auto r = Query(Sales(), "SELECT sum(qty), count()");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_GT(r->at(0, 0).AsDouble(), 0.0);
}

TEST(ExecuteTest, UnknownIdentifier) {
  for (const char* text : {"SELECT sum(amount) BY ghost", "SELECT sum(ghost)",
                           "SELECT sum(amount) WHERE ghost = 'x'"}) {
    EXPECT_FALSE(Query(Sales(), text).ok()) << text;
    // The executor refuses them too: the plan a BY or WHERE name, the row
    // route's GroupBy an aggregate's column.
    auto parsed = ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << text;
    for (int threads : {1, 4})
      EXPECT_FALSE(ExecuteQuery(Sales(), *parsed, threads).ok()) << text;
  }
}

TEST(ExecuteTest, ByCubeProducesAllRows) {
  auto r = Query(Sales(), "SELECT sum(amount) BY CUBE(city, day)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 2 cities x 10 days fully populated: (2+1)*(10+1) = 33 rows.
  EXPECT_EQ(r->num_rows(), 33u);
  bool grand = false;
  for (const Row& row : r->rows())
    if (row[0].is_all() && row[1].is_all()) grand = true;
  EXPECT_TRUE(grand);
  // Syntax errors.
  EXPECT_FALSE(ParseQuery("SELECT sum(a) BY CUBE x").ok());
  EXPECT_FALSE(ParseQuery("SELECT sum(a) BY CUBE(x").ok());
  EXPECT_FALSE(ParseQuery("SELECT sum(a) BY CUBE()").ok());
}

// Which route ExecuteQuery took, read from the profile's spans: only the
// coded fold opens `vec.aggregate`.
std::string RouteOf(const StatisticalObject& obj, const std::string& text) {
  QueryOptions opt;
  opt.record = false;
  Result<ProfiledQuery> r = QueryProfiled(obj, text, opt);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  if (!r.ok()) return "error";
  for (const obs::SpanRecord& span : r->profile.trace.spans())
    if (span.name == "vec.aggregate") return "coded";
  return "rows";
}

TEST(ExecuteTest, CodedRouteUnlessCodesCannotGroupExactly) {
  for (const char* text : {"SELECT sum(amount) BY city WHERE category = 'cat1'",
                           "SELECT avg(qty), count() BY CUBE(city, month)",
                           "SELECT sum(qty) WHERE store = 'city0/s#0'",
                           "SELECT max(amount) BY product, day"})
    EXPECT_EQ(RouteOf(Sales(), text), "coded") << text;
  // A BY or WHERE on a measure, and an aggregate over a dimension.
  for (const char* text : {"SELECT count() BY qty",
                           "SELECT sum(qty) WHERE amount = 81.0",
                           "SELECT min(store) BY city"})
    EXPECT_EQ(RouteOf(Sales(), text), "rows") << text;
  // Two codes that Value::Compare calls equal (1 and 1.0).
  StatisticalObject twins("twins");
  ASSERT_TRUE(twins.AddDimension(Dimension("code")).ok());
  ASSERT_TRUE(
      twins.AddMeasure({"m", "", MeasureType::kFlow, AggFn::kSum, ""}).ok());
  for (const Value& code : {Value(int64_t(1)), Value(1.0), Value(int64_t(2))})
    ASSERT_TRUE(twins.AddCell({code}, {Value(1.0)}).ok());
  EXPECT_EQ(RouteOf(twins, "SELECT sum(m) BY code"), "rows");
  EXPECT_EQ(RouteOf(twins, "SELECT sum(m) WHERE code = 1"), "coded");
  auto grouped = Query(twins, "SELECT sum(m) BY code");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(grouped->num_rows(), 2u);  // 1 and 1.0 are one group
  // BY codes that do not pack into 64 bits: nine dimensions of 256 values.
  StatisticalObject wide("wide");
  std::string by = "SELECT sum(m), count() BY ";
  for (int c = 0; c < 9; ++c) {
    const std::string name = std::string("c").append(std::to_string(c));
    ASSERT_TRUE(wide.AddDimension(Dimension(name)).ok());
    if (c > 0) by += ", ";
    by += name;
  }
  ASSERT_TRUE(
      wide.AddMeasure({"m", "", MeasureType::kFlow, AggFn::kSum, ""}).ok());
  for (int64_t i = 0; i < 512; ++i) {
    Row dims;
    for (int64_t c = 0; c < 9; ++c)
      dims.push_back(Value(i * (2 * c + 3) % 256));
    ASSERT_TRUE(wide.AddCell(dims, {Value(0.5 * double(i))}).ok());
  }
  EXPECT_EQ(RouteOf(wide, by), "rows");
  auto reference = Query(wide, by);
  auto parsed = ParseQuery(by);
  ASSERT_TRUE(reference.ok() && parsed.ok());
  for (int threads : {1, 4}) {
    auto executed = ExecuteQuery(wide, *parsed, threads);
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    EXPECT_EQ(executed->ToJson(), reference->ToJson()) << threads;
  }
}

// ------------------------------------------------- reference pipeline

// The executor as it stood before its single-pass rewrite, kept as the test
// oracle: copy the base table, derive each referenced hierarchy level row by
// row with ClassificationHierarchy::Ancestors, then filter with Select.
Result<Table> ReferenceRows(const StatisticalObject& obj,
                            const ParsedQuery& query) {
  std::set<std::string> referenced;
  for (const auto& b : query.by) referenced.insert(b);
  for (const auto& [attr, v] : query.where) referenced.insert(attr);
  Table data = obj.data();
  for (const auto& attr : referenced) {
    if (obj.DimensionNamed(attr).ok()) continue;
    if (data.schema().Contains(attr)) continue;
    bool resolved = false;
    for (const auto& d : obj.dimensions()) {
      auto lv = d.LevelNamed(attr);
      if (!lv.ok() || lv->second == 0) continue;
      const ClassificationHierarchy* hier = lv->first;
      size_t level = lv->second;
      for (size_t step = 0; step < level; ++step) {
        if (!hier->IsStrictAt(step))
          return Status::NotSummarizable(
              "attribute '" + attr + "' reached through non-strict "
              "hierarchy '" + hier->name() + "'");
      }
      STATCUBE_ASSIGN_OR_RETURN(size_t leaf_idx,
                                data.schema().IndexOf(d.name()));
      Schema s2 = data.schema();
      s2.AddColumn(attr, ValueType::kString);
      Table derived(data.name(), s2);
      for (const Row& r : data.rows()) {
        STATCUBE_ASSIGN_OR_RETURN(std::vector<Value> anc,
                                  hier->Ancestors(0, r[leaf_idx], level));
        Row r2 = r;
        r2.push_back(anc.empty() ? Value::Null() : anc.front());
        derived.AppendRowUnchecked(std::move(r2));
      }
      data = std::move(derived);
      resolved = true;
      break;
    }
    if (!resolved)
      return Status::NotFound("no dimension, level or measure named '" +
                              attr + "'");
  }
  if (query.where.empty()) return data;
  std::vector<RowPredicate> preds;
  for (const auto& [attr, v] : query.where) {
    STATCUBE_ASSIGN_OR_RETURN(RowPredicate p,
                              expr::ColumnEq(data.schema(), attr, v));
    preds.push_back(std::move(p));
  }
  return Select(data, expr::And(std::move(preds)));
}

// Groups the reference rows with the serial operators.
Result<Table> ReferenceGroup(const Result<Table>& rows,
                             const ParsedQuery& query) {
  if (!rows.ok()) return rows.status();
  std::vector<AggSpec> aggs = query.aggs;
  for (auto& a : aggs)
    if (a.output_name.empty()) a.output_name = a.EffectiveName();
  return query.cube ? CubeBy(*rows, query.by, aggs)
                    : GroupBy(*rows, query.by, aggs);
}

// Same status text, or the same table: name, schema, and every cell with the
// same type and value (doubles bit for bit).
void ExpectSameResult(const Result<Table>& want, const Result<Table>& got,
                      const std::string& what) {
  ASSERT_EQ(want.status().ToString(), got.status().ToString()) << what;
  if (!want.ok()) return;
  ASSERT_EQ(want->name(), got->name()) << what;
  ASSERT_TRUE(want->schema() == got->schema()) << what;
  ASSERT_EQ(want->num_rows(), got->num_rows()) << what;
  for (size_t i = 0; i < want->num_rows(); ++i) {
    for (size_t c = 0; c < want->num_columns(); ++c) {
      const Value& x = want->at(i, c);
      const Value& y = got->at(i, c);
      ASSERT_EQ(x.type(), y.type()) << what << " row " << i << " col " << c;
      if (x.type() == ValueType::kDouble)
        ASSERT_EQ(std::bit_cast<uint64_t>(x.AsDouble()),
                  std::bit_cast<uint64_t>(y.AsDouble()))
            << what << " row " << i << " col " << c;
      else
        ASSERT_TRUE(x == y) << what << " row " << i << " col " << c;
    }
  }
}

// Seeded queries over an object's vocabulary: names that resolve
// (dimensions, hierarchy levels of any index, measures) and one that does
// not; literals drawn from the data and the hierarchies, and some that match
// nothing or have another type.
class QueryGenerator {
 public:
  QueryGenerator(const StatisticalObject& obj, uint64_t seed) : rng_(seed) {
    for (const auto& d : obj.dimensions()) {
      names_.push_back(d.name());
      dims_.push_back(d.name());
      literals_[d.name()] = d.values();
      for (const auto& h : d.hierarchies()) {
        for (size_t l = 0; l < h.num_levels(); ++l) {
          names_.push_back(h.levels()[l]);
          const auto& vals = h.ValuesAt(l);
          auto& pool = literals_[h.levels()[l]];
          pool.insert(pool.end(), vals.begin(), vals.end());
        }
      }
    }
    for (const auto& m : obj.measures()) {
      names_.push_back(m.name);
      measures_.push_back(m.name);
      for (size_t r = 0; r < obj.data().num_rows(); r += 37)
        literals_[m.name].push_back(
            obj.data().at(r, *obj.data().schema().IndexOf(m.name)));
    }
    names_.push_back("ghost");
  }

  std::string Next() {
    static const char* kFns[] = {"sum", "count", "avg", "min",
                                 "max", "stddev", "var"};
    std::string q = "SELECT ";
    for (uint64_t i = 0, n = 1 + rng_.Uniform(2); i < n; ++i) {
      std::string fn = kFns[rng_.Uniform(7)];
      std::string col = rng_.Uniform(6) == 0 ? Pick(names_) : Pick(measures_);
      if (fn == "count" && rng_.Uniform(2) == 0) col.clear();
      q += (i ? ", " : "") + fn + "(" + col + ")";
    }
    if (uint64_t nby = rng_.Uniform(4); nby > 0) {
      const bool cube = rng_.Uniform(4) == 0;
      q += cube ? " BY CUBE(" : " BY ";
      for (uint64_t i = 0; i < nby; ++i) q += (i ? ", " : "") + Pick(names_);
      if (cube) q += ")";
    }
    for (uint64_t i = 0, n = rng_.Uniform(3); i < n; ++i) {
      std::string attr = Pick(names_);
      q += (i ? " AND " : " WHERE ") + attr + " = " + Literal(attr);
    }
    return q;
  }

  // A query a cube backend can answer: one sum over a measure, BY 0-3
  // distinct dimensions, 0-2 WHERE equalities on dimensions — about half of
  // them on a BY dimension or on the dimension the first WHERE fixed.
  std::string NextBackend() {
    std::string q = "SELECT sum(" + Pick(measures_) + ")";
    std::vector<std::string> by;
    for (uint64_t i = 0, n = rng_.Uniform(4); i < n; ++i) {
      const std::string& d = Pick(dims_);
      if (std::find(by.begin(), by.end(), d) == by.end()) by.push_back(d);
    }
    for (size_t i = 0; i < by.size(); ++i)
      q += (i ? ", " : " BY ") + by[i];
    std::vector<std::string> fixed = by;
    for (uint64_t i = 0, n = rng_.Uniform(3); i < n; ++i) {
      const std::string attr = !fixed.empty() && rng_.Uniform(2) == 0
                                   ? Pick(fixed)
                                   : Pick(dims_);
      fixed.push_back(attr);
      q += (i ? " AND " : " WHERE ") + attr + " = " + Literal(attr);
    }
    return q;
  }

 private:
  const std::string& Pick(const std::vector<std::string>& from) {
    return from[rng_.Uniform(from.size())];
  }
  // A literal as the lexer reads it: 'string', integer, or a double with a
  // decimal point. The lexer has no exponents, so a double is written in
  // the shortest fixed notation that reads back to the same bits; a value
  // the language cannot spell (NULL, NaN, an infinity) becomes 0.
  std::string Literal(const std::string& attr) {
    const std::vector<Value>& pool = literals_[attr];
    Value v = !pool.empty() && rng_.Uniform(5) != 0
                  ? pool[rng_.Uniform(pool.size())]
                  : std::vector<Value>{"nowhere", 1, 1.0, -2}[rng_.Uniform(4)];
    if (v.type() == ValueType::kString) return "'" + v.AsString() + "'";
    if (v.type() == ValueType::kInt64) return std::to_string(v.AsInt64());
    if (v.type() != ValueType::kDouble || !std::isfinite(v.AsDouble()))
      return "0";
    char buf[400];  // DBL_MAX in fixed notation is 309 digits
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v.AsDouble(),
                                         std::chars_format::fixed);
    EXPECT_EQ(ec, std::errc());
    std::string text(buf, end);
    if (text.find('.') == std::string::npos) text += ".0";
    return text;
  }

  Rng rng_;
  std::vector<std::string> names_, dims_, measures_;
  std::map<std::string, std::vector<Value>> literals_;
};

// Runs `n` generated queries through ExecuteQuery (threads 1, 2 and 4),
// through Query() and through the test pipeline, and requires identical
// answers — errors included.
void ExpectMatchesReference(const StatisticalObject& obj, uint64_t seed,
                            int n) {
  QueryGenerator gen(obj, seed);
  int errors = 0;
  for (int i = 0; i < n; ++i) {
    const std::string text = gen.Next();
    Result<ParsedQuery> q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    const Result<Table> want = ReferenceGroup(ReferenceRows(obj, *q), *q);
    errors += want.ok() ? 0 : 1;
    for (int threads : {1, 2, 4})
      ExpectSameResult(want, ExecuteQuery(obj, *q, threads),
                       text + " [threads " + std::to_string(threads) + "]");
    ExpectSameResult(want, Query(obj, text), text + " [Query]");
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The battery must exercise both answers and refusals.
  EXPECT_GT(errors, n / 10);
  EXPECT_GT(n - errors, n / 3);
}

// A table's group column names, then its rows as a sorted list of images
// that hold each cell's type and value (doubles by their bits): how a cube
// backend's answer compares with Query()'s, which names its table and its
// aggregate otherwise (olap/backend.h).
std::vector<std::string> Canonical(const Table& t) {
  std::string names;
  for (size_t c = 0; c + 1 < t.num_columns(); ++c)
    names += t.schema().column(c).name + ",";
  std::vector<std::string> rows;
  for (const Row& row : t.rows()) {
    std::string image;
    for (const Value& v : row)
      image += std::string(ValueTypeName(v.type())) + ":" +
               (v.type() == ValueType::kDouble
                    ? std::to_string(std::bit_cast<uint64_t>(v.AsDouble()))
                    : v.ToString()) +
               "|";
    rows.push_back(std::move(image));
  }
  std::sort(rows.begin(), rows.end());
  rows.insert(rows.begin(), names);
  return rows;
}

// Runs `n` generated backend-expressible queries through QueryProfiled on
// each engine (cache off, threads 1 and 4). An answer from the backend must
// equal Query()'s in group column names and the multiset of rows, by bits;
// one that fell back to the relational executor must equal it exactly.
void ExpectBackendsMatchReference(const StatisticalObject& obj,
                                  uint64_t seed, int n,
                                  const std::vector<QueryEngine>& engines) {
  QueryGenerator gen(obj, seed);
  int answered = 0, asked = 0;
  for (int i = 0; i < n; ++i) {
    const std::string text = gen.NextBackend();
    const Result<Table> want = Query(obj, text);
    ASSERT_TRUE(want.ok()) << text << ": " << want.status().ToString();
    for (QueryEngine engine : engines) {
      for (int threads : {1, 4}) {
        const std::string what = text + " [" + QueryEngineName(engine) +
                                 " threads " + std::to_string(threads) + "]";
        QueryOptions opt;
        opt.engine = engine;
        opt.threads = threads;
        opt.record = false;
        Result<ProfiledQuery> got = QueryProfiled(obj, text, opt);
        ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
        ++asked;
        if (got->profile.backend == QueryEngineName(engine)) {
          ++answered;
          ASSERT_EQ(Canonical(*want), Canonical(*got->table)) << what;
        } else {
          ExpectSameResult(want, *got->table, what);
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // Most answers come from the backends themselves.
  EXPECT_GT(answered, asked / 2);
}

// The corners a roll-up must get right: a non-strict step (greens belong to
// food and feed), leaves the hierarchy does not know (durian, a NULL
// product, 2.5, 4 roll up to NULL), int and double leaves that compare
// equal (1 and 1.0, 2 and 2.0), leaves past 2^53 where Value::Compare stops
// being transitive (2^53 + 1 and the double 2^53 are equal, 2^53 + 1 and
// 2^53 are not), a NaN code, which Compare calls equal to every number, a
// product name too long for the kernel's inline key cell, a level name two
// hierarchies share (tier), a level 0 named apart from its dimension (sku),
// NULL measures and a string among the amounts.
StatisticalObject EdgeCaseObject() {
  ClassificationHierarchy kind("kind", {"product", "family", "division"});
  EXPECT_TRUE(kind.Link(0, "apple", "fruit").ok());
  EXPECT_TRUE(kind.Link(0, "pear", "fruit").ok());
  EXPECT_TRUE(kind.Link(0, "kale", "greens").ok());
  EXPECT_TRUE(kind.Link(1, "fruit", "food").ok());
  EXPECT_TRUE(kind.Link(1, "greens", "food").ok());
  EXPECT_TRUE(kind.Link(1, "greens", "feed").ok());
  ClassificationHierarchy shelf("shelf", {"sku", "aisle"});
  EXPECT_TRUE(shelf.Link(0, "apple", "a1").ok());
  EXPECT_TRUE(shelf.Link(0, "kale", "a2").ok());
  ClassificationHierarchy promo("promo", {"product", "tier"});
  EXPECT_TRUE(promo.Link(0, "apple", "gold").ok());
  ClassificationHierarchy promo2("promo2", {"product", "tier"});
  EXPECT_TRUE(promo2.Link(0, "pear", "gold").ok());
  Dimension product("product");
  for (auto* h : {&kind, &shelf, &promo, &promo2}) product.AddHierarchy(*h);

  ClassificationHierarchy band("band", {"code", "band"});
  EXPECT_TRUE(band.Link(0, Value(int64_t(1)), "low").ok());
  EXPECT_TRUE(band.Link(0, Value(2.0), "low").ok());
  EXPECT_TRUE(band.Link(0, Value(int64_t(3)), "high").ok());
  const int64_t two53 = int64_t(1) << 53;
  EXPECT_TRUE(band.Link(0, Value(two53), "big").ok());
  EXPECT_TRUE(band.Link(0, Value(two53 + 1), "huge").ok());
  Dimension code("code");
  code.AddHierarchy(band);

  StatisticalObject obj("edge");
  EXPECT_TRUE(obj.AddDimension(product).ok());
  EXPECT_TRUE(obj.AddDimension(code).ok());
  EXPECT_TRUE(obj.AddDimension(Dimension("year", DimensionKind::kTemporal))
                  .ok());
  EXPECT_TRUE(
      obj.AddMeasure({"amount", "", MeasureType::kFlow, AggFn::kSum, ""})
          .ok());
  EXPECT_TRUE(
      obj.AddMeasure({"qty", "", MeasureType::kFlow, AggFn::kSum, ""}).ok());
  const std::vector<Value> products = {"apple", "pear", "kale", "durian",
                                       Value::Null(),
                                       "dragon fruit, extra large"};
  const std::vector<Value> codes = {
      int64_t(1), 1.0, int64_t(2), 2.0, int64_t(3), 3.0, 2.5, int64_t(4),
      two53 + 1,  double(two53), std::nan("")};
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    Value amount = Value(double(rng.Uniform(1000)) / 8);
    if (rng.Uniform(6) == 0) amount = Value::Null();
    if (rng.Uniform(25) == 0) amount = Value("n/a");
    Value qty = rng.Uniform(7) == 0 ? Value::Null()
                                    : Value(int64_t(rng.Uniform(20)));
    EXPECT_TRUE(obj.AddCell({products[rng.Uniform(products.size())],
                             codes[rng.Uniform(codes.size())],
                             Value(int64_t(2000 + rng.Uniform(3)))},
                            {amount, qty})
                    .ok());
  }
  return obj;
}

TEST(ReferencePipelineTest, Retail) {
  RetailOptions opt;
  opt.num_products = 12;
  opt.num_stores = 6;
  opt.num_cities = 3;
  opt.num_days = 40;
  opt.num_rows = 600;
  ExpectMatchesReference(MakeRetailWorkload(opt)->object, 1, 300);
}

TEST(ReferencePipelineTest, Census) {
  CensusOptions opt;
  opt.num_states = 3;
  opt.counties_per_state = 3;
  opt.num_races = 2;
  opt.num_age_groups = 3;
  opt.num_years = 2;
  ExpectMatchesReference(MakeCensusWorkload(opt).ValueOrDie(), 2, 300);
}

TEST(ReferencePipelineTest, EdgeCases) {
  const StatisticalObject obj = EdgeCaseObject();
  // The corners are really there: 1.0 and 2 roll up through 1 and 2.0,
  // durian, the NULL product and 2.5 roll up to NULL, and division is
  // refused. (NaN is equal to every code, so it proves nothing here.)
  auto bands = Query(obj, "SELECT count() BY code, band");
  ASSERT_TRUE(bands.ok()) << bands.status().ToString();
  int checked = 0;
  bool nan_code = false;
  for (const Row& r : bands->rows()) {
    if (r[0].type() == ValueType::kDouble && std::isnan(r[0].AsDouble())) {
      nan_code = true;
    } else if (r[0] == Value(1) || r[0] == Value(2)) {
      EXPECT_EQ(r[1], Value("low")) << r[0].ToString();
      ++checked;
    } else if (r[0] == Value(2.5)) {
      EXPECT_TRUE(r[1].is_null());
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3);
  EXPECT_TRUE(nan_code);
  auto family = Query(obj, "SELECT count() BY product, family");
  ASSERT_TRUE(family.ok()) << family.status().ToString();
  int unknown = 0;
  for (const Row& r : family->rows()) {
    const bool known = !r[0].is_null() && r[0].AsString() != "durian" &&
                       r[0].AsString().size() <= 16;
    EXPECT_EQ(r[1].is_null(), !known) << r[0].ToString();
    unknown += known ? 0 : 1;
  }
  EXPECT_EQ(unknown, 3);
  // A string amount counts but adds nothing.
  auto amounts =
      Query(obj, "SELECT count(amount), sum(amount) WHERE amount = 'n/a'");
  ASSERT_TRUE(amounts.ok()) << amounts.status().ToString();
  ASSERT_EQ(amounts->num_rows(), 1u);
  EXPECT_GT(amounts->at(0, 0).AsInt64(), 0);
  EXPECT_EQ(amounts->at(0, 1), Value(0.0));
  EXPECT_EQ(Query(obj, "SELECT count() BY division").status().code(),
            StatusCode::kNotSummarizable);
  ExpectMatchesReference(obj, 3, 400);
}

TEST(ReferencePipelineTest, CubeBackendsRetail) {
  RetailOptions opt;
  opt.num_products = 12;
  opt.num_stores = 6;
  opt.num_cities = 3;
  opt.num_days = 40;
  opt.num_rows = 600;
  ExpectBackendsMatchReference(MakeRetailWorkload(opt)->object, 4, 150,
                               {QueryEngine::kRolap,
                                QueryEngine::kRolapBitmap});
}

// MOLAP reports every cell of the cross product (§6.6), so it answers like
// the relational executor only where every cell is occupied: on census.
TEST(ReferencePipelineTest, CubeBackendsCensus) {
  CensusOptions opt;
  opt.num_states = 3;
  opt.counties_per_state = 3;
  opt.num_races = 2;
  opt.num_age_groups = 3;
  opt.num_years = 2;
  ExpectBackendsMatchReference(
      MakeCensusWorkload(opt).ValueOrDie(), 5, 150,
      {QueryEngine::kMolap, QueryEngine::kRolap, QueryEngine::kRolapBitmap});
}

TEST(ReferencePipelineTest, CubeBackendsEdgeCases) {
  ExpectBackendsMatchReference(EdgeCaseObject(), 6, 150,
                               {QueryEngine::kRolap,
                                QueryEngine::kRolapBitmap});
}

}  // namespace
}  // namespace statcube
