// ExecuteQuery with chosen kernel options — thread count and morsel size —
// held to the Query() reference bit for bit, for the kernel tests
// (parallel_equivalence_test and the vectorized group-by tests). The helper
// also checks the query ran on the code columns, so a silent fall-back to
// the row route (which is Query() itself) cannot pass for the kernel.

#ifndef STATCUBE_TESTS_CODED_QUERY_H_
#define STATCUBE_TESTS_CODED_QUERY_H_

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "statcube/core/statistical_object.h"
#include "statcube/exec/parallel_kernels.h"
#include "statcube/obs/query_profile.h"
#include "statcube/query/parser.h"

namespace statcube {

// Bit-exact table equality: same name, schema, row count, and per cell the
// same Value type with doubles compared by bit pattern (no epsilon).
inline void ExpectTablesIdentical(const Table& a, const Table& b,
                                  const std::string& what) {
  EXPECT_EQ(a.name(), b.name()) << what;
  ASSERT_TRUE(a.schema() == b.schema()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      const Value& x = a.row(i)[c];
      const Value& y = b.row(i)[c];
      ASSERT_EQ(x.type(), y.type())
          << what << " row " << i << " col " << c;
      if (x.type() == ValueType::kDouble) {
        double dx = x.AsDouble(), dy = y.AsDouble();
        uint64_t bx, by;
        std::memcpy(&bx, &dx, sizeof bx);
        std::memcpy(&by, &dy, sizeof by);
        ASSERT_EQ(bx, by) << what << " row " << i << " col " << c
                          << ": " << dx << " vs " << dy;
      } else {
        ASSERT_TRUE(x == y) << what << " row " << i << " col " << c << ": "
                            << x.ToString() << " vs " << y.ToString();
      }
    }
  }
}

// An object over dimensions `dims` and one measure v, one cell per
// (coordinates, v) pair.
inline StatisticalObject CellObject(
    const std::string& name, const std::vector<std::string>& dims,
    const std::vector<std::pair<Row, Value>>& cells) {
  StatisticalObject obj(name);
  for (const std::string& d : dims)
    EXPECT_TRUE(obj.AddDimension(Dimension(d)).ok());
  EXPECT_TRUE(
      obj.AddMeasure({"v", "", MeasureType::kFlow, AggFn::kSum, ""}).ok());
  for (const auto& [coords, v] : cells)
    EXPECT_TRUE(obj.AddCell(coords, {v}).ok());
  return obj;
}

// A one-dimension (k), one-measure (v) object over `cells`.
inline StatisticalObject KvObject(
    const std::string& name,
    const std::vector<std::pair<Value, Value>>& cells) {
  std::vector<std::pair<Row, Value>> rows;
  for (const auto& [k, v] : cells) rows.emplace_back(Row{k}, v);
  return CellObject(name, {"k"}, rows);
}

// ExecuteQuery(obj, text, options) is Query(obj, text), bit for bit, and
// ran on the code columns: its profile holds the coded fold's
// `vec.aggregate` span, which the row route never opens.
inline void ExpectCodedMatchesQuery(const StatisticalObject& obj,
                                    const std::string& text,
                                    const exec::ExecOptions& options) {
  SCOPED_TRACE(::testing::Message()
               << text << " at " << options.threads << " threads, morsel "
               << options.morsel_rows);
  Result<Table> reference = Query(obj, text);
  ASSERT_TRUE(reference.ok()) << reference.status();
  Result<ParsedQuery> parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  obs::EnabledScope enabled(true);
  obs::ProfileScope scope;
  Result<Table> executed = ExecuteQuery(obj, *parsed, options);
  const obs::QueryProfile profile = scope.Take();
  ASSERT_TRUE(executed.ok()) << executed.status();
  ExpectTablesIdentical(*reference, *executed, text);
  bool coded = false;
  for (const obs::SpanRecord& span : profile.trace.spans())
    coded = coded || span.name == "vec.aggregate";
  EXPECT_TRUE(coded) << "ran on the row route";
}

}  // namespace statcube

#endif  // STATCUBE_TESTS_CODED_QUERY_H_
