// Tests for query auditing (§7): the log records every decision, and
// heavily-touched rows are identifiable.

#include "statcube/privacy/audit.h"

#include <gtest/gtest.h>

#include "statcube/common/rng.h"

namespace statcube {
namespace {

Table MakePeople(int n) {
  Schema s;
  s.AddColumn("sex", ValueType::kString);
  s.AddColumn("dept", ValueType::kString);
  s.AddColumn("salary", ValueType::kInt64);
  Table t("people", s);
  Rng rng(6);
  for (int i = 0; i < n; ++i) {
    t.AppendRowUnchecked({Value(rng.Bernoulli(0.5) ? "M" : "F"),
                          Value(i % 7 == 0 ? "exec" : "staff"),
                          Value(int64_t(40000 + rng.Uniform(60000)))});
  }
  return t;
}

TEST(AuditTest, LogsAnswersAndRefusals) {
  Table micro = MakePeople(100);
  AuditedDatabase db(micro, {.min_query_set_size = 5});
  auto male = expr::ColumnEq(micro.schema(), "sex", Value("M"));
  ASSERT_TRUE(male.ok());
  auto exec_f = expr::And(
      {*expr::ColumnEq(micro.schema(), "dept", Value("exec")),
       *expr::ColumnEq(micro.schema(), "sex", Value("F"))});

  ASSERT_TRUE(db.Query("avg salary of men", AggFn::kAvg, "salary", *male).ok());
  auto refused = db.Query("avg salary of female execs", AggFn::kAvg, "salary",
                          exec_f);
  // Small group: likely refused (15 execs, ~half female — may pass 5).
  ASSERT_EQ(db.log().size(), 2u);
  const AuditRecord& first = db.log()[0];
  EXPECT_EQ(first.description, "avg salary of men");
  EXPECT_TRUE(first.answered);
  EXPECT_GT(first.query_set_size, 0u);
  EXPECT_TRUE(first.refusal_reason.empty());
  const AuditRecord& second = db.log()[1];
  EXPECT_EQ(second.answered, refused.ok());
  if (!refused.ok()) {
    EXPECT_FALSE(second.refusal_reason.empty());
  }
}

TEST(AuditTest, TouchCountsOnlyAnsweredQueries) {
  Table micro = MakePeople(60);
  AuditedDatabase db(micro, {.min_query_set_size = 5});
  auto male = expr::ColumnEq(micro.schema(), "sex", Value("M"));
  ASSERT_TRUE(male.ok());
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(db.Query("men", AggFn::kCountAll, "", *male).ok());
  // A refused query must not bump counts.
  auto nobody = expr::ColumnEq(micro.schema(), "dept", Value("ghost_dept"));
  ASSERT_TRUE(nobody.ok());
  EXPECT_FALSE(db.Query("nobody", AggFn::kCountAll, "", *nobody).ok());

  for (size_t i = 0; i < micro.num_rows(); ++i) {
    bool is_male = micro.at(i, 0) == Value("M");
    EXPECT_EQ(db.TouchCount(i), is_male ? 3u : 0u) << i;
  }
  auto hot = db.HeavilyQueriedRows(2);
  size_t males = 0;
  for (size_t i = 0; i < micro.num_rows(); ++i)
    if (micro.at(i, 0) == Value("M")) ++males;
  EXPECT_EQ(hot.size(), males);
  EXPECT_TRUE(db.HeavilyQueriedRows(3).empty());
}

}  // namespace
}  // namespace statcube
