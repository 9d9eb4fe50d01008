// Tests for Status / Result error propagation.

#include "statcube/common/status.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

namespace statcube {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kNotSummarizable, StatusCode::kPrivacyRefused,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<int> HalveEven(int x) {
  if (x % 2) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalve(int x, int* out) {
  STATCUBE_ASSIGN_OR_RETURN(*out, HalveEven(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalve(10, &out).ok());
  EXPECT_EQ(out, 5);
  Status s = UseHalve(7, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

Status FailThrough() {
  STATCUBE_RETURN_NOT_OK(Status::Internal("boom"));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacro) {
  EXPECT_EQ(FailThrough().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

// `*std::move(r)` moves the value out, as with std::optional, so a
// move-only payload compiles.
TEST(ResultTest, DereferencingAnRvalueMovesAMoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  std::unique_ptr<int> p = *std::move(r);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, 7);
}

// Counts the copies made of it; moves are free.
struct CopyCounter {
  explicit CopyCounter(int* copies) : copies(copies) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) = default;
  CopyCounter& operator=(const CopyCounter& other) {
    copies = other.copies;
    ++*copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&&) = default;
  int* copies;
};

TEST(ResultTest, DereferencingAnRvalueCopiesNothing) {
  int copies = 0;
  Result<CopyCounter> r{CopyCounter(&copies)};
  CopyCounter moved = *std::move(r);
  EXPECT_EQ(moved.copies, &copies);
  EXPECT_EQ(copies, 0);
  // An lvalue still copies: the counter counts.
  Result<CopyCounter> kept{CopyCounter(&copies)};
  CopyCounter copied = *kept;
  EXPECT_EQ(copied.copies, &copies);
  EXPECT_EQ(copies, 1);
}

}  // namespace
}  // namespace statcube
