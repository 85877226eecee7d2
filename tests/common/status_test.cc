#include "common/status.h"

#include <gtest/gtest.h>

#include <string>

namespace privmark {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  const Status st = Status::InvalidArgument("k must be >= 2");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "k must be >= 2");
  EXPECT_EQ(st.ToString(), "InvalidArgument: k must be >= 2");
}

TEST(StatusTest, AllFactoriesMapToTheirCodes) {
  EXPECT_EQ(Status::KeyError("x").code(), StatusCode::kKeyError);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Unbinnable("x").code(), StatusCode::kUnbinnable);
  EXPECT_EQ(Status::CapacityExceeded("x").code(),
            StatusCode::kCapacityExceeded);
  EXPECT_EQ(Status::VerificationFailed("x").code(),
            StatusCode::kVerificationFailed);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::KeyError("a"), Status::KeyError("a"));
  EXPECT_FALSE(Status::KeyError("a") == Status::KeyError("b"));
  EXPECT_FALSE(Status::KeyError("a") == Status::IOError("a"));
}

TEST(StatusCodeTest, NamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnbinnable), "Unbinnable");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kVerificationFailed),
               "VerificationFailed");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::KeyError("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kKeyError);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

// Counts its copies into `*copies`; moves are free.
struct CopyCounter {
  explicit CopyCounter(int* copies) : copies(copies) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter& other) {
    copies = other.copies;
    ++*copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&&) noexcept = default;

  int* copies;
};

TEST(ResultTest, DereferencingAnRvalueMovesTheValueOut) {
  int copies = 0;
  Result<CopyCounter> moved{CopyCounter(&copies)};
  ASSERT_EQ(copies, 0);
  const CopyCounter taken = *std::move(moved);
  EXPECT_EQ(taken.copies, &copies);
  EXPECT_EQ(copies, 0) << "*std::move(result) copied the value";
  // An lvalue dereference leaves the Result intact, so it copies.
  Result<CopyCounter> kept{CopyCounter(&copies)};
  const CopyCounter copied = *kept;
  EXPECT_EQ(copied.copies, &copies);
  EXPECT_EQ(copies, 1);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Result<int> DoubleIfPositive(int x) {
  PRIVMARK_RETURN_NOT_OK(FailIfNegative(x));
  return x * 2;
}

Result<int> ChainedViaAssign(int x) {
  PRIVMARK_ASSIGN_OR_RETURN(int doubled, DoubleIfPositive(x));
  return doubled + 1;
}

TEST(ResultMacrosTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(DoubleIfPositive(3).ok());
  EXPECT_EQ(DoubleIfPositive(-1).status().code(), StatusCode::kOutOfRange);
}

TEST(ResultMacrosTest, AssignOrReturnUnwrapsAndPropagates) {
  ASSERT_TRUE(ChainedViaAssign(5).ok());
  EXPECT_EQ(*ChainedViaAssign(5), 11);
  EXPECT_EQ(ChainedViaAssign(-2).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace privmark
