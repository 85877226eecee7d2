#include "common/strings.h"

#include <gtest/gtest.h>

namespace privmark {
namespace {

TEST(HexTest, EncodeKnownBytes) {
  EXPECT_EQ(HexEncode({0x00, 0xFF, 0x1a}), "00ff1a");
  EXPECT_EQ(HexEncode({}), "");
}

TEST(HexTest, DecodeRoundTrip) {
  const std::vector<uint8_t> bytes = {0xde, 0xad, 0xbe, 0xef, 0x00};
  auto decoded = HexDecode(HexEncode(bytes));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, bytes);
}

TEST(HexTest, DecodeAcceptsUppercase) {
  auto decoded = HexDecode("DEADBEEF");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(HexEncode(*decoded), "deadbeef");
}

TEST(HexTest, DecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(HexTest, DecodeRejectsNonHex) {
  EXPECT_FALSE(HexDecode("zz").ok());
}

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(JoinTest, InvertsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
}

TEST(TrimTest, StripsBothEnds) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("hello"), "hello");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" a b "), "a b");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("privmark", "priv"));
  EXPECT_TRUE(StartsWith("priv", "priv"));
  EXPECT_FALSE(StartsWith("pri", "priv"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(FormatDoubleTest, FixedPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(2.5, 3), "2.500");
}

TEST(ParseDecimalU64Test, AcceptsDigitsUpTo2Pow64Minus1) {
  EXPECT_EQ(*ParseDecimalU64("0", "n"), 0u);
  EXPECT_EQ(*ParseDecimalU64("007", "n"), 7u);
  EXPECT_EQ(*ParseDecimalU64("18446744073709551615", "n"), UINT64_MAX);
}

TEST(ParseDecimalU64Test, RejectsWithMessagesNamingTheField) {
  auto message = [](const std::string& text) {
    return ParseDecimalU64(text, "field 'n'").status().message();
  };
  EXPECT_EQ(message(""), "field 'n' is empty");
  EXPECT_EQ(message("12a"), "field 'n' is not a number: 12a");
  EXPECT_EQ(message("+5"), "field 'n' is not a number: +5");
  EXPECT_EQ(message("-5"), "field 'n' is not a number: -5");
  EXPECT_EQ(message(" 5"), "field 'n' is not a number:  5");
  // 2^64: one past the largest value.
  EXPECT_EQ(message("18446744073709551616"),
            "field 'n' overflows: 18446744073709551616");
  EXPECT_EQ(ParseDecimalU64("", "n").status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace privmark
