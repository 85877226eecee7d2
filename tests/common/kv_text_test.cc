#include "common/kv_text.h"

#include <gtest/gtest.h>

#include <string>

namespace privmark {
namespace {

TEST(KvTextTest, SplitsTopLevelFieldsAndSections) {
  auto parsed = ParseKvText(
      "\n  a = 1  \nb = x = y\n\n[one]\na = 2\n[two]\n[one]\nc = [3]\n",
      "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->top.fields.size(), 2u);
  EXPECT_EQ(parsed->top.fields[0].key, "a");
  EXPECT_EQ(parsed->top.fields[0].value, "1");
  // Split at the first " = "; the rest is the value, verbatim.
  EXPECT_EQ(*parsed->top.Find("b"), "x = y");
  EXPECT_EQ(parsed->top.Find("c"), nullptr);
  ASSERT_EQ(parsed->sections.size(), 3u);
  EXPECT_EQ(parsed->sections[0].name, "one");
  EXPECT_EQ(*parsed->sections[0].Find("a"), "2");
  EXPECT_TRUE(parsed->sections[1].fields.empty());
  EXPECT_EQ(*parsed->sections[2].Find("c"), "[3]");
  EXPECT_TRUE(parsed->header.empty());
}

TEST(KvTextTest, ValuePredicateAcceptsOneLineValuesWithoutPadding) {
  struct Case {
    std::string value;
    bool valid;
  };
  const Case cases[] = {
      {"a", true},         {"clinic east", true},  {"x = y", true},
      {"[s]", true},       {"", false},            {"a ", false},
      {"a\t", false},      {" a", false},          {"\ta", false},
      {"a\nb", false},     {"a\n[s]", false},      {"a\nb = c", false},
      {"a\rb", false},     {std::string("a\0b", 3), false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(IsKvTextValue(c.value), c.valid) << "'" << c.value << "'";
    if (!c.valid) continue;
    // A valid value is one field of the line "k = <value>", verbatim.
    auto parsed = ParseKvText("k = " + c.value + "\n", "test");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(parsed->sections.empty());
    ASSERT_EQ(parsed->top.fields.size(), 1u);
    EXPECT_EQ(parsed->top.fields[0].value, c.value);
  }
}

TEST(KvTextTest, DuplicateKeysAreRejectedPerScope) {
  auto top = ParseKvText("a = 1\na = 2\n", "thing");
  ASSERT_FALSE(top.ok());
  EXPECT_EQ(top.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(top.status().message(), "thing: duplicate key 'a'");
  auto section = ParseKvText("[s]\na = 1\na = 2\n", "thing");
  ASSERT_FALSE(section.ok());
  EXPECT_EQ(section.status().message(),
            "thing: duplicate key 'a' in a [s] section");
  // The same key in different scopes is fine.
  EXPECT_TRUE(ParseKvText("a = 1\n[s]\na = 2\n[s]\na = 3\n", "thing").ok());
}

TEST(KvTextTest, MalformedLinesAreRejected) {
  for (const char* bad : {"a=1", "a =", "= 1", "just words", "[open",
                          "a = 1\nclose]"}) {
    auto parsed = ParseKvText(bad, "thing");
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("thing: malformed line"),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST(KvTextTest, HeaderLineIsTheFirstNonBlankLine) {
  auto parsed = ParseKvText("\n  magic v1 \n[s]\nk = v\n", "thing",
                            /*header_line=*/true);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->header, "magic v1");
  ASSERT_EQ(parsed->sections.size(), 1u);
  EXPECT_EQ(*parsed->sections[0].Find("k"), "v");
  auto empty = ParseKvText(" \n\n", "thing", /*header_line=*/true);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->header.empty());
}

TEST(KvTextTest, EmptyTextParsesToNothing) {
  auto parsed = ParseKvText("", "thing");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->top.fields.empty());
  EXPECT_TRUE(parsed->sections.empty());
}

}  // namespace
}  // namespace privmark
