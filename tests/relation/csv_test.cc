#include "relation/csv.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "testing/temp_dir.h"

namespace privmark {
namespace {

Schema MixedSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddColumn({"ssn", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  EXPECT_TRUE(schema.AddColumn({"age", ColumnRole::kQuasiNumeric,
                                ValueType::kInt64}).ok());
  EXPECT_TRUE(schema.AddColumn({"note", ColumnRole::kOther,
                                ValueType::kString}).ok());
  return schema;
}

TEST(CsvTest, SerializeBasicTable) {
  Table t(MixedSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("123"), Value::Int64(42),
                           Value::String("ok")}).ok());
  EXPECT_EQ(TableToCsv(t), "ssn,age,note\n123,42,ok\n");
}

TEST(CsvTest, RoundTripTypedCells) {
  Table t(MixedSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("a"), Value::Int64(1),
                           Value::String("x")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::String("b"), Value::Int64(2),
                           Value::String("y")}).ok());
  auto back = TableFromCsv(TableToCsv(t), MixedSchema());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->at(0, 1).AsInt64(), 1);
  EXPECT_EQ(back->at(1, 0).AsString(), "b");
}

TEST(CsvTest, GeneralizedLabelsSurviveInNumericColumns) {
  // A binned age cell holds "[25,50)"; it must round-trip as a string even
  // though the column is declared int64.
  Table t(MixedSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("a"), Value::String("[25,50)"),
                           Value::String("x")}).ok());
  auto back = TableFromCsv(TableToCsv(t), MixedSchema());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->at(0, 1).ToString(), "[25,50)");
}

TEST(CsvTest, QuotedFieldsWithCommasAndQuotes) {
  Table t(MixedSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("a,b"), Value::Int64(1),
                           Value::String("say \"hi\"")}).ok());
  const std::string csv = TableToCsv(t);
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  auto back = TableFromCsv(csv, MixedSchema());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->at(0, 0).AsString(), "a,b");
  EXPECT_EQ(back->at(0, 2).AsString(), "say \"hi\"");
}

TEST(CsvTest, EmbeddedNewlineRoundTrips) {
  Table t(MixedSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("line1\nline2"), Value::Int64(5),
                           Value::String("z")}).ok());
  auto back = TableFromCsv(TableToCsv(t), MixedSchema());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->at(0, 0).AsString(), "line1\nline2");
}

TEST(CsvTest, HeaderMismatchRejected) {
  EXPECT_FALSE(TableFromCsv("wrong,age,note\n", MixedSchema()).ok());
  EXPECT_FALSE(TableFromCsv("ssn,age\n", MixedSchema()).ok());
}

TEST(CsvTest, FieldCountMismatchRejected) {
  EXPECT_FALSE(TableFromCsv("ssn,age,note\na,1\n", MixedSchema()).ok());
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  EXPECT_FALSE(TableFromCsv("ssn,age,note\n\"abc,1,x\n", MixedSchema()).ok());
}

TEST(CsvTest, FileRoundTrip) {
  Table t(MixedSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("s1"), Value::Int64(30),
                           Value::String("n1")}).ok());
  const std::string path = TestTempPath("privmark_csv_test.csv");
  ASSERT_TRUE(WriteTableCsv(t, path).ok());
  auto back = ReadTableCsv(path, MixedSchema());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 1u);
  EXPECT_EQ(back->at(0, 2).AsString(), "n1");
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadTableCsv("/nonexistent/nope.csv", MixedSchema())
                .status()
                .code(),
            StatusCode::kIOError);
}

TEST(CsvTest, CrLfLineEndingsAccepted) {
  auto back = TableFromCsv("ssn,age,note\r\na,1,x\r\n", MixedSchema());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 1u);
  EXPECT_EQ(back->at(0, 1).AsInt64(), 1);
}

}  // namespace
}  // namespace privmark
