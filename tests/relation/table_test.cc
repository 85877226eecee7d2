#include "relation/table.h"

#include <gtest/gtest.h>

namespace privmark {
namespace {

Schema TwoColumnSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddColumn({"id", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  EXPECT_TRUE(schema.AddColumn({"grp", ColumnRole::kQuasiCategorical,
                                ValueType::kString}).ok());
  return schema;
}

Table MakeGroupedTable() {
  Table t(TwoColumnSchema());
  const char* groups[] = {"a", "a", "b", "b", "b", "c"};
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(t.AppendRow({Value::String("id" + std::to_string(i)),
                             Value::String(groups[i])}).ok());
  }
  return t;
}

TEST(TableTest, AppendChecksArity) {
  Table t(TwoColumnSchema());
  EXPECT_TRUE(t.AppendRow({Value::String("x"), Value::String("y")}).ok());
  EXPECT_EQ(t.AppendRow({Value::String("x")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, CellAccessAndSet) {
  Table t = MakeGroupedTable();
  EXPECT_EQ(t.at(2, 1).AsString(), "b");
  t.Set(2, 1, Value::String("z"));
  EXPECT_EQ(t.at(2, 1).AsString(), "z");
}

TEST(TableTest, ColumnValues) {
  const Table t = MakeGroupedTable();
  const std::vector<Value> grp = t.ColumnValues(1);
  ASSERT_EQ(grp.size(), 6u);
  EXPECT_EQ(grp[0].AsString(), "a");
  EXPECT_EQ(grp[5].AsString(), "c");
}

TEST(TableTest, GroupByCountsAndOrder) {
  const Table t = MakeGroupedTable();
  const std::vector<Bin> bins = t.GroupBy({1});
  ASSERT_EQ(bins.size(), 3u);
  // Bins come back in ascending key order.
  EXPECT_EQ(bins[0].key[0].AsString(), "a");
  EXPECT_EQ(bins[0].size(), 2u);
  EXPECT_EQ(bins[1].key[0].AsString(), "b");
  EXPECT_EQ(bins[1].size(), 3u);
  EXPECT_EQ(bins[2].key[0].AsString(), "c");
  EXPECT_EQ(bins[2].size(), 1u);
}

TEST(TableTest, GroupByMultipleColumns) {
  Table t(TwoColumnSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("x"), Value::String("g")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::String("x"), Value::String("g")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::String("y"), Value::String("g")}).ok());
  const std::vector<Bin> bins = t.GroupBy({0, 1});
  EXPECT_EQ(bins.size(), 2u);
}

TEST(TableTest, MinBinSizeAndKAnonymity) {
  const Table t = MakeGroupedTable();
  EXPECT_EQ(t.MinBinSize({1}), 1u);
  EXPECT_TRUE(t.IsKAnonymous({1}, 1));
  EXPECT_FALSE(t.IsKAnonymous({1}, 2));
}

TEST(TableTest, MinBinSizeEmptyTable) {
  Table t(TwoColumnSchema());
  EXPECT_EQ(t.MinBinSize({1}), 0u);
}

TEST(TableTest, RemoveRowsDropsAndPreservesOrder) {
  Table t = MakeGroupedTable();
  t.RemoveRows({1, 3});
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.at(0, 0).AsString(), "id0");
  EXPECT_EQ(t.at(1, 0).AsString(), "id2");
  EXPECT_EQ(t.at(2, 0).AsString(), "id4");
  EXPECT_EQ(t.at(3, 0).AsString(), "id5");
}

TEST(TableTest, RemoveRowsHandlesDuplicatesAndUnsorted) {
  Table t = MakeGroupedTable();
  t.RemoveRows({5, 0, 5, 0});
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.at(0, 0).AsString(), "id1");
  EXPECT_EQ(t.at(3, 0).AsString(), "id4");
}

TEST(TableTest, RemoveNoRowsIsNoop) {
  Table t = MakeGroupedTable();
  t.RemoveRows({});
  EXPECT_EQ(t.num_rows(), 6u);
}

TEST(TableTest, CloneIsDeep) {
  Table t = MakeGroupedTable();
  Table copy = t.Clone();
  copy.Set(0, 1, Value::String("mutated"));
  EXPECT_EQ(t.at(0, 1).AsString(), "a");
  EXPECT_EQ(copy.at(0, 1).AsString(), "mutated");
  EXPECT_EQ(copy.num_rows(), t.num_rows());
  EXPECT_EQ(copy.schema(), t.schema());
}

TEST(TableTest, SliceCopiesRowRangeAndClampsEnd) {
  const Table t = MakeGroupedTable();
  const Table middle = t.Slice(2, 5);
  ASSERT_EQ(middle.num_rows(), 3u);
  EXPECT_EQ(middle.at(0, 0).AsString(), "id2");
  EXPECT_EQ(middle.at(2, 0).AsString(), "id4");
  EXPECT_EQ(middle.schema().num_columns(), t.schema().num_columns());
  // End past the table clamps; an empty range yields an empty table.
  EXPECT_EQ(t.Slice(4, 100).num_rows(), 2u);
  EXPECT_EQ(t.Slice(6, 10).num_rows(), 0u);
  EXPECT_EQ(t.Slice(3, 3).num_rows(), 0u);
}

TEST(TableTest, AppendConcatenatesRowsAndChecksArity) {
  const Table t = MakeGroupedTable();
  Table joined = t.Slice(0, 2);
  ASSERT_TRUE(joined.Append(t.Slice(2, 6)).ok());
  ASSERT_EQ(joined.num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) EXPECT_EQ(joined.row(r), t.row(r));
  ASSERT_TRUE(joined.Append(Table(TwoColumnSchema())).ok());
  ASSERT_TRUE(joined.Append(Table()).ok());
  EXPECT_EQ(joined.num_rows(), t.num_rows());

  Schema one_column;
  ASSERT_TRUE(one_column.AddColumn({"id", ColumnRole::kIdentifying,
                                    ValueType::kString}).ok());
  Table narrow(one_column);
  ASSERT_TRUE(narrow.AppendRow({Value::String("x")}).ok());
  EXPECT_EQ(joined.Append(narrow).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(joined.num_rows(), t.num_rows());
}

TEST(BinTest, SizeReportsMemberCount) {
  Bin bin{{Value::String("k")}, {0, 3, 4}};
  EXPECT_EQ(bin.size(), 3u);
}

}  // namespace
}  // namespace privmark
