#include "metrics/privacy.h"

#include <gtest/gtest.h>

#include "binning/binning_engine.h"
#include "datagen/medical_data.h"

namespace privmark {
namespace {

Schema OneColumnSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddColumn({"g", ColumnRole::kQuasiCategorical,
                                ValueType::kString}).ok());
  return schema;
}

Table TableWithBins(const std::vector<std::pair<std::string, int>>& bins) {
  Table t(OneColumnSchema());
  for (const auto& [label, count] : bins) {
    for (int i = 0; i < count; ++i) {
      EXPECT_TRUE(t.AppendRow({Value::String(label)}).ok());
    }
  }
  return t;
}

TEST(EvaluatePrivacyTest, BasicProfile) {
  // Bins: 4, 2, 1 -> k-level 1, one unique record.
  const Table t = TableWithBins({{"a", 4}, {"b", 2}, {"c", 1}});
  auto report = EvaluatePrivacy(t, {0});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->k_anonymity_level, 1u);
  EXPECT_EQ(report->num_bins, 3u);
  EXPECT_EQ(report->unique_records, 1u);
  EXPECT_DOUBLE_EQ(report->max_risk, 1.0);
  // Average risk: (4*(1/4) + 2*(1/2) + 1*1) / 7 = 3/7.
  EXPECT_DOUBLE_EQ(report->average_risk, 3.0 / 7.0);
}

TEST(EvaluatePrivacyTest, UniformBins) {
  const Table t = TableWithBins({{"a", 5}, {"b", 5}});
  auto report = EvaluatePrivacy(t, {0});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->k_anonymity_level, 5u);
  EXPECT_DOUBLE_EQ(report->max_risk, 0.2);
  EXPECT_DOUBLE_EQ(report->average_risk, 0.2);
  EXPECT_EQ(report->unique_records, 0u);
}

TEST(EvaluatePrivacyTest, EmptyTable) {
  Table t(OneColumnSchema());
  auto report = EvaluatePrivacy(t, {0});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->k_anonymity_level, 0u);
  EXPECT_EQ(report->num_bins, 0u);
}

TEST(EvaluatePrivacyTest, Validation) {
  const Table t = TableWithBins({{"a", 2}});
  EXPECT_FALSE(EvaluatePrivacy(t, {}).ok());
  EXPECT_FALSE(EvaluatePrivacy(t, {5}).ok());
}

TEST(PrivacyPipelineTest, RawTableRiskyBinnedTableSafe) {
  MedicalDataSpec spec;
  spec.num_rows = 2000;
  spec.seed = 3;
  auto ds = std::move(GenerateMedicalDataset(spec)).ValueOrDie();
  const auto qi = ds.table.schema().QuasiIdentifyingColumns();

  auto raw = EvaluatePrivacy(ds.table, qi);
  ASSERT_TRUE(raw.ok());
  // Raw clinical data is nearly unique per quasi-identifier combination.
  EXPECT_EQ(raw->k_anonymity_level, 1u);
  EXPECT_GT(raw->unique_records, 1000u);

  BinningConfig config;
  config.k = 10;
  config.enforce_joint = true;
  BinningAgent agent(UnconstrainedMetrics(ds.trees()), config);
  auto outcome = std::move(agent.Run(ds.table)).ValueOrDie();
  auto binned = EvaluatePrivacy(outcome.binned, qi);
  ASSERT_TRUE(binned.ok());
  EXPECT_GE(binned->k_anonymity_level, 10u);
  EXPECT_LE(binned->max_risk, 0.1);
  EXPECT_EQ(binned->unique_records, 0u);
}

}  // namespace
}  // namespace privmark
