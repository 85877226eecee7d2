#include "core/framework.h"

#include <gtest/gtest.h>

#include <memory>

#include "datagen/medical_data.h"
#include "metrics/info_loss.h"

namespace privmark {
namespace {

class FrameworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MedicalDataSpec spec;
    spec.num_rows = 2500;
    spec.seed = 31;
    dataset_ = std::make_unique<MedicalDataset>(
        std::move(GenerateMedicalDataset(spec)).ValueOrDie());
  }

  FrameworkConfig BaseConfig() const {
    FrameworkConfig config;
    config.binning.k = 12;
    config.binning.enforce_joint = false;
    config.key.k1 = "fw-k1";
    config.key.k2 = "fw-k2";
    config.key.eta = 8;
    return config;
  }

  UsageMetrics Metrics() const {
    return MetricsFromDepthCuts(dataset_->trees(), {2, 1, 2, 1, 1})
        .ValueOrDie();
  }

  std::unique_ptr<MedicalDataset> dataset_;
};

TEST_F(FrameworkTest, ProtectProducesAllOutputs) {
  ProtectionFramework fw(Metrics(), BaseConfig());
  auto outcome = fw.Protect(dataset_->table);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->watermarked.num_rows(), dataset_->table.num_rows());
  EXPECT_EQ(outcome->mark.size(), 20u);
  EXPECT_GT(outcome->embed.slots_embedded, 0u);
  EXPECT_GT(outcome->identifier_statistic, 0.0);
  EXPECT_EQ(outcome->seamlessness.size(), 5u);
}

TEST_F(FrameworkTest, MarkIsDerivedFromIdentifierStatistic) {
  ProtectionFramework fw(Metrics(), BaseConfig());
  auto outcome = fw.Protect(dataset_->table);
  ASSERT_TRUE(outcome.ok());
  auto expected = DeriveOwnershipMark(outcome->identifier_statistic, 20,
                                      HashAlgorithm::kSha1);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(outcome->mark, *expected);
}

TEST_F(FrameworkTest, ExplicitMarkIsUsedWhenConfigured) {
  FrameworkConfig config = BaseConfig();
  config.derive_mark_from_identifiers = false;
  config.explicit_mark =
      BitVector::FromString("11110000111100001111").ValueOrDie();
  ProtectionFramework fw(Metrics(), config);
  auto outcome = fw.Protect(dataset_->table);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->mark, config.explicit_mark);
}

TEST_F(FrameworkTest, MissingExplicitMarkRejected) {
  FrameworkConfig config = BaseConfig();
  config.derive_mark_from_identifiers = false;
  ProtectionFramework fw(Metrics(), config);
  EXPECT_FALSE(fw.Protect(dataset_->table).ok());
}

TEST_F(FrameworkTest, DetectionRoundTripThroughFramework) {
  ProtectionFramework fw(Metrics(), BaseConfig());
  auto outcome = fw.Protect(dataset_->table);
  ASSERT_TRUE(outcome.ok());
  HierarchicalWatermarker wm = fw.MakeWatermarker(outcome->binning);
  auto detect = wm.Detect(outcome->watermarked, outcome->mark.size(),
                          outcome->embed.wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_EQ(detect->recovered, outcome->mark);
}

TEST_F(FrameworkTest, WatermarkInterferenceIsMinorWithoutEpsilon) {
  // Sec. 6: without the k+epsilon adjustment, watermark permutation *can*
  // push a handful of size-k bins below k — the interference must stay
  // minor (a few bins at most, exactly what the paper's analysis predicts
  // for bins sitting at the threshold).
  ProtectionFramework fw(Metrics(), BaseConfig());
  auto outcome = fw.Protect(dataset_->table);
  ASSERT_TRUE(outcome.ok());
  for (const auto& row : outcome->seamlessness) {
    EXPECT_GT(row.total_bins, 0u);
    EXPECT_LE(row.bins_below_k, row.total_bins / 10) << row.attribute;
  }
}

TEST_F(FrameworkTest, EpsilonAdjustmentRestoresFig14ZeroViolations) {
  // The Fig. 14 property — zero bins below k after watermarking — holds
  // once the conservative k+epsilon adjustment is applied.
  FrameworkConfig config = BaseConfig();
  config.auto_epsilon = true;
  ProtectionFramework fw(Metrics(), config);
  auto outcome = fw.Protect(dataset_->table);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->epsilon_used, 0u);
  for (const auto& row : outcome->seamlessness) {
    EXPECT_EQ(row.bins_below_k, 0u) << row.attribute;
    EXPECT_GT(row.total_bins, 0u);
  }
}

TEST_F(FrameworkTest, WatermarkingChangesManyBinsButSizesOnly) {
  ProtectionFramework fw(Metrics(), BaseConfig());
  auto outcome = fw.Protect(dataset_->table);
  ASSERT_TRUE(outcome.ok());
  size_t total_changed = 0;
  for (const auto& row : outcome->seamlessness) {
    total_changed += row.bins_size_changed;
    EXPECT_LE(row.bins_size_changed, row.total_bins + 5);
  }
  EXPECT_GT(total_changed, 0u);
}

TEST_F(FrameworkTest, AutoEpsilonKeepsJointBinsAboveK) {
  FrameworkConfig config = BaseConfig();
  config.binning.k = 8;
  config.binning.enforce_joint = true;
  config.auto_epsilon = true;
  // Joint binning needs room to generalize.
  ProtectionFramework fw(UnconstrainedMetrics(dataset_->trees()), config);
  auto outcome = fw.Protect(dataset_->table);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->epsilon_used, 0u);
  // The conservative adjustment guarantees joint bins never fall below the
  // *configured* k even after watermark permutations.
  EXPECT_GE(outcome->watermarked.MinBinSize(outcome->binning.qi_columns),
            config.binning.k);
}

TEST_F(FrameworkTest, WatermarkInfoLossIsMinor) {
  // Fig. 13's qualitative claim: watermarking's extra information loss is
  // small (a few percent at most).
  ProtectionFramework fw(Metrics(), BaseConfig());
  auto outcome = fw.Protect(dataset_->table);
  ASSERT_TRUE(outcome.ok());
  const auto trees = Metrics().trees;
  double extra = 0.0;
  for (size_t c = 0; c < outcome->binning.qi_columns.size(); ++c) {
    const size_t col = outcome->binning.qi_columns[c];
    auto before = ColumnLossAgainstOriginal(
        dataset_->table.ColumnValues(col),
        outcome->binning.binned.ColumnValues(col), *trees[c]);
    auto after = ColumnLossAgainstOriginal(
        dataset_->table.ColumnValues(col),
        outcome->watermarked.ColumnValues(col), *trees[c]);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_GE(*after, *before - 1e-12);
    extra += (*after - *before);
  }
  EXPECT_LT(extra / 5.0, 0.10);
}

TEST(MeasureSeamlessnessTest, CountsChangedAndBelowK) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"g", ColumnRole::kQuasiCategorical,
                                ValueType::kString}).ok());
  Table before(schema);
  Table after(schema);
  // before: a x3, b x3 ; after: a x2, b x4 -> both changed, none < 2.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(before.AppendRow({Value::String("a")}).ok());
    ASSERT_TRUE(before.AppendRow({Value::String("b")}).ok());
  }
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(after.AppendRow({Value::String("a")}).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(after.AppendRow({Value::String("b")}).ok());
  auto rows = MeasureSeamlessness(before, after, {0}, 2);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].total_bins, 2u);
  EXPECT_EQ((*rows)[0].bins_size_changed, 2u);
  EXPECT_EQ((*rows)[0].bins_below_k, 0u);
}

TEST(MeasureSeamlessnessTest, DetectsBelowKBins) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"g", ColumnRole::kQuasiCategorical,
                                ValueType::kString}).ok());
  Table before(schema);
  Table after(schema);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(before.AppendRow({Value::String("a")}).ok());
  }
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(after.AppendRow({Value::String("a")}).ok());
  ASSERT_TRUE(after.AppendRow({Value::String("b")}).ok());
  auto rows = MeasureSeamlessness(before, after, {0}, 2);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0].bins_below_k, 1u);  // the stray "b" bin of size 1
}

TEST(MeasureSeamlessnessTest, RowCountMismatchRejected) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"g", ColumnRole::kQuasiCategorical,
                                ValueType::kString}).ok());
  Table a(schema);
  Table b(schema);
  ASSERT_TRUE(a.AppendRow({Value::String("x")}).ok());
  EXPECT_FALSE(MeasureSeamlessness(a, b, {0}, 2).ok());
}

TEST(ConservativeEpsilonTest, MatchesFormula) {
  // Bins: a x6, b x4 -> s = 6, S = 10; epsilon = ceil(6/10 * 100) = 60.
  EXPECT_EQ(ConservativeEpsilon(6, 10, 100), 60u);
  // Rounds up: ceil(1/3 * 10) = 4.
  EXPECT_EQ(ConservativeEpsilon(1, 3, 10), 4u);
  // Empty table -> 0.
  EXPECT_EQ(ConservativeEpsilon(0, 0, 100), 0u);
}

}  // namespace
}  // namespace privmark
