// End-to-end integration: generate -> bin -> watermark -> attack -> detect
// -> dispute, plus persistence through CSV, on one shared protected data
// set (the full Fig. 2 pipeline exercised the way the paper's Sec. 7
// evaluation uses it).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "attack/attacks.h"
#include "core/framework.h"
#include "datagen/medical_data.h"
#include "relation/csv.h"
#include "testing/temp_dir.h"
#include "watermark/ownership.h"

namespace privmark {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MedicalDataSpec spec;
    spec.num_rows = 6000;
    spec.seed = 20050405;
    dataset_ = new MedicalDataset(
        std::move(GenerateMedicalDataset(spec)).ValueOrDie());

    FrameworkConfig config;
    config.binning.k = 20;
    config.binning.enforce_joint = false;
    config.binning.encryption_passphrase = "integration-pass";
    config.key.k1 = "int-k1";
    config.key.k2 = "int-k2";
    config.key.eta = 20;
    framework_ = new ProtectionFramework(
        MetricsFromDepthCuts(dataset_->trees(), {2, 1, 2, 1, 1}).ValueOrDie(),
        config);
    outcome_ = new ProtectionOutcome(
        std::move(framework_->Protect(dataset_->table)).ValueOrDie());
  }

  static void TearDownTestSuite() {
    delete outcome_;
    delete framework_;
    delete dataset_;
    outcome_ = nullptr;
    framework_ = nullptr;
    dataset_ = nullptr;
  }

  static MedicalDataset* dataset_;
  static ProtectionFramework* framework_;
  static ProtectionOutcome* outcome_;
};

MedicalDataset* PipelineTest::dataset_ = nullptr;
ProtectionFramework* PipelineTest::framework_ = nullptr;
ProtectionOutcome* PipelineTest::outcome_ = nullptr;

TEST_F(PipelineTest, EveryAttributeIsKAnonymous) {
  for (size_t col : outcome_->binning.qi_columns) {
    EXPECT_GE(outcome_->binning.binned.MinBinSize({col}), 20u);
  }
}

TEST_F(PipelineTest, NoOriginalQiValueLeaksIntoBinnedTable) {
  // Every binned quasi-identifier cell must be a generalization-node label,
  // and every identifier must be unlinkable ciphertext.
  const size_t ident = *dataset_->table.schema().IdentifyingColumn();
  for (size_t r = 0; r < 200; ++r) {
    EXPECT_NE(outcome_->binning.binned.at(r, ident).ToString(),
              dataset_->table.at(r, ident).ToString());
  }
}

TEST_F(PipelineTest, CleanDetectionIsExact) {
  HierarchicalWatermarker wm = framework_->MakeWatermarker(outcome_->binning);
  auto detect = wm.Detect(outcome_->watermarked, outcome_->mark.size(),
                          outcome_->embed.wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_EQ(detect->recovered, outcome_->mark);
}

TEST_F(PipelineTest, SurvivesModerateDeletion) {
  HierarchicalWatermarker wm = framework_->MakeWatermarker(outcome_->binning);
  Table attacked = outcome_->watermarked.Clone();
  Random rng(77);
  ASSERT_TRUE(SubsetDeletionAttack(&attacked, 0.5, &rng).ok());
  auto detect = wm.Detect(attacked, outcome_->mark.size(),
                          outcome_->embed.wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_LE(*MarkLossAgainst(outcome_->mark, detect->recovered), 0.15);
}

TEST_F(PipelineTest, SurvivesModerateAlteration) {
  HierarchicalWatermarker wm = framework_->MakeWatermarker(outcome_->binning);
  Table attacked = outcome_->watermarked.Clone();
  Random rng(78);
  ASSERT_TRUE(SubsetAlterationAttack(&attacked, outcome_->binning.qi_columns,
                                     0.4, &rng)
                  .ok());
  auto detect = wm.Detect(attacked, outcome_->mark.size(),
                          outcome_->embed.wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_LE(*MarkLossAgainst(outcome_->mark, detect->recovered), 0.15);
}

TEST_F(PipelineTest, SurvivesMassiveAddition) {
  HierarchicalWatermarker wm = framework_->MakeWatermarker(outcome_->binning);
  Table attacked = outcome_->watermarked.Clone();
  Random rng(79);
  ASSERT_TRUE(SubsetAdditionAttack(&attacked, 1.0, &rng).ok());
  auto detect = wm.Detect(attacked, outcome_->mark.size(),
                          outcome_->embed.wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_LE(*MarkLossAgainst(outcome_->mark, detect->recovered), 0.15);
}

TEST_F(PipelineTest, SurvivesGeneralizationAttack) {
  HierarchicalWatermarker wm = framework_->MakeWatermarker(outcome_->binning);
  Table attacked = outcome_->watermarked.Clone();
  auto report = GeneralizationAttack(&attacked, outcome_->binning.qi_columns,
                                     framework_->metrics().maximal, 1);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->cells_changed, 0u);
  auto detect = wm.Detect(attacked, outcome_->mark.size(),
                          outcome_->embed.wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_LE(*MarkLossAgainst(outcome_->mark, detect->recovered), 0.05);
}

TEST_F(PipelineTest, SurvivesCombinedAttack) {
  HierarchicalWatermarker wm = framework_->MakeWatermarker(outcome_->binning);
  Table attacked = outcome_->watermarked.Clone();
  Random rng(80);
  ASSERT_TRUE(SubsetDeletionAttack(&attacked, 0.2, &rng).ok());
  ASSERT_TRUE(SubsetAdditionAttack(&attacked, 0.2, &rng).ok());
  ASSERT_TRUE(SubsetAlterationAttack(&attacked, outcome_->binning.qi_columns,
                                     0.2, &rng)
                  .ok());
  ASSERT_TRUE(GeneralizationAttack(&attacked, outcome_->binning.qi_columns,
                                   framework_->metrics().maximal, 1)
                  .ok());
  auto detect = wm.Detect(attacked, outcome_->mark.size(),
                          outcome_->embed.wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_LE(*MarkLossAgainst(outcome_->mark, detect->recovered), 0.25);
}

TEST_F(PipelineTest, OwnershipSurvivesAttackedTable) {
  HierarchicalWatermarker wm = framework_->MakeWatermarker(outcome_->binning);
  Table attacked = outcome_->watermarked.Clone();
  Random rng(81);
  ASSERT_TRUE(SubsetDeletionAttack(&attacked, 0.3, &rng).ok());
  const Aes128 cipher = Aes128::FromPassphrase("integration-pass");
  OwnershipConfig oc;
  oc.match_threshold = 0.75;
  oc.tau = 0.03;  // 30% deletion drifts the SSN mean by ~1%
  auto verdict = ResolveDispute(attacked, wm, cipher,
                                outcome_->identifier_statistic,
                                outcome_->embed.wmd_size, oc);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->statistic_consistent);
  EXPECT_TRUE(verdict->ownership_established);
}

TEST_F(PipelineTest, ProtectedTableRoundTripsThroughCsv) {
  const std::string path = TestTempPath("privmark_pipeline.csv");
  ASSERT_TRUE(WriteTableCsv(outcome_->watermarked, path).ok());
  auto loaded = ReadTableCsv(path, outcome_->watermarked.schema());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_rows(), outcome_->watermarked.num_rows());
  // Detection works identically on the reloaded table.
  HierarchicalWatermarker wm = framework_->MakeWatermarker(outcome_->binning);
  auto detect = wm.Detect(*loaded, outcome_->mark.size(),
                          outcome_->embed.wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_EQ(detect->recovered, outcome_->mark);
  std::remove(path.c_str());
}

TEST_F(PipelineTest, DeterministicEndToEnd) {
  // Re-running the whole pipeline reproduces the identical watermarked
  // table (keys, data and attacks are all seeded).
  auto again = framework_->Protect(dataset_->table);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->watermarked.num_rows(), outcome_->watermarked.num_rows());
  for (size_t r = 0; r < again->watermarked.num_rows(); ++r) {
    for (size_t c = 0; c < again->watermarked.num_columns(); ++c) {
      ASSERT_EQ(again->watermarked.at(r, c), outcome_->watermarked.at(r, c))
          << r << "," << c;
    }
  }
}

}  // namespace
}  // namespace privmark
