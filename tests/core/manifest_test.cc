#include "core/manifest.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "common/durable_file.h"
#include "datagen/medical_data.h"
#include "testing/temp_dir.h"

namespace privmark {
namespace {

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MedicalDataSpec spec;
    spec.num_rows = 1200;
    spec.seed = 77;
    dataset_ = std::make_unique<MedicalDataset>(
        std::move(GenerateMedicalDataset(spec)).ValueOrDie());
    config_.binning.k = 10;
    config_.binning.enforce_joint = false;
    config_.key = {"m-k1", "m-k2", 10};
    metrics_ = std::make_unique<UsageMetrics>(
        MetricsFromDepthCuts(dataset_->trees(), {2, 1, 2, 1, 1})
            .ValueOrDie());
    // A one-shot protect: the whole table as one batch, flushed once.
    session_ = std::make_unique<ProtectionSession>(*metrics_, config_,
                                                   SessionConfig());
    EXPECT_TRUE(session_->Ingest(dataset_->table).ok());
    outcome_ = std::make_unique<ProtectionOutcome>(
        std::move(session_->Flush()).ValueOrDie().outcome);
  }

  ProtectionManifest Build() const {
    std::vector<ProtectionManifest> manifests =
        std::move(SessionManifests(*session_)).ValueOrDie();
    EXPECT_EQ(manifests.size(), 1u);
    return std::move(manifests.front());
  }

  std::unique_ptr<MedicalDataset> dataset_;
  FrameworkConfig config_;
  std::unique_ptr<UsageMetrics> metrics_;
  std::unique_ptr<ProtectionSession> session_;
  std::unique_ptr<ProtectionOutcome> outcome_;
};

TEST_F(ManifestTest, BuildCapturesEmbeddingParameters) {
  const ProtectionManifest manifest = Build();
  EXPECT_EQ(manifest.mark_bits, outcome_->mark.size());
  EXPECT_EQ(manifest.wmd_size, outcome_->embed.wmd_size);
  EXPECT_EQ(manifest.copies, outcome_->embed.copies);
  ASSERT_EQ(manifest.columns.size(), 5u);
  EXPECT_EQ(manifest.columns[0].name, "age");
  EXPECT_EQ(manifest.columns[4].name, "prescription");
  EXPECT_FALSE(manifest.columns[0].ultimate_labels.empty());
  EXPECT_FALSE(manifest.columns[0].maximal_labels.empty());
}

TEST_F(ManifestTest, SerializeParseRoundTrip) {
  const ProtectionManifest manifest = Build();
  auto parsed = ParseManifest(SerializeManifest(manifest));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->mark_bits, manifest.mark_bits);
  EXPECT_EQ(parsed->wmd_size, manifest.wmd_size);
  EXPECT_EQ(parsed->copies, manifest.copies);
  EXPECT_EQ(parsed->epsilon, manifest.epsilon);
  EXPECT_EQ(parsed->hash, manifest.hash);
  ASSERT_EQ(parsed->columns.size(), manifest.columns.size());
  for (size_t c = 0; c < manifest.columns.size(); ++c) {
    EXPECT_EQ(parsed->columns[c].name, manifest.columns[c].name);
    EXPECT_EQ(parsed->columns[c].ultimate_labels,
              manifest.columns[c].ultimate_labels);
    EXPECT_EQ(parsed->columns[c].maximal_labels,
              manifest.columns[c].maximal_labels);
  }
}

TEST_F(ManifestTest, LabelsWithSeparatorsSurvive) {
  ProtectionManifest manifest;
  manifest.mark_bits = 8;
  manifest.wmd_size = 16;
  ManifestColumn column;
  column.name = "weird";
  column.ultimate_labels = {"a|b", "c\\d", "plain"};
  column.maximal_labels = {"root|all"};
  manifest.columns.push_back(column);
  auto parsed = ParseManifest(SerializeManifest(manifest));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->columns[0].ultimate_labels,
            (std::vector<std::string>{"a|b", "c\\d", "plain"}));
  EXPECT_EQ(parsed->columns[0].maximal_labels,
            (std::vector<std::string>{"root|all"}));
}

TEST_F(ManifestTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseManifest("").ok());
  EXPECT_FALSE(ParseManifest("not a manifest").ok());
  EXPECT_FALSE(ParseManifest("privmark-manifest-version = 9\n").ok());
  EXPECT_FALSE(
      ParseManifest("privmark-manifest-version = 1\nmark_bits = x\n").ok());
  EXPECT_FALSE(
      ParseManifest("privmark-manifest-version = 1\nname = orphan\n").ok());
  // Missing mark_bits/wmd_size.
  EXPECT_FALSE(ParseManifest("privmark-manifest-version = 1\n").ok());
}

TEST_F(ManifestTest, WatermarkerFromManifestDetects) {
  const ProtectionManifest manifest = Build();
  // A fresh party with only: the manifest text, the trees, the secret key
  // and the protected table.
  auto parsed = ParseManifest(SerializeManifest(manifest));
  ASSERT_TRUE(parsed.ok());
  auto watermarker = WatermarkerFromManifest(
      *parsed, outcome_->watermarked, dataset_->trees(), config_.key,
      config_.watermark);
  ASSERT_TRUE(watermarker.ok());
  auto detect = watermarker->Detect(outcome_->watermarked,
                                    parsed->mark_bits, parsed->wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_EQ(detect->recovered, outcome_->mark);
}

TEST_F(ManifestTest, WatermarkerFromManifestChecksTrees) {
  const ProtectionManifest manifest = Build();
  auto trees = dataset_->trees();
  trees.pop_back();
  EXPECT_FALSE(WatermarkerFromManifest(manifest, outcome_->watermarked,
                                       trees, config_.key, config_.watermark)
                   .ok());
}

TEST_F(ManifestTest, FileRoundTrip) {
  const ProtectionManifest manifest = Build();
  const std::string path = TestTempPath("privmark_manifest.txt");
  ASSERT_TRUE(WriteFileDurable(path, SerializeManifest(manifest)).ok());
  auto loaded = ReadManifestFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->wmd_size, manifest.wmd_size);
  EXPECT_EQ(loaded->columns.size(), manifest.columns.size());
  std::remove(path.c_str());
  EXPECT_FALSE(ReadManifestFile("/nonexistent/manifest").ok());
}

}  // namespace
}  // namespace privmark
