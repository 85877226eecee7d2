// Unit coverage for the key-parameterized detection engine: the
// DetectIndex split (index + tally == fused Detect, byte for byte), the
// sharded MultiKeyTally, and registry scans' verdicts, ranking, and
// collusion flag. The 20k-scale equivalence claims live in
// tests/properties/fingerprint_equivalence_test.cc.

#include "watermark/fingerprint.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "watermark/detect_index.h"
#include "watermark/hierarchical.h"
#include "watermark/ownership.h"

namespace privmark {
namespace {

// Three-level tree: 2 chapters x 2 blocks x 2 leaves = 8 leaves.
DomainHierarchy DeepTree() {
  return HierarchyBuilder::FromOutline("sym", R"(All
  C1
    B11
      s111
      s112
    B12
      s121
      s122
  C2
    B21
      s211
      s212
    B22
      s221
      s222)").ValueOrDie();
}

Schema OneQiSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddColumn({"id", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  EXPECT_TRUE(schema.AddColumn({"sym", ColumnRole::kQuasiCategorical,
                                ValueType::kString}).ok());
  return schema;
}

Table MakeBinnedTable(const DomainHierarchy& tree, size_t rows,
                      uint64_t seed) {
  Table t(OneQiSchema());
  Random rng(seed);
  const auto& leaves = tree.Leaves();
  for (size_t r = 0; r < rows; ++r) {
    const NodeId leaf = leaves[rng.Uniform(leaves.size())];
    EXPECT_TRUE(t.AppendRow({Value::String("ident-" + std::to_string(r)),
                             Value::String(tree.node(leaf).label)}).ok());
  }
  return t;
}

struct Env {
  std::unique_ptr<DomainHierarchy> tree;
  Table table;
  WatermarkKey key;
  std::unique_ptr<HierarchicalWatermarker> watermarker;

  GeneralizationSet Ultimate() const {
    return GeneralizationSet::AllLeaves(tree.get());
  }
  GeneralizationSet Maximal() const { return CutAtDepth(tree.get(), 1); }
};

Env MakeSetup(size_t num_threads = 1, size_t rows = 400) {
  Env env;
  env.tree = std::make_unique<DomainHierarchy>(DeepTree());
  env.table = MakeBinnedTable(*env.tree, rows, 11);
  env.key.k1 = "secret-one";
  env.key.k2 = "secret-two";
  env.key.eta = 3;
  WatermarkOptions options;
  options.num_threads = num_threads;
  env.watermarker = std::make_unique<HierarchicalWatermarker>(
      std::vector<size_t>{1}, 0,
      std::vector<GeneralizationSet>{env.Maximal()},
      std::vector<GeneralizationSet>{env.Ultimate()}, env.key, options);
  return env;
}

BitVector TestMark() {
  return BitVector::FromString("10110010011010111001").ValueOrDie();
}

void ExpectSameReport(const DetectReport& a, const DetectReport& b,
                      const std::string& what) {
  EXPECT_EQ(a.recovered.ToString(), b.recovered.ToString()) << what;
  EXPECT_EQ(a.bit_voted, b.bit_voted) << what;
  EXPECT_EQ(a.tuples_selected, b.tuples_selected) << what;
  EXPECT_EQ(a.slots_read, b.slots_read) << what;
  EXPECT_EQ(a.slots_skipped, b.slots_skipped) << what;
  ASSERT_EQ(a.vote_margin.size(), b.vote_margin.size()) << what;
  for (size_t j = 0; j < a.vote_margin.size(); ++j) {
    // Exact, deliberately: margins are sums of whole 1.0s and must match
    // bit for bit.
    EXPECT_EQ(a.vote_margin[j], b.vote_margin[j]) << what << " bit " << j;
  }
}

TEST(DetectIndexTest, IndexTallyMatchesFusedDetectHierarchical) {
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok());
  auto fused = env.watermarker->Detect(marked, wm.size(), embed->wmd_size);
  ASSERT_TRUE(fused.ok());

  auto index = BuildDetectIndex(*env.watermarker, marked);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->num_rows, marked.num_rows());
  EXPECT_EQ(index->num_columns(), 1u);
  auto tally = MultiKeyTally(*index, {env.key}, HashAlgorithm::kSha1,
                             wm.size(), embed->wmd_size, nullptr);
  ASSERT_TRUE(tally.ok()) << tally.status().ToString();
  ASSERT_EQ(tally->size(), 1u);
  ExpectSameReport(*fused, tally->front(), "hierarchical");
}

TEST(DetectIndexTest, TallyValidatesSizesLikeDetect) {
  Env env = MakeSetup();
  auto index = BuildDetectIndex(*env.watermarker, env.table);
  ASSERT_TRUE(index.ok());
  const std::vector<WatermarkKey> keys = {env.key};
  EXPECT_FALSE(
      MultiKeyTally(*index, keys, HashAlgorithm::kSha1, 0, 20, nullptr).ok());
  EXPECT_FALSE(
      MultiKeyTally(*index, keys, HashAlgorithm::kSha1, 20, 0, nullptr).ok());
  EXPECT_FALSE(
      MultiKeyTally(*index, keys, HashAlgorithm::kSha1, 20, 30, nullptr)
          .ok());
}

TEST(MultiKeyTallyTest, MatchesSerialTalliesAcrossThreadCounts) {
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok());
  auto index = BuildDetectIndex(*env.watermarker, marked);
  ASSERT_TRUE(index.ok());

  // The embedded key among wrong keys of varying eta.
  std::vector<WatermarkKey> keys = {env.key};
  Random rng(23);
  for (size_t i = 0; i < 9; ++i) {
    keys.push_back(GenerateKey("decoy-" + std::to_string(i),
                               2 + i % 4, &rng).key);
  }

  // Reference: each key tallied alone, serially.
  std::vector<DetectReport> serial;
  for (const WatermarkKey& key : keys) {
    auto one = MultiKeyTally(*index, {key}, HashAlgorithm::kSha1, wm.size(),
                             embed->wmd_size, nullptr);
    ASSERT_TRUE(one.ok());
    ASSERT_EQ(one->size(), 1u);
    serial.push_back(std::move(one->front()));
  }

  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{16}}) {
    auto pool = MakeThreadPool(threads);
    auto batch = MultiKeyTally(*index, keys, HashAlgorithm::kSha1, wm.size(),
                               embed->wmd_size, pool.get());
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      ExpectSameReport(serial[i], (*batch)[i],
                       "key " + std::to_string(i) + ", " +
                           std::to_string(threads) + " threads");
    }
  }
}

TEST(MultiKeyTallyTest, SpanAndLaneBoundariesMatchFusedDetect) {
  // 2,113 rows: a serial tally crosses two 1,024-row position spans and
  // ends on a one-row block. One full 8-key group mixes odd, even and
  // power-of-two eta (the selection rule's rotate by 0, 1 and 6 bits) and
  // one key whose 250-byte k2 makes every position message stream.
  Env env = MakeSetup(1, 2113);
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok()) << embed.status().ToString();
  auto index = BuildDetectIndex(*env.watermarker, marked);
  ASSERT_TRUE(index.ok());

  const uint64_t etas[] = {1, 2, 64, 75, 96, (uint64_t{1} << 33) + 1, 75, 75};
  std::vector<WatermarkKey> keys;
  for (size_t i = 0; i < 8; ++i) {
    WatermarkKey key = env.key;
    key.k1 += "-" + std::to_string(i);
    key.k2 += "-" + std::to_string(i);
    key.eta = etas[i];
    keys.push_back(key);
  }
  keys[6].k2 = std::string(250, 'z');
  keys[7] = env.key;  // the embedding key, at eta 75
  keys[7].eta = 75;

  std::vector<DetectReport> fused;
  for (const WatermarkKey& key : keys) {
    const HierarchicalWatermarker detector(
        std::vector<size_t>{1}, 0,
        std::vector<GeneralizationSet>{env.Maximal()},
        std::vector<GeneralizationSet>{env.Ultimate()}, key,
        WatermarkOptions{});
    auto report = detector.Detect(marked, wm.size(), embed->wmd_size);
    ASSERT_TRUE(report.ok());
    fused.push_back(std::move(*report));
  }
  EXPECT_EQ(fused[0].tuples_selected, marked.num_rows());

  auto pool = MakeThreadPool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), pool.get()}) {
    auto tally = MultiKeyTally(*index, keys, HashAlgorithm::kSha1, wm.size(),
                               embed->wmd_size, p);
    ASSERT_TRUE(tally.ok()) << tally.status().ToString();
    ASSERT_EQ(tally->size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      ExpectSameReport(fused[i], (*tally)[i],
                       "key " + std::to_string(i) +
                           (p == nullptr ? ", serial" : ", 4 threads"));
    }
  }
}

TEST(MultiKeyTallyTest, EmptyTableAndEmptyKeys) {
  Env env = MakeSetup();
  Table empty(env.table.schema());
  auto index = BuildDetectIndex(*env.watermarker, empty);
  ASSERT_TRUE(index.ok());
  auto pool = MakeThreadPool(3);
  auto batch = MultiKeyTally(*index, {env.key, env.key}, HashAlgorithm::kSha1,
                             20, 40, pool.get());
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_EQ((*batch)[0].slots_read, 0u);
  EXPECT_EQ((*batch)[0].recovered.ToString(), BitVector(20).ToString());

  auto none = MultiKeyTally(*index, {}, HashAlgorithm::kSha1, 20, 40,
                            pool.get());
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

// Builds the standard scan setup: registry with the embedded key plus
// decoys, marked table, expected mark.
struct ScanEnv {
  Env env;
  Table marked;
  BitVector wm;
  size_t wmd_size = 0;
  KeyRegistry registry;
};

ScanEnv MakeScan(size_t num_threads = 1) {
  ScanEnv s;
  s.env = MakeSetup(num_threads);
  s.marked = s.env.table.Clone();
  s.wm = TestMark();
  auto embed = s.env.watermarker->Embed(&s.marked, s.wm);
  EXPECT_TRUE(embed.ok());
  s.wmd_size = embed->wmd_size;
  EXPECT_TRUE(s.registry.Add(NamedKey{"owner", s.env.key}).ok());
  Random rng(31);
  EXPECT_TRUE(s.registry.Add(GenerateKey("decoy-a", 3, &rng)).ok());
  EXPECT_TRUE(s.registry.Add(GenerateKey("decoy-b", 3, &rng)).ok());
  return s;
}

TEST(FingerprintScanTest, EmbeddedKeyRanksFirstWithExpectedMark) {
  ScanEnv s = MakeScan();
  FingerprintConfig config;
  config.wm_size = s.wm.size();
  config.wmd_size = s.wmd_size;
  config.expected_mark = s.wm;
  auto report = ScanForFingerprints(*s.env.watermarker, s.marked, s.registry,
                                    config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->verdicts.size(), 3u);
  ASSERT_EQ(report->ranking.size(), 3u);
  const KeyVerdict& best = report->verdicts[report->ranking[0]];
  EXPECT_EQ(best.key_name, "owner");
  EXPECT_TRUE(best.detected);
  EXPECT_DOUBLE_EQ(best.mark_match, 1.0);
  EXPECT_DOUBLE_EQ(best.score, best.mark_match);
  EXPECT_LT(best.p_value, 2e-6);
  EXPECT_EQ(report->keys_detected, 1u);
  EXPECT_FALSE(report->collusion);
  // The embedded key's verdict is byte-identical to a direct Detect run.
  auto direct = s.env.watermarker->Detect(s.marked, s.wm.size(), s.wmd_size);
  ASSERT_TRUE(direct.ok());
  ExpectSameReport(*direct, best.detection, "owner verdict");
}

TEST(FingerprintScanTest, WithoutExpectedMarkScoresByMarginRatio) {
  ScanEnv s = MakeScan();
  FingerprintConfig config;
  config.wm_size = s.wm.size();
  config.wmd_size = s.wmd_size;
  auto report = ScanForFingerprints(*s.env.watermarker, s.marked, s.registry,
                                    config);
  ASSERT_TRUE(report.ok());
  const KeyVerdict& best = report->verdicts[report->ranking[0]];
  EXPECT_EQ(best.key_name, "owner");
  EXPECT_DOUBLE_EQ(best.score, best.margin_ratio);
  EXPECT_DOUBLE_EQ(best.mark_match, 0.0);
  EXPECT_DOUBLE_EQ(best.p_value, 1.0);
  // A clean embed votes unanimously; wrong keys' votes largely cancel.
  EXPECT_GT(best.margin_ratio, 0.9);
  for (size_t i = 1; i < report->ranking.size(); ++i) {
    EXPECT_LT(report->verdicts[report->ranking[i]].margin_ratio,
              best.margin_ratio);
  }
}

TEST(FingerprintScanTest, CollusionFlagsBothContributors) {
  // Interleave rows from two copies of the same table embedded under two
  // different keys (same mark, same wmd size).
  Env env = MakeSetup();
  Random rng(37);
  const NamedKey east{"east", env.key};
  const NamedKey west = GenerateKey("west", 3, &rng);
  WatermarkOptions options;
  HierarchicalWatermarker west_wm(
      std::vector<size_t>{1}, 0,
      std::vector<GeneralizationSet>{env.Maximal()},
      std::vector<GeneralizationSet>{env.Ultimate()}, west.key, options);

  const BitVector wm = TestMark();
  Table east_copy = env.table.Clone();
  Table west_copy = env.table.Clone();
  auto east_embed = env.watermarker->Embed(&east_copy, wm, 2);
  auto west_embed = west_wm.Embed(&west_copy, wm, 2);
  ASSERT_TRUE(east_embed.ok());
  ASSERT_TRUE(west_embed.ok());
  ASSERT_EQ(east_embed->wmd_size, west_embed->wmd_size);

  Table mixed(env.table.schema());
  for (size_t r = 0; r < env.table.num_rows(); ++r) {
    const Table& source = (r % 2 == 0) ? east_copy : west_copy;
    ASSERT_TRUE(mixed.AppendRow(source.row(r)).ok());
  }

  KeyRegistry registry;
  ASSERT_TRUE(registry.Add(east).ok());
  ASSERT_TRUE(registry.Add(west).ok());
  ASSERT_TRUE(registry.Add(GenerateKey("decoy", 3, &rng)).ok());

  FingerprintConfig config;
  config.wm_size = wm.size();
  config.wmd_size = east_embed->wmd_size;
  config.expected_mark = wm;
  auto report =
      ScanForFingerprints(*env.watermarker, mixed, registry, config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->verdicts[0].detected);  // east
  EXPECT_TRUE(report->verdicts[1].detected);  // west
  EXPECT_FALSE(report->verdicts[2].detected);
  EXPECT_EQ(report->keys_detected, 2u);
  EXPECT_TRUE(report->collusion);
  // Both contributors outrank the decoy.
  EXPECT_NE(report->ranking[2], 0u);
  EXPECT_NE(report->ranking[2], 1u);
}

TEST(FingerprintScanTest, RankingTiesBreakByName) {
  // Two registry entries with identical key material tie on every
  // statistic; the ranking must fall back to the name.
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok());
  KeyRegistry registry;
  ASSERT_TRUE(registry.Add(NamedKey{"zeta", env.key}).ok());
  ASSERT_TRUE(registry.Add(NamedKey{"alpha", env.key}).ok());
  FingerprintConfig config;
  config.wm_size = wm.size();
  config.wmd_size = embed->wmd_size;
  config.expected_mark = wm;
  auto report =
      ScanForFingerprints(*env.watermarker, marked, registry, config);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdicts[report->ranking[0]].key_name, "alpha");
  EXPECT_EQ(report->verdicts[report->ranking[1]].key_name, "zeta");
}

TEST(FingerprintScanTest, ValidatesRegistryAndExpectedMark) {
  Env env = MakeSetup();
  KeyRegistry empty_registry;
  FingerprintConfig config;
  config.wm_size = 20;
  config.wmd_size = 40;
  EXPECT_FALSE(ScanForFingerprints(*env.watermarker, env.table,
                                   empty_registry, config)
                   .ok());
  KeyRegistry registry;
  ASSERT_TRUE(registry.Add(NamedKey{"a", env.key}).ok());
  config.expected_mark = BitVector(7);  // wrong size vs wm_size = 20
  EXPECT_FALSE(
      ScanForFingerprints(*env.watermarker, env.table, registry, config)
          .ok());
}

TEST(ThresholdConstantTest, SharedByEveryConsumer) {
  // The one hoisted definition must be what both config structs default
  // to — the CLI's verdict lines read the same constant.
  EXPECT_DOUBLE_EQ(OwnershipConfig{}.match_threshold,
                   kDetectionMatchThreshold);
  EXPECT_DOUBLE_EQ(FingerprintConfig{}.match_threshold,
                   kDetectionMatchThreshold);
  EXPECT_DOUBLE_EQ(kDetectionMatchThreshold, 0.8);
}

}  // namespace
}  // namespace privmark
