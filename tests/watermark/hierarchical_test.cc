#include "watermark/hierarchical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "relation/csv.h"
#include "watermark/detect_index.h"
#include "watermark/single_level.h"

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

// A "binned" table whose cells are leaf labels (ultimate = all leaves).
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

Env MakeSetup(uint64_t eta = 3, bool weighted = false) {
  Env env;
  env.tree = std::make_unique<DomainHierarchy>(DeepTree());
  env.table = MakeBinnedTable(*env.tree, 400, 11);
  env.key.k1 = "secret-one";
  env.key.k2 = "secret-two";
  env.key.eta = eta;
  WatermarkOptions options;
  options.weighted_voting = weighted;
  env.watermarker = std::make_unique<HierarchicalWatermarker>(
      std::vector<size_t>{1}, 0,
      std::vector<GeneralizationSet>{env.Maximal()},
      std::vector<GeneralizationSet>{env.Ultimate()}, env.key, options);
  return env;
}

BitVector TestMark() {
  return BitVector::FromString("10110010011010111001").ValueOrDie();
}

TEST(HierarchicalWatermarkTest, CleanRoundTripRecoversMark) {
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok());
  EXPECT_GT(embed->slots_embedded, 0u);
  auto detect = env.watermarker->Detect(marked, wm.size(), embed->wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_EQ(detect->recovered, wm);
  EXPECT_DOUBLE_EQ(*MarkLossAgainst(wm, detect->recovered), 0.0);
}

TEST(HierarchicalWatermarkTest, MarkedValuesStayUnderTheirMaximalNode) {
  // The permutation must never cross a maximal generalization boundary —
  // that is the usage-metric guarantee of Sec. 5.1.
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  ASSERT_TRUE(env.watermarker->Embed(&marked, wm).ok());
  const GeneralizationSet maximal = env.Maximal();
  for (size_t r = 0; r < marked.num_rows(); ++r) {
    const NodeId before =
        *env.tree->FindByLabel(env.table.at(r, 1).ToString());
    const NodeId after = *env.tree->FindByLabel(marked.at(r, 1).ToString());
    const NodeId cover_before =
        *maximal.NodeForLeaf(env.tree->LeavesUnder(before).front());
    const NodeId cover_after =
        *maximal.NodeForLeaf(env.tree->LeavesUnder(after).front());
    EXPECT_EQ(cover_before, cover_after) << "row " << r;
  }
}

TEST(HierarchicalWatermarkTest, OnlySelectedTuplesChange) {
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  ASSERT_TRUE(env.watermarker->Embed(&marked, wm).ok());
  for (size_t r = 0; r < marked.num_rows(); ++r) {
    if (!IsTupleSelected(env.key, HashAlgorithm::kSha1,
                         marked.at(r, 0).ToString())) {
      EXPECT_EQ(marked.at(r, 1), env.table.at(r, 1)) << "row " << r;
    }
  }
}

TEST(HierarchicalWatermarkTest, WrongKeyDetectsGarbage) {
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok());

  WatermarkKey wrong;
  wrong.k1 = "not-the-key";
  wrong.k2 = "also-wrong";
  wrong.eta = 3;
  HierarchicalWatermarker intruder(
      std::vector<size_t>{1}, 0,
      std::vector<GeneralizationSet>{env.Maximal()},
      std::vector<GeneralizationSet>{env.Ultimate()}, wrong, {});
  auto detect = intruder.Detect(marked, wm.size(), embed->wmd_size);
  ASSERT_TRUE(detect.ok());
  // Without the key the recovered bits are uncorrelated: loss near 50%.
  const double loss = *MarkLossAgainst(wm, detect->recovered);
  EXPECT_GT(loss, 0.2);
}

TEST(HierarchicalWatermarkTest, BandwidthMatchesSlotAccounting) {
  Env env = MakeSetup();
  auto bandwidth = env.watermarker->EstimateBandwidth(env.table);
  ASSERT_TRUE(bandwidth.ok());
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok());
  EXPECT_EQ(*bandwidth, embed->slots_embedded);
  EXPECT_EQ(embed->copies, *bandwidth / wm.size());
  EXPECT_EQ(embed->wmd_size, embed->copies * wm.size());
}

TEST(HierarchicalWatermarkTest, ExplicitCopiesRespected) {
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm, 2);
  ASSERT_TRUE(embed.ok());
  EXPECT_EQ(embed->copies, 2u);
  EXPECT_EQ(embed->wmd_size, 40u);
  auto detect = env.watermarker->Detect(marked, wm.size(), 40);
  ASSERT_TRUE(detect.ok());
  EXPECT_EQ(detect->recovered, wm);
}

TEST(HierarchicalWatermarkTest, EmptyMarkRejected) {
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  EXPECT_FALSE(env.watermarker->Embed(&marked, BitVector()).ok());
}

TEST(HierarchicalWatermarkTest, DetectValidatesSizes) {
  Env env = MakeSetup();
  EXPECT_FALSE(env.watermarker->Detect(env.table, 0, 20).ok());
  EXPECT_FALSE(env.watermarker->Detect(env.table, 20, 0).ok());
  EXPECT_FALSE(env.watermarker->Detect(env.table, 20, 30).ok());
}

TEST(HierarchicalWatermarkTest, ZeroEtaIsInvalidArgumentNotACrash) {
  // Eq. (5) divides by eta: every entry point must refuse eta == 0 with a
  // typed error instead of raising SIGFPE.
  Env env = MakeSetup(/*eta=*/0);
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  EXPECT_EQ(env.watermarker->Embed(&marked, wm).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TableToCsv(marked), TableToCsv(env.table));
  EXPECT_EQ(env.watermarker->Detect(env.table, wm.size(), wm.size())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(env.watermarker->EstimateBandwidth(env.table).status().code(),
            StatusCode::kInvalidArgument);

  const SingleLevelWatermarker single(
      std::vector<size_t>{1}, 0,
      std::vector<GeneralizationSet>{env.Ultimate()}, env.key,
      WatermarkOptions());
  EXPECT_EQ(single.Embed(&marked, wm).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(single.Detect(env.table, wm.size(), wm.size()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(single.EstimateBandwidth(env.table).status().code(),
            StatusCode::kInvalidArgument);

  auto index = BuildDetectIndex(*env.watermarker, env.table);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(MultiKeyTally(*index, {env.key}, HashAlgorithm::kSha1, wm.size(),
                          wm.size(), nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  WatermarkKey valid = env.key;
  valid.eta = 3;
  EXPECT_EQ(MultiKeyTally(*index, {valid, env.key}, HashAlgorithm::kSha1,
                          wm.size(), wm.size(), nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(HierarchicalWatermarkTest, ZeroGapSlotsAreSkippedAndUnchanged) {
  // Ultimate == maximal: no bandwidth anywhere; embedding must not alter
  // the table at all.
  auto tree = std::make_unique<DomainHierarchy>(DeepTree());
  Table table = MakeBinnedTable(*tree, 100, 5);
  const GeneralizationSet leaves = GeneralizationSet::AllLeaves(tree.get());
  WatermarkKey key;
  key.eta = 2;
  HierarchicalWatermarker wm(std::vector<size_t>{1}, 0,
                             std::vector<GeneralizationSet>{leaves},
                             std::vector<GeneralizationSet>{leaves}, key, {});
  Table marked = table.Clone();
  auto embed = wm.Embed(&marked, TestMark(), 1);
  ASSERT_TRUE(embed.ok());
  EXPECT_EQ(embed->slots_embedded, 0u);
  EXPECT_GT(embed->slots_skipped_no_gap, 0u);
  EXPECT_EQ(embed->cells_changed, 0u);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(table.at(r, 1), marked.at(r, 1));
  }
}

TEST(HierarchicalWatermarkTest, WeightedVotingAlsoRecoversCleanMark) {
  Env env = MakeSetup(3, /*weighted=*/true);
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok());
  auto detect = env.watermarker->Detect(marked, wm.size(), embed->wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_EQ(detect->recovered, wm);
}

TEST(HierarchicalWatermarkTest, DetectOnUnmarkedTableIsUncorrelated) {
  Env env = MakeSetup();
  auto detect = env.watermarker->Detect(env.table, 20, 200);
  ASSERT_TRUE(detect.ok());
  const double loss = *MarkLossAgainst(TestMark(), detect->recovered);
  EXPECT_GT(loss, 0.15);  // essentially random agreement
}

TEST(HierarchicalWatermarkTest, VoteMarginsArePopulated) {
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok());
  auto detect = env.watermarker->Detect(marked, wm.size(), embed->wmd_size);
  ASSERT_TRUE(detect.ok());
  ASSERT_EQ(detect->vote_margin.size(), wm.size());
  for (size_t j = 0; j < wm.size(); ++j) {
    if (wm.Get(j)) {
      EXPECT_GT(detect->vote_margin[j], 0.0) << j;
    } else {
      EXPECT_LT(detect->vote_margin[j], 0.0) << j;
    }
  }
}

TEST(MarkLossTest, MatchesLossFraction) {
  auto a = BitVector::FromString("1100").ValueOrDie();
  auto b = BitVector::FromString("1000").ValueOrDie();
  EXPECT_DOUBLE_EQ(*MarkLossAgainst(a, b), 0.25);
}

TEST(MarkLossTest, StrictLossCountsUnvotedBits) {
  auto reference = BitVector::FromString("1100").ValueOrDie();
  DetectReport report;
  report.recovered = BitVector::FromString("1000").ValueOrDie();
  report.bit_voted = {true, true, true, false};
  // Bit 1 wrong + bit 3 unvoted (even though its recovered value matches).
  EXPECT_DOUBLE_EQ(*StrictMarkLoss(reference, report), 0.5);
}

TEST(MarkLossTest, StrictLossValidatesSizes) {
  auto reference = BitVector::FromString("11").ValueOrDie();
  DetectReport report;
  report.recovered = BitVector::FromString("1").ValueOrDie();
  report.bit_voted = {true};
  EXPECT_FALSE(StrictMarkLoss(reference, report).ok());
}

TEST(HierarchicalWatermarkTest, CleanDetectionHasAllBitsVoted) {
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok());
  auto detect = env.watermarker->Detect(marked, wm.size(), embed->wmd_size);
  ASSERT_TRUE(detect.ok());
  for (size_t j = 0; j < wm.size(); ++j) {
    EXPECT_TRUE(detect->bit_voted[j]) << j;
  }
  EXPECT_DOUBLE_EQ(*StrictMarkLoss(wm, *detect), 0.0);
}

TEST(DetectionPValueTest, PerfectMatchIsOverwhelming) {
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok());
  auto detect = env.watermarker->Detect(marked, wm.size(), embed->wmd_size);
  ASSERT_TRUE(detect.ok());
  auto p = DetectionPValue(wm, *detect);
  ASSERT_TRUE(p.ok());
  // 20 voted bits all matching: p = 2^-20 ~ 1e-6.
  EXPECT_LT(*p, 2e-6);
  EXPECT_GT(*p, 0.0);
}

TEST(DetectionPValueTest, WrongKeyIsInsignificant) {
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok());
  WatermarkKey wrong{"w1", "w2", 3};
  HierarchicalWatermarker intruder(
      std::vector<size_t>{1}, 0,
      std::vector<GeneralizationSet>{env.Maximal()},
      std::vector<GeneralizationSet>{env.Ultimate()}, wrong, {});
  auto detect = intruder.Detect(marked, wm.size(), embed->wmd_size);
  ASSERT_TRUE(detect.ok());
  auto p = DetectionPValue(wm, *detect);
  ASSERT_TRUE(p.ok());
  EXPECT_GT(*p, 0.01);  // chance-level agreement is not significant
}

TEST(DetectionPValueTest, NoVotesIsOne) {
  DetectReport report;
  report.recovered = BitVector(4);
  report.bit_voted = {false, false, false, false};
  auto p = DetectionPValue(BitVector(4), report);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 1.0);
}

TEST(DetectionPValueTest, HandComputedSmallCase) {
  // 4 voted bits, 3 matches: P[Bin(4, 1/2) >= 3] = (4 + 1)/16 = 0.3125.
  DetectReport report;
  report.recovered = BitVector::FromString("1100").ValueOrDie();
  report.bit_voted = {true, true, true, true};
  const BitVector reference = BitVector::FromString("1101").ValueOrDie();
  auto p = DetectionPValue(reference, report);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.3125, 1e-12);
}

TEST(DetectionPValueTest, SizeMismatchRejected) {
  DetectReport report;
  report.recovered = BitVector(3);
  report.bit_voted = {true, true, true};
  EXPECT_FALSE(DetectionPValue(BitVector(4), report).ok());
}

TEST(HierarchicalWatermarkTest, FullDeletionLosesEveryBitStrictly) {
  Env env = MakeSetup();
  Table marked = env.table.Clone();
  const BitVector wm = TestMark();
  auto embed = env.watermarker->Embed(&marked, wm);
  ASSERT_TRUE(embed.ok());
  Table empty(marked.schema());
  auto detect = env.watermarker->Detect(empty, wm.size(), embed->wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_DOUBLE_EQ(*StrictMarkLoss(wm, *detect), 1.0);
}

// The embed's cell moves are a complete, thread-count-independent account
// of what it wrote: replayed onto the pre-embed table they reproduce the
// embedded table, there is one per changed cell, and asking for them
// changes nothing else.
TEST(HierarchicalWatermarkTest, CellMovesReplayTheEmbedAcrossThreads) {
  Env env = MakeSetup();
  env.table = MakeBinnedTable(*env.tree, 3000, 23);
  const BitVector wm = TestMark();
  Table unsunk = env.table.Clone();
  auto unsunk_report = env.watermarker->Embed(&unsunk, wm);
  ASSERT_TRUE(unsunk_report.ok());

  std::vector<CellMove> serial_moves;
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (size_t t : {size_t{1}, size_t{2}, hw}) {
    WatermarkOptions options = env.watermarker->options();
    options.num_threads = t;
    const HierarchicalWatermarker watermarker(
        env.watermarker->qi_columns(), env.watermarker->ident_column(),
        env.watermarker->maximal(), env.watermarker->ultimate(), env.key,
        options);
    Table marked = env.table.Clone();
    std::vector<CellMove> moves;
    auto report = watermarker.Embed(&marked, wm, /*copies=*/0, &moves);
    ASSERT_TRUE(report.ok());
    const std::string context = "num_threads " + std::to_string(t);

    // A null sink leaves the report (and the table) unchanged.
    EXPECT_EQ(report->tuples_selected, unsunk_report->tuples_selected)
        << context;
    EXPECT_EQ(report->slots_embedded, unsunk_report->slots_embedded)
        << context;
    EXPECT_EQ(report->slots_skipped_no_gap,
              unsunk_report->slots_skipped_no_gap)
        << context;
    EXPECT_EQ(report->copies, unsunk_report->copies) << context;
    EXPECT_EQ(report->wmd_size, unsunk_report->wmd_size) << context;
    EXPECT_EQ(report->cells_changed, unsunk_report->cells_changed) << context;

    // One move per changed cell.
    EXPECT_GT(moves.size(), 0u) << context;
    EXPECT_EQ(moves.size(), report->cells_changed) << context;

    // Replayed onto the pre-embed table, the moves reproduce the embed.
    Table replayed = env.table.Clone();
    for (const CellMove& move : moves) {
      const size_t col = watermarker.qi_columns()[move.col_idx];
      EXPECT_EQ(replayed.at(move.row, col),
                Value::String(env.tree->node(move.from).label))
          << context << " row " << move.row;
      EXPECT_NE(move.from, move.to) << context << " row " << move.row;
      replayed.Set(move.row, col,
                   Value::String(env.tree->node(move.to).label));
    }
    ASSERT_EQ(replayed.num_rows(), marked.num_rows());
    for (size_t r = 0; r < marked.num_rows(); ++r) {
      EXPECT_EQ(replayed.row(r), marked.row(r)) << context << " row " << r;
      EXPECT_EQ(unsunk.row(r), marked.row(r)) << context << " row " << r;
    }

    // The same moves, in the same order, for every worker count.
    if (t == 1) {
      serial_moves = moves;
      continue;
    }
    ASSERT_EQ(moves.size(), serial_moves.size()) << context;
    for (size_t i = 0; i < moves.size(); ++i) {
      EXPECT_EQ(moves[i].row, serial_moves[i].row) << context << " move " << i;
      EXPECT_EQ(moves[i].col_idx, serial_moves[i].col_idx) << context;
      EXPECT_EQ(moves[i].from, serial_moves[i].from) << context;
      EXPECT_EQ(moves[i].to, serial_moves[i].to) << context;
    }
  }
}

}  // namespace
}  // namespace privmark
