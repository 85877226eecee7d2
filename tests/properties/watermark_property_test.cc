// Property-style sweeps over the watermarking stack: clean round trips for
// a grid of (eta, hash, seed), usage-metric containment, and the Sec. 6
// Lemma 1/2 balance (Pr- == Pr+) measured empirically.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>

#include "common/random.h"
#include "watermark/hierarchical.h"

namespace privmark {
namespace {

DomainHierarchy LemmaTree() {
  // Two maximal-node subtrees with n1 = 4 and n2 = 2 ultimate nodes: even
  // child counts keep the parity-constrained walk uniform over targets,
  // matching the lemmas' assumption (ii).
  return HierarchyBuilder::FromOutline("col", R"(root
  N1
    u1
    u2
    u3
    u4
  N2
    u5
    u6)").ValueOrDie();
}

Schema OneQiSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddColumn({"id", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  EXPECT_TRUE(schema.AddColumn({"col", ColumnRole::kQuasiCategorical,
                                ValueType::kString}).ok());
  return schema;
}

class WatermarkRoundTripTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, HashAlgorithm, uint64_t>> {
 protected:
  uint64_t eta() const { return std::get<0>(GetParam()); }
  HashAlgorithm hash() const { return std::get<1>(GetParam()); }
  uint64_t seed() const { return std::get<2>(GetParam()); }
};

TEST_P(WatermarkRoundTripTest, CleanRoundTripIsExact) {
  auto tree = std::make_unique<DomainHierarchy>(LemmaTree());
  Table table(OneQiSchema());
  Random rng(seed());
  const auto& leaves = tree->Leaves();
  for (size_t r = 0; r < 500; ++r) {
    ASSERT_TRUE(
        table
            .AppendRow({Value::String("id-" + std::to_string(rng.Next())),
                        Value::String(
                            tree->node(leaves[rng.Uniform(leaves.size())])
                                .label)})
            .ok());
  }
  WatermarkKey key;
  key.k1 = "prop-k1";
  key.k2 = "prop-k2";
  key.eta = eta();
  WatermarkOptions options;
  options.hash = hash();
  const GeneralizationSet ultimate = GeneralizationSet::AllLeaves(tree.get());
  const GeneralizationSet maximal = CutAtDepth(tree.get(), 1);
  HierarchicalWatermarker wm(std::vector<size_t>{1}, 0,
                             std::vector<GeneralizationSet>{maximal},
                             std::vector<GeneralizationSet>{ultimate}, key,
                             options);
  BitVector mark(20);
  Random mark_rng(seed() + 1);
  for (size_t i = 0; i < 20; ++i) mark.Set(i, mark_rng.Bernoulli(0.5));

  Table marked = table.Clone();
  auto embed = wm.Embed(&marked, mark);
  ASSERT_TRUE(embed.ok());
  if (embed->slots_embedded < 60) {
    GTEST_SKIP() << "not enough selected tuples at eta=" << eta();
  }
  auto detect = wm.Detect(marked, mark.size(), embed->wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_EQ(detect->recovered, mark)
      << "eta=" << eta() << " hash=" << HashAlgorithmToString(hash());

  // Containment: marked labels stay inside their maximal subtree.
  for (size_t r = 0; r < marked.num_rows(); ++r) {
    const NodeId before = *tree->FindByLabel(table.at(r, 1).ToString());
    const NodeId after = *tree->FindByLabel(marked.at(r, 1).ToString());
    EXPECT_EQ(*maximal.NodeForLeaf(tree->LeavesUnder(before).front()),
              *maximal.NodeForLeaf(tree->LeavesUnder(after).front()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    EtaHashSeedGrid, WatermarkRoundTripTest,
    ::testing::Combine(::testing::Values(1u, 2u, 5u),
                       ::testing::Values(HashAlgorithm::kSha1),
                       ::testing::Values(3u, 17u)),
    [](const ::testing::TestParamInfo<
        std::tuple<uint64_t, HashAlgorithm, uint64_t>>& info) {
      return "eta" + std::to_string(std::get<0>(info.param)) +
             std::string(HashAlgorithmToString(std::get<1>(info.param))) +
             "_seed" + std::to_string(std::get<2>(info.param));
    });

// ---- Sec. 6, Lemmas 1 and 2 ----

TEST(LemmaBalanceTest, EmbeddingNeitherShrinksNorGrowsBinsOnAverage) {
  // Setup satisfying the lemmas' assumptions: equal-size ultimate bins
  // (assumption i) and uniform walk targets (assumption ii, even child
  // counts). Embed with eta = 1 (every tuple selected) and measure the
  // empirical Pr-/Pr+ per bin; both must match (n_k - 1)/(n_k * sum n_i).
  auto tree = std::make_unique<DomainHierarchy>(LemmaTree());
  Table table(OneQiSchema());
  const auto& leaves = tree->Leaves();
  constexpr size_t kPerBin = 600;
  size_t serial = 0;
  for (NodeId leaf : leaves) {
    for (size_t i = 0; i < kPerBin; ++i) {
      ASSERT_TRUE(table
                      .AppendRow({Value::String(
                                      "id-" + std::to_string(serial++)),
                                  Value::String(tree->node(leaf).label)})
                      .ok());
    }
  }
  WatermarkKey key;
  key.eta = 1;  // every tuple embeds: maximal sample size
  const GeneralizationSet ultimate = GeneralizationSet::AllLeaves(tree.get());
  const GeneralizationSet maximal = CutAtDepth(tree.get(), 1);
  HierarchicalWatermarker wm(std::vector<size_t>{1}, 0,
                             std::vector<GeneralizationSet>{maximal},
                             std::vector<GeneralizationSet>{ultimate}, key,
                             WatermarkOptions{});
  BitVector mark(20);
  for (size_t i = 0; i < 20; ++i) mark.Set(i, i % 2 == 0);

  Table marked = table.Clone();
  auto embed = wm.Embed(&marked, mark);
  ASSERT_TRUE(embed.ok());
  const double total_embeddings =
      static_cast<double>(embed->slots_embedded);
  ASSERT_GT(total_embeddings, 3000.0);

  // Per-leaf movement counts.
  std::map<std::string, double> moved_out;
  std::map<std::string, double> moved_in;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const std::string before = table.at(r, 1).ToString();
    const std::string after = marked.at(r, 1).ToString();
    if (before != after) {
      moved_out[before] += 1.0;
      moved_in[after] += 1.0;
    }
  }

  const double total_leaves = 6.0;  // sum n_i
  for (NodeId leaf : leaves) {
    const std::string& label = tree->node(leaf).label;
    const double nk =
        static_cast<double>(tree->Children(tree->Parent(leaf)).size());
    const double expected = (nk - 1.0) / (nk * total_leaves);
    const double pr_minus = moved_out[label] / total_embeddings;
    const double pr_plus = moved_in[label] / total_embeddings;
    EXPECT_NEAR(pr_minus, expected, 0.02) << label;
    EXPECT_NEAR(pr_plus, expected, 0.02) << label;
    // Lemma 1 == Lemma 2: the two probabilities cancel on average.
    EXPECT_NEAR(pr_minus, pr_plus, 0.02) << label;
  }

  // Consequence: bin sizes stay near kPerBin.
  for (const Bin& bin : marked.GroupBy({1})) {
    EXPECT_NEAR(static_cast<double>(bin.size()), static_cast<double>(kPerBin),
                0.15 * kPerBin);
  }
}

}  // namespace
}  // namespace privmark
