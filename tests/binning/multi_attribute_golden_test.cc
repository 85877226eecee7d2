// Cross-commit golden digests for the joint (multi-attribute) search.
//
// The other multi-attribute suites compare strategies or worker counts, or
// check invariants (joint k-anonymity, bounds). This one pins the search's
// decisions themselves: a SHA-1 over each case's ultimate NodeIds,
// candidates_considered, already_satisfied and the bit pattern of the
// summed loss — or over the status text when the search fails. A rewrite
// of the search must reproduce these digests unchanged.
//
// The greedy "ran out of merge steps" error has no case: while the current
// nodes differ from the maximal ones, some member sits strictly below its
// maximal cover and its parent is an eligible merge, and the all-maximal
// combination is checked to be jointly k-anonymous up front, so valid
// inputs never reach it.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "binning/mono_attribute.h"
#include "binning/multi_attribute.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "crypto/sha1.h"
#include "datagen/medical_data.h"
#include "hierarchy/encoded_view.h"
#include "metrics/usage_metrics.h"
#include "testing/multi_attribute_fixtures.h"

namespace privmark {
namespace {

// Hex-float rendering: bit-exact, unlike any decimal precision.
std::string ExactDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string DigestOf(const Result<MultiBinningResult>& result) {
  std::string text;
  if (!result.ok()) {
    text = "status=" + result.status().ToString() + "\n";
  } else {
    for (const GeneralizationSet& gen : result->ultimate) {
      text += "ultimate=";
      for (NodeId id : gen.nodes()) text += std::to_string(id) + ",";
      text += "\n";
    }
    text += "candidates_considered=" +
            std::to_string(result->candidates_considered) + "\n";
    text += "already_satisfied=" +
            std::to_string(result->already_satisfied) + "\n";
    text += "loss=" + ExactDouble(result->total_specificity_loss) + "\n";
  }
  return HexEncode(Sha1::Hash(text));
}

// A generated medical table with root-capped metrics, its encoded view,
// and per-column minimal nodes from mono-attribute binning at `k`.
struct Generated {
  std::unique_ptr<MedicalDataset> dataset;
  std::vector<size_t> qi;
  EncodedView view;
  std::vector<GeneralizationSet> minimal;
  std::vector<GeneralizationSet> maximal;
};

Generated Generate(size_t rows, uint64_t seed, size_t k) {
  Generated g;
  MedicalDataSpec spec;
  spec.num_rows = rows;
  spec.seed = seed;
  g.dataset = std::make_unique<MedicalDataset>(
      std::move(GenerateMedicalDataset(spec)).ValueOrDie());
  const std::vector<const DomainHierarchy*> trees = g.dataset->trees();
  g.qi = g.dataset->table.schema().QuasiIdentifyingColumns();
  g.view = EncodedView::Leaves(g.dataset->table, g.qi, trees).ValueOrDie();
  g.maximal = UnconstrainedMetrics(trees).maximal;
  MonoBinningOptions mono;
  mono.k = k;
  for (size_t c = 0; c < trees.size(); ++c) {
    const std::vector<size_t> counts =
        CountPerNode(*trees[c], g.view.column(c).ids()).ValueOrDie();
    g.minimal.push_back(
        MonoAttributeBinCounts(g.maximal[c], counts, mono).ValueOrDie().minimal);
  }
  return g;
}

Result<MultiBinningResult> GreedyOnGenerated(size_t rows, uint64_t seed,
                                             size_t k) {
  const Generated g = Generate(rows, seed, k);
  MultiBinningOptions options;
  options.k = k;
  return MultiAttributeBin(g.dataset->table, g.qi, g.minimal, g.maximal,
                           options, &g.view);
}

// Symptom and prescription of a generated table: 561 allowable
// combinations at k = 40, under the default enumeration cap.
Result<MultiBinningResult> ExhaustiveOnGenerated(size_t workers) {
  const Generated g = Generate(2000, 7, 40);
  MultiBinningOptions options;
  options.k = 40;
  options.strategy = SearchStrategy::kExhaustive;
  const auto pool = MakeThreadPool(workers);
  return MultiAttributeBin(g.dataset->table, {g.qi[3], g.qi[4]},
                           {g.minimal[3], g.minimal[4]},
                           {g.maximal[3], g.maximal[4]}, options, nullptr,
                           pool.get());
}

Result<MultiBinningResult> OnFixture(const Table& table,
                                     const DomainHierarchy& age, size_t k,
                                     SearchStrategy strategy,
                                     bool maximal_is_minimal = false,
                                     size_t max_enumerations = 100000) {
  DomainHierarchy role = RoleTree();
  const std::vector<GeneralizationSet> minimal = {
      GeneralizationSet::AllLeaves(&age), GeneralizationSet::AllLeaves(&role)};
  const std::vector<GeneralizationSet> maximal = {
      GeneralizationSet::RootOnly(&age), GeneralizationSet::RootOnly(&role)};
  MultiBinningOptions options;
  options.k = k;
  options.strategy = strategy;
  options.max_enumerations = max_enumerations;
  return MultiAttributeBin(table, {1, 2}, minimal,
                           maximal_is_minimal ? minimal : maximal, options);
}

struct Case {
  std::function<Result<MultiBinningResult>()> run;
  std::string digest;
};

// Digests recorded from the search before its bin counting was rewritten.
const std::map<std::string, Case>& Cases() {
  static const auto* cases = [] {
    auto* m = new std::map<std::string, Case>;
    const DomainHierarchy* age = new DomainHierarchy(AgeTree());
    const DomainHierarchy* decades = new DomainHierarchy(DecadeAgeTree());
    (*m)["CrossedK2"] = {
        [=] {
          return OnFixture(CrossedTable(), *age, 2, SearchStrategy::kGreedy);
        },
        "4a0132308dc93d342f657bf823c4873c5a2e3c6e"};
    (*m)["CrossedK4"] = {
        [=] {
          return OnFixture(CrossedTable(), *age, 4, SearchStrategy::kGreedy);
        },
        "39196b5ab684c21e215df011d747eb8be30cc01d"};
    (*m)["WiderK4"] = {
        [=] {
          return OnFixture(WiderTable(), *decades, 4, SearchStrategy::kGreedy);
        },
        "53bbb9c87de47bde6abf7b0356d2f0e8d92ec43c"};
    (*m)["WiderK4Exhaustive"] = {
        [=] {
          return OnFixture(WiderTable(), *decades, 4,
                           SearchStrategy::kExhaustive, false, 1000000);
        },
        "484ff377ed6ed3a371535b4a84dda136037e8f0e"};
    (*m)["UnbinnableMaximalTooTight"] = {
        [=] {
          return OnFixture(CrossedTable(), *age, 4, SearchStrategy::kGreedy,
                           true);
        },
        "6743d01ac23c7868e9ad976c57248c219bfc2328"};
    (*m)["ExhaustiveCapExceeded"] = {
        [=] {
          return OnFixture(WiderTable(), *decades, 4,
                           SearchStrategy::kExhaustive, false, 5);
        },
        "f18d7927db7c5e27767d6f0eac0539f7c6dfb9d3"};
    const char* const generated_2k[12] = {
        "ae7efe8f2cac5c97470a976dc68d09317ca1ecf3",
        "d650d5965d8a26ccb9c4b5d82bfdaee5dc0f83ce",
        "86d6d4551b00f60fd610d96a79b6e974721010aa",
        "caf58f893feafb5f53c8eafc56fb34787606a3d9",
        "d650d5965d8a26ccb9c4b5d82bfdaee5dc0f83ce",
        "49930485684c60a587480087fa2812e014d1c47f",
        "4a51b4ad5f1120c0af9aff5b37bee9bb02f297b7",
        "e090e2d55dd2ed1d754af9d2a5027912dad841b4",
        "f3204f1a5b3f6563823041db99b1926fbf330bf7",
        "375c0872f82471add1ed11a867a447c5acb1fbb5",
        "69b92e56f0cb07cd3a039763d8e3bead80ab56df",
        "9efbd90db12afceb2bc0feaf07dea07a8ede0788"};
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      (*m)["Generated2kSeed" + std::to_string(seed) + "K10"] = {
          [=] { return GreedyOnGenerated(2000, seed, 10); },
          generated_2k[seed - 1]};
    }
    const std::map<size_t, std::string> generated_20k = {
        {2, "3489b7c6b15c5def6f9cc793964657ae78ac72b1"},
        {10, "45200d220eb2cfc189845bf1caa0169a509af2bf"},
        {40, "166b639a760078b08728c7f41987247770fb1e56"}};
    for (const auto& [k, digest] : generated_20k) {
      (*m)["Generated20kK" + std::to_string(k)] = {
          [k = k] { return GreedyOnGenerated(20000, 20050405, k); }, digest};
    }
    // Worker count is not a key: 1 and 3 workers must agree.
    for (size_t workers : {size_t{1}, size_t{3}}) {
      (*m)["Exhaustive2kWorkers" + std::to_string(workers)] = {
          [=] { return ExhaustiveOnGenerated(workers); },
          "fc0cfb22cbe6d449a8f1b7cc057f56a8124dc4fb"};
    }
    return m;
  }();
  return *cases;
}

class MultiAttributeGoldenTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(MultiAttributeGoldenTest, DigestMatchesPinnedValue) {
  const Case& c = Cases().at(GetParam());
  EXPECT_EQ(DigestOf(c.run()), c.digest) << GetParam();
}

std::vector<std::string> CaseNames() {
  std::vector<std::string> names;
  for (const auto& [name, c] : Cases()) names.push_back(name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, MultiAttributeGoldenTest, ::testing::ValuesIn(CaseNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace privmark
