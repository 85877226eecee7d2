// Cross-commit golden digests for the session flush.
//
// The streaming-equivalence suites compare a session with one-shot
// Protect, and the framework tests only check properties of the outcome
// (an epsilon was chosen, bins stay above k). This suite pins the flush's
// decisions and bytes themselves: per flushed epoch, a SHA-1 over the
// epsilon used, the suppressed row counts, the ultimate NodeIds, the mark,
// the wmd size and a SHA-1 of the emitted CSV; per frozen batch, a SHA-1
// over its emitted and suppressed counts and its emitted CSV. A rewrite of
// the flush's counting or epsilon derivation must reproduce these digests
// unchanged.
//
// Cases: auto-epsilon per attribute (20k rows, k = 20, eta = 75) and joint
// (2k rows, root-capped metrics, k = 10); a kSuppress flush that drops
// rows; a kRebinOnDrift stream, one digest per epoch; and a kFreezeBins
// flush followed by two frozen batches, per attribute and joint.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/framework.h"
#include "core/session.h"
#include "crypto/sha1.h"
#include "datagen/medical_data.h"
#include "metrics/usage_metrics.h"
#include "relation/csv.h"

namespace privmark {
namespace {

constexpr size_t kRows = 20000;
constexpr uint64_t kSeed = 20050405;

struct Fixture {
  std::unique_ptr<MedicalDataset> dataset;
  UsageMetrics metrics;        // the evaluation depth cuts
  UsageMetrics unconstrained;  // every column capped at its root (joint)
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture;
    MedicalDataSpec spec;
    spec.num_rows = kRows;
    spec.seed = kSeed;
    f->dataset = std::make_unique<MedicalDataset>(
        std::move(GenerateMedicalDataset(spec)).ValueOrDie());
    f->metrics = MetricsFromDepthCuts(f->dataset->trees(), {2, 1, 2, 1, 1})
                     .ValueOrDie();
    f->unconstrained = UnconstrainedMetrics(f->dataset->trees());
    return f;
  }();
  return *fixture;
}

FrameworkConfig MakeConfig(size_t k, uint64_t eta, bool joint) {
  FrameworkConfig config;
  config.binning.k = k;
  config.binning.enforce_joint = joint;
  config.binning.encryption_passphrase = "flush-golden-passphrase";
  config.key = {"flush-golden-k1", "flush-golden-k2", eta};
  return config;
}

Table Rows(size_t begin, size_t end) {
  return SharedFixture().dataset->table.Slice(begin, end);
}

std::string Sha1Hex(const std::string& bytes) {
  return HexEncode(Sha1::Hash(bytes));
}

// One flushed epoch: its record (taken right after the flush), the
// engine's own suppression count, and the rows it emitted.
std::string EpochDigest(const EpochRecord& record, size_t engine_suppressed,
                        const Table& emitted) {
  std::string text = "epoch=" + std::to_string(record.epoch) + "\n";
  text += "epsilon_used=" + std::to_string(record.epsilon_used) + "\n";
  text += "engine_suppressed=" + std::to_string(engine_suppressed) + "\n";
  text += "rows_suppressed=" + std::to_string(record.rows_suppressed) + "\n";
  text += "rows_emitted=" + std::to_string(record.rows_emitted) + "\n";
  for (const GeneralizationSet& gen : record.ultimate) {
    text += "ultimate=";
    for (NodeId id : gen.nodes()) text += std::to_string(id) + ",";
    text += "\n";
  }
  text += "mark=" + record.mark.ToString() + "\n";
  text += "copies=" + std::to_string(record.copies) + "\n";
  text += "wmd_size=" + std::to_string(record.wmd_size) + "\n";
  text += "emitted=" + Sha1Hex(TableToCsv(emitted)) + "\n";
  return Sha1Hex(text);
}

// One batch emitted under a frozen epoch.
std::string FrozenBatchDigest(const IngestResult& result) {
  std::string text = "epoch=" + std::to_string(result.epoch) + "\n";
  text += "rows_emitted=" + std::to_string(result.rows_emitted) + "\n";
  text += "rows_suppressed=" + std::to_string(result.rows_suppressed) + "\n";
  text += "slots_embedded=" + std::to_string(result.embed.slots_embedded) +
          "\n";
  text += "emitted=" + Sha1Hex(TableToCsv(result.emitted)) + "\n";
  return Sha1Hex(text);
}

// A session fed `[0, rows)` in one batch and flushed once: the one-shot
// Protect path. With `must_suppress` the engine has to drop rows; with
// auto-epsilon the second selection pass has to run (epsilon > 0).
std::vector<std::string> SingleFlush(const UsageMetrics& metrics,
                                     const FrameworkConfig& config,
                                     size_t rows, bool must_suppress = false) {
  ProtectionSession session(metrics, config);
  EXPECT_TRUE(session.Ingest(Rows(0, rows)).ok());
  const Result<EpochOutput> flushed = session.Flush();
  EXPECT_TRUE(flushed.ok()) << flushed.status().ToString();
  if (!flushed.ok()) return {};
  if (must_suppress) {
    EXPECT_GT(flushed->outcome.binning.suppressed_rows, 0u);
  }
  if (config.auto_epsilon) {
    EXPECT_GT(flushed->outcome.epsilon_used, 0u);
  }
  return {EpochDigest(session.epochs().back(),
                      flushed->outcome.binning.suppressed_rows,
                      flushed->outcome.watermarked)};
}

// A kFreezeBins flush over `[0, flush_rows)`, then two frozen batches of
// `batch_rows` each.
std::vector<std::string> FreezeStream(const UsageMetrics& metrics,
                                      const FrameworkConfig& config,
                                      size_t flush_rows, size_t batch_rows) {
  ProtectionSession session(metrics, config);
  EXPECT_TRUE(session.Ingest(Rows(0, flush_rows)).ok());
  const Result<EpochOutput> flushed = session.Flush();
  EXPECT_TRUE(flushed.ok()) << flushed.status().ToString();
  if (!flushed.ok()) return {};
  std::vector<std::string> digests = {
      EpochDigest(session.epochs().back(),
                  flushed->outcome.binning.suppressed_rows,
                  flushed->outcome.watermarked)};
  for (size_t b = 0; b < 2; ++b) {
    const size_t begin = flush_rows + b * batch_rows;
    const Result<IngestResult> result =
        session.Ingest(Rows(begin, begin + batch_rows));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return digests;
    EXPECT_FALSE(result->flushed);
    EXPECT_GT(result->rows_emitted, 0u);
    digests.push_back(FrozenBatchDigest(*result));
  }
  return digests;
}

// A kRebinOnDrift stream: an initial flush over `[0, first_rows)`, then
// `batch_rows` batches up to `end_rows`; one digest per epoch.
std::vector<std::string> DriftStream(const UsageMetrics& metrics,
                                     const FrameworkConfig& config,
                                     size_t first_rows, size_t batch_rows,
                                     size_t end_rows) {
  SessionConfig session_config;
  session_config.policy = RebinPolicy::kRebinOnDrift;
  session_config.drift_threshold = 0.5;
  ProtectionSession session(metrics, config, session_config);
  EXPECT_TRUE(session.Ingest(Rows(0, first_rows)).ok());
  const Result<EpochOutput> first = session.Flush();
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  if (!first.ok()) return {};
  std::vector<std::string> digests = {
      EpochDigest(session.epochs().back(),
                  first->outcome.binning.suppressed_rows,
                  first->outcome.watermarked)};
  for (size_t begin = first_rows; begin < end_rows; begin += batch_rows) {
    const Result<IngestResult> result =
        session.Ingest(Rows(begin, begin + batch_rows));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return digests;
    if (!result->flushed) continue;
    // An auto-flushed epoch reports no separate engine count; its record's
    // rows_suppressed carries engine and epoch-k drops together.
    digests.push_back(
        EpochDigest(session.epochs().back(), 0, result->emitted));
  }
  EXPECT_GT(session.rows_suppressed(), 0u) << "the stream must suppress";
  return digests;
}

struct Case {
  std::function<std::vector<std::string>()> run;
  std::vector<std::string> digests;
};

// Digests recorded before the flush stopped keeping a running count state.
const std::map<std::string, Case>& Cases() {
  static const auto* cases = [] {
    auto* m = new std::map<std::string, Case>;
    (*m)["AutoEpsilonPerAttribute"] = {
        [] {
          FrameworkConfig config = MakeConfig(20, 75, /*joint=*/false);
          config.auto_epsilon = true;
          return SingleFlush(SharedFixture().metrics, config, kRows);
        },
        {"c13fd44565e4000ad8bd7c0429895e13e2131a74"}};
    (*m)["AutoEpsilonJoint"] = {
        [] {
          FrameworkConfig config = MakeConfig(10, 10, /*joint=*/true);
          config.auto_epsilon = true;
          return SingleFlush(SharedFixture().unconstrained, config, 2000);
        },
        {"a5edc3b0dcdfa821752e8bf1a0425c1961e05664"}};
    (*m)["SuppressingFlush"] = {
        [] {
          FrameworkConfig config = MakeConfig(40, 10, /*joint=*/false);
          config.binning.mono.on_unbinnable = UnbinnablePolicy::kSuppress;
          return SingleFlush(SharedFixture().metrics, config, 500,
                             /*must_suppress=*/true);
        },
        {"facfe2401c783449da9184d9d84484cf527577a5"}};
    (*m)["DriftEpochs"] = {
        [] {
          FrameworkConfig config = MakeConfig(40, 20, /*joint=*/false);
          config.auto_epsilon = true;
          config.binning.mono.on_unbinnable = UnbinnablePolicy::kSuppress;
          return DriftStream(SharedFixture().metrics, config, 1000, 250,
                             6000);
        },
        {"4d782361ef0b25c17e8b0cf5a4ed0c104cc66f45",
         "307abd64ee44373c272c90ac44ab0e77783a0fdd",
         "6fcb1fe73d9a69868e701a48aa9bc261d6aa3178",
         "06f374be636f3c8688d970f469641e6d60edbb6b",
         "317c1028a9e7441f1c20e245c0a4a87e1b308ace"}};
    (*m)["FreezePerAttribute"] = {
        [] {
          return FreezeStream(SharedFixture().metrics,
                              MakeConfig(20, 20, /*joint=*/false), 4000, 1000);
        },
        {"00741eeaea62c3437e76b321680e0e1ff37c65c3",
         "068037955e250d927970f81c5fa0a96123133410",
         "8be9c115dcf7c322ea69de7ed3c684ac730e80eb"}};
    (*m)["FreezeJoint"] = {
        [] {
          return FreezeStream(SharedFixture().unconstrained,
                              MakeConfig(10, 10, /*joint=*/true), 2000, 500);
        },
        {"a2651ab5dbec339af48eba6f176b223fc40d5854",
         "5d61b19b243a5bc90a8a570db323ce4b0bd32029",
         "85862c1aff96054fbcfe61ac35f9684f3ed02190"}};
    return m;
  }();
  return *cases;
}

class SessionFlushGoldenTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(SessionFlushGoldenTest, DigestsMatchPinnedValues) {
  const Case& c = Cases().at(GetParam());
  EXPECT_EQ(c.run(), c.digests) << GetParam();
}

std::vector<std::string> CaseNames() {
  std::vector<std::string> names;
  for (const auto& [name, c] : Cases()) names.push_back(name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, SessionFlushGoldenTest, ::testing::ValuesIn(CaseNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace privmark
