// Property suite for the flush epilogue, on the standard 20k-row
// fixed-seed dataset: every flush derives its Fig. 14 seamlessness from
// the binning's per-row bin NodeIds and the embed's cell moves, and that
// must equal the table-level reference MeasureSeamlessness(binned,
// watermarked) field for field. Covered: freeze-mode flushes (one batch
// and batched), drift epochs including epochs whose epoch-k sweep drops
// rows, joint binning, and the auto-epsilon re-selection, each across
// num_threads in {1, 2, hw}. Every flush also checks that the outcome's
// bin NodeIds still name the binned table's cells after the sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.h"
#include "core/session.h"
#include "datagen/medical_data.h"
#include "metrics/usage_metrics.h"

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

std::vector<size_t> ThreadCounts() {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return {1, 2, hw};
}

FrameworkConfig MakeConfig(size_t k, uint64_t eta, size_t num_threads) {
  FrameworkConfig config;
  config.binning.k = k;
  config.binning.enforce_joint = false;
  config.binning.encryption_passphrase = "seamless-owner-passphrase";
  config.binning.num_threads = num_threads;
  config.watermark.num_threads = num_threads;
  config.key = {"seamless-k1", "seamless-k2", eta};
  return config;
}

// What the property suite counts across a run, so each test can insist
// its scenario actually happened (cells moved, rows were dropped).
struct Tally {
  size_t flushes = 0;
  size_t bins_changed = 0;
  size_t epoch_k_dropped = 0;
};

// Checks one flush: the session's seamlessness against the reference
// over the flush's own tables, and the bin NodeIds against the cells.
void CheckFlush(const ProtectionSession& session, const EpochOutput& epoch,
                const std::string& context, Tally* tally) {
  const ProtectionOutcome& outcome = epoch.outcome;
  const BinningOutcome& binning = outcome.binning;
  const size_t k = session.config().binning.k;
  auto reference = MeasureSeamlessness(binning.binned, outcome.watermarked,
                                       binning.qi_columns, k);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(outcome.seamlessness.size(), reference->size()) << context;
  for (size_t i = 0; i < reference->size(); ++i) {
    const AttributeSeamlessness& got = outcome.seamlessness[i];
    const AttributeSeamlessness& want = (*reference)[i];
    EXPECT_EQ(got.attribute, want.attribute) << context;
    EXPECT_EQ(got.total_bins, want.total_bins)
        << context << " " << want.attribute;
    EXPECT_EQ(got.bins_size_changed, want.bins_size_changed)
        << context << " " << want.attribute;
    EXPECT_EQ(got.bins_below_k, want.bins_below_k)
        << context << " " << want.attribute;
    tally->bins_changed += got.bins_size_changed;
  }

  ASSERT_EQ(binning.bin_nodes.size(), binning.qi_columns.size()) << context;
  for (size_t c = 0; c < binning.qi_columns.size(); ++c) {
    ASSERT_EQ(binning.bin_nodes[c].size(), binning.binned.num_rows())
        << context;
    const DomainHierarchy& tree = *binning.ultimate[c].tree();
    for (size_t r = 0; r < binning.binned.num_rows(); ++r) {
      ASSERT_EQ(binning.binned.at(r, binning.qi_columns[c]).AsString(),
                tree.node(binning.bin_nodes[c][r]).label)
          << context << " column " << c << " row " << r;
    }
  }

  const EpochRecord& record = session.epochs().back();
  tally->epoch_k_dropped += record.rows_suppressed - binning.suppressed_rows;
  ++tally->flushes;
}

// Ingests rows [0, rows) in `batch` slices, flushing after each slice
// when `flush_every_batch` (a drift session's epochs, one per slice) or
// once at the end (a freeze session's single flush).
Tally RunSession(const UsageMetrics& metrics, const FrameworkConfig& config,
                 RebinPolicy policy, size_t rows, size_t batch,
                 bool flush_every_batch, const std::string& context) {
  const Fixture& f = SharedFixture();
  SessionConfig session_config;
  session_config.policy = policy;
  // Drift epochs close only on the explicit flushes below, so every
  // epoch's outcome is observable.
  session_config.drift_threshold = 1e9;
  ProtectionSession session(metrics, config, session_config);
  Tally tally;
  for (size_t begin = 0; begin < rows; begin += batch) {
    auto ingested =
        session.Ingest(f.dataset->table.Slice(begin, begin + batch));
    EXPECT_TRUE(ingested.ok()) << context << ": "
                               << ingested.status().ToString();
    if (!ingested.ok()) return tally;
    if (!flush_every_batch && begin + batch < rows) continue;
    auto flushed = session.Flush();
    EXPECT_TRUE(flushed.ok()) << context << ": "
                              << flushed.status().ToString();
    if (!flushed.ok()) return tally;
    CheckFlush(session, *flushed,
               context + " epoch " + std::to_string(flushed->epoch), &tally);
  }
  return tally;
}

TEST(SeamlessnessEquivalenceTest, FreezeFlushMatchesReference) {
  const Fixture& f = SharedFixture();
  for (size_t t : ThreadCounts()) {
    for (size_t batch : {kRows, size_t{1000}}) {
      const std::string context = "freeze, batch " + std::to_string(batch) +
                                  ", num_threads " + std::to_string(t);
      const Tally tally = RunSession(
          f.metrics, MakeConfig(20, 75, t), RebinPolicy::kFreezeBins, kRows,
          batch, /*flush_every_batch=*/false, context);
      EXPECT_EQ(tally.flushes, 1u) << context;
      EXPECT_GT(tally.bins_changed, 0u) << context;
    }
  }
}

TEST(SeamlessnessEquivalenceTest, DriftEpochsWithEpochKDropsMatchReference) {
  // Suppressing 500-row windows at k = 40: the epoch-k sweep drops rows
  // in most epochs, so the snapshot and seamlessness must see the rows
  // left after the drop.
  const Fixture& f = SharedFixture();
  for (size_t t : ThreadCounts()) {
    FrameworkConfig config = MakeConfig(40, 20, t);
    config.binning.mono.on_unbinnable = UnbinnablePolicy::kSuppress;
    const std::string context = "drift, num_threads " + std::to_string(t);
    const Tally tally =
        RunSession(f.metrics, config, RebinPolicy::kRebinOnDrift, kRows, 500,
                   /*flush_every_batch=*/true, context);
    EXPECT_EQ(tally.flushes, kRows / 500) << context;
    EXPECT_GT(tally.epoch_k_dropped, 0u) << context;
    EXPECT_GT(tally.bins_changed, 0u) << context;
  }
}

TEST(SeamlessnessEquivalenceTest, JointBinningMatchesReference) {
  const Fixture& f = SharedFixture();
  for (size_t t : ThreadCounts()) {
    FrameworkConfig config = MakeConfig(10, 10, t);
    config.binning.enforce_joint = true;
    const std::string context = "joint, num_threads " + std::to_string(t);
    const Tally tally =
        RunSession(f.unconstrained, config, RebinPolicy::kFreezeBins, kRows,
                   5000, /*flush_every_batch=*/false, context);
    EXPECT_EQ(tally.flushes, 1u) << context;
    EXPECT_GT(tally.bins_changed, 0u) << context;
  }
}

TEST(SeamlessnessEquivalenceTest, AutoEpsilonMatchesReference) {
  const Fixture& f = SharedFixture();
  for (size_t t : ThreadCounts()) {
    FrameworkConfig config = MakeConfig(20, 75, t);
    config.auto_epsilon = true;
    const std::string freeze = "auto-epsilon freeze, num_threads " +
                               std::to_string(t);
    const Tally frozen =
        RunSession(f.metrics, config, RebinPolicy::kFreezeBins, kRows, 1000,
                   /*flush_every_batch=*/false, freeze);
    EXPECT_EQ(frozen.flushes, 1u) << freeze;
    EXPECT_GT(frozen.bins_changed, 0u) << freeze;

    // Re-selected drift epochs on small suppressing windows, where the
    // epsilon bump also pushes rows through the epoch-k sweep.
    FrameworkConfig drift_config = MakeConfig(10, 20, t);
    drift_config.auto_epsilon = true;
    drift_config.binning.mono.on_unbinnable = UnbinnablePolicy::kSuppress;
    const std::string drift = "auto-epsilon drift, num_threads " +
                              std::to_string(t);
    const Tally drifted =
        RunSession(f.metrics, drift_config, RebinPolicy::kRebinOnDrift,
                   kRows / 2, 200, /*flush_every_batch=*/true, drift);
    EXPECT_EQ(drifted.flushes, kRows / 2 / 200) << drift;
    EXPECT_GT(drifted.epoch_k_dropped, 0u) << drift;
  }
}

}  // namespace
}  // namespace privmark
