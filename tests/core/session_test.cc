// Unit tests for the incremental protection session (core/session.h):
// lifecycle errors, freeze-mode emission and suppression semantics, drift
// auto-rebinning, per-epoch detection, and pool reuse. The heavyweight
// byte-identity claims against one-shot Protect live in
// tests/properties/streaming_equivalence_test.cc.

#include "core/session.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/framework.h"
#include "core/manifest.h"
#include "datagen/medical_data.h"
#include "relation/csv.h"
#include "watermark/hierarchical.h"

namespace privmark {
namespace {

constexpr size_t kRows = 2400;
constexpr uint64_t kSeed = 424242;

struct Env {
  std::unique_ptr<MedicalDataset> dataset;
  UsageMetrics metrics;
  FrameworkConfig config;
};

Env MakeEnv(size_t num_threads = 1) {
  Env env;
  MedicalDataSpec spec;
  spec.num_rows = kRows;
  spec.seed = kSeed;
  env.dataset = std::make_unique<MedicalDataset>(
      std::move(GenerateMedicalDataset(spec)).ValueOrDie());
  env.metrics =
      MetricsFromDepthCuts(env.dataset->trees(), {2, 1, 2, 1, 1}).ValueOrDie();
  env.config.binning.k = 10;
  env.config.binning.enforce_joint = false;
  env.config.binning.num_threads = num_threads;
  env.config.watermark.num_threads = num_threads;
  // Small eta: the drift test detects marks from 600-row epochs, which
  // needs enough selected tuples for every wm bit to receive votes.
  env.config.key = {"session-k1", "session-k2", /*eta=*/10};
  return env;
}

TEST(ProtectionSessionTest, SingleBatchFlushMatchesProtect) {
  Env env = MakeEnv();
  ProtectionFramework framework(env.metrics, env.config);
  const auto protect = framework.Protect(env.dataset->table);
  ASSERT_TRUE(protect.ok());

  ProtectionSession session(env.metrics, env.config);
  const auto ingest = session.Ingest(env.dataset->table);
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(ingest->rows_buffered, kRows);
  EXPECT_EQ(ingest->rows_emitted, 0u);
  EXPECT_FALSE(session.frozen());
  const auto flush = session.Flush();
  ASSERT_TRUE(flush.ok());
  EXPECT_TRUE(session.frozen());
  EXPECT_EQ(flush->epoch, 0u);

  EXPECT_EQ(TableToCsv(flush->outcome.watermarked),
            TableToCsv(protect->watermarked));
  EXPECT_EQ(TableToCsv(flush->outcome.binning.binned),
            TableToCsv(protect->binning.binned));
  EXPECT_EQ(flush->outcome.mark.ToString(), protect->mark.ToString());
  EXPECT_EQ(flush->outcome.identifier_statistic,
            protect->identifier_statistic);
  EXPECT_EQ(flush->outcome.embed.wmd_size, protect->embed.wmd_size);
  EXPECT_EQ(flush->outcome.embed.cells_changed, protect->embed.cells_changed);
}

TEST(ProtectionSessionTest, BatchSplitFreezeFlushMatchesProtect) {
  Env env = MakeEnv();
  ProtectionFramework framework(env.metrics, env.config);
  const auto protect = framework.Protect(env.dataset->table);
  ASSERT_TRUE(protect.ok());

  ProtectionSession session(env.metrics, env.config);
  for (size_t begin = 0; begin < kRows; begin += 97) {
    const auto ingest =
        session.Ingest(env.dataset->table.Slice(begin, begin + 97));
    ASSERT_TRUE(ingest.ok());
    EXPECT_FALSE(ingest->flushed);
  }
  const auto flush = session.Flush();
  ASSERT_TRUE(flush.ok());
  EXPECT_EQ(TableToCsv(flush->outcome.watermarked),
            TableToCsv(protect->watermarked));
}

TEST(ProtectionSessionTest, FrozenIngestEmitsImmediately) {
  Env env = MakeEnv();
  ProtectionSession session(env.metrics, env.config);
  ASSERT_TRUE(session.Ingest(env.dataset->table.Slice(0, 2000)).ok());
  ASSERT_TRUE(session.Flush().ok());

  const auto result =
      session.Ingest(env.dataset->table.Slice(2000, 2200));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->epoch, 0u);
  EXPECT_EQ(result->rows_buffered, 0u);
  EXPECT_EQ(result->rows_emitted + result->rows_suppressed, 200u);
  EXPECT_EQ(result->emitted.num_rows(), result->rows_emitted);
  // Emission joined epoch 0's bookkeeping.
  ASSERT_EQ(session.epochs().size(), 1u);
  EXPECT_EQ(session.epochs()[0].rows_emitted,
            2000u + result->rows_emitted);

  // Emitted labels come from the frozen generalization: every QI cell
  // must resolve to an ultimate node of epoch 0.
  const EpochRecord& epoch = session.epochs()[0];
  const std::vector<size_t> qi =
      result->emitted.schema().QuasiIdentifyingColumns();
  for (size_t r = 0; r < result->emitted.num_rows(); ++r) {
    for (size_t c = 0; c < qi.size(); ++c) {
      EXPECT_TRUE(epoch.ultimate[c]
                      .NodeForLabel(result->emitted.at(r, qi[c]).AsString())
                      .ok());
    }
  }
}

TEST(ProtectionSessionTest, FreezeSuppressesRowsOfUnestablishedBins) {
  // Hand-built two-column stream where the first flush leaves one bin per
  // column empty: [50,100) ages and Nurses never occur in the initial
  // load, so their cover nodes are vacuous. Frozen ingest must emit rows
  // of established bins and suppress the rest — that is exactly what
  // keeps the concatenated output k-anonymous under a frozen
  // generalization.
  DomainHierarchy age =
      BuildNumericHierarchy("age", {0, 25, 50, 75, 100}).ValueOrDie();
  DomainHierarchy role = HierarchyBuilder::FromOutline("role", R"(Person
  Doctor
  Nurse)").ValueOrDie();
  Schema schema;
  ASSERT_TRUE(
      schema.AddColumn({"id", ColumnRole::kIdentifying, ValueType::kString})
          .ok());
  ASSERT_TRUE(
      schema.AddColumn({"age", ColumnRole::kQuasiNumeric, ValueType::kInt64})
          .ok());
  ASSERT_TRUE(schema
                  .AddColumn({"role", ColumnRole::kQuasiCategorical,
                              ValueType::kString})
                  .ok());
  UsageMetrics metrics;
  metrics.trees = {&age, &role};
  metrics.maximal = {CutAtDepth(&age, 1), CutAtDepth(&role, 1)};

  FrameworkConfig config;
  config.binning.k = 2;
  config.binning.enforce_joint = false;
  ProtectionSession session(metrics, config);

  int next_id = 0;
  const auto make_batch = [&](const std::vector<std::pair<int, std::string>>&
                                  rows) {
    Table batch(schema);
    for (const auto& [age_value, role_value] : rows) {
      EXPECT_TRUE(
          batch
              .AppendRow({Value::String("id" + std::to_string(next_id++)),
                          Value::Int64(age_value), Value::String(role_value)})
              .ok());
    }
    return batch;
  };

  ASSERT_TRUE(session
                  .Ingest(make_batch({{10, "Doctor"},
                                      {10, "Doctor"},
                                      {30, "Doctor"},
                                      {30, "Doctor"}}))
                  .ok());
  ASSERT_TRUE(session.Flush().ok());

  // One row per fate: established bin (young doctor), empty age bin,
  // empty role bin.
  const auto result = session.Ingest(
      make_batch({{20, "Doctor"}, {60, "Doctor"}, {20, "Nurse"}}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_emitted, 1u);
  EXPECT_EQ(result->rows_suppressed, 2u);
  ASSERT_EQ(result->emitted.num_rows(), 1u);
  // The survivor is the young doctor, generalized under epoch 0's nodes.
  EXPECT_TRUE(session.epochs()[0]
                  .ultimate[0]
                  .NodeForLabel(result->emitted.at(0, 1).AsString())
                  .ok());
  EXPECT_EQ(session.rows_suppressed(), 2u);
}

TEST(ProtectionSessionTest, FreezeJointSuppressesRowsOfUnestablishedJointBins) {
  // Joint counterpart: after the first flush every per-column bin is
  // established, but only two of the four (age, role) combinations are.
  // A frozen row must land in an established *joint* bin to be emitted.
  DomainHierarchy age =
      BuildNumericHierarchy("age", {0, 25, 50, 75, 100}).ValueOrDie();
  DomainHierarchy role = HierarchyBuilder::FromOutline("role", R"(Person
  Doctor
  Nurse)").ValueOrDie();
  Schema schema;
  ASSERT_TRUE(
      schema.AddColumn({"id", ColumnRole::kIdentifying, ValueType::kString})
          .ok());
  ASSERT_TRUE(
      schema.AddColumn({"age", ColumnRole::kQuasiNumeric, ValueType::kInt64})
          .ok());
  ASSERT_TRUE(schema
                  .AddColumn({"role", ColumnRole::kQuasiCategorical,
                              ValueType::kString})
                  .ok());
  UsageMetrics metrics;
  metrics.trees = {&age, &role};
  metrics.maximal = {CutAtDepth(&age, 1), CutAtDepth(&role, 1)};

  FrameworkConfig config;
  config.binning.k = 2;
  config.binning.enforce_joint = true;
  ProtectionSession session(metrics, config);

  int next_id = 0;
  const auto make_batch = [&](const std::vector<std::pair<int, std::string>>&
                                  rows) {
    Table batch(schema);
    for (const auto& [age_value, role_value] : rows) {
      EXPECT_TRUE(
          batch
              .AppendRow({Value::String("id" + std::to_string(next_id++)),
                          Value::Int64(age_value), Value::String(role_value)})
              .ok());
    }
    return batch;
  };

  ASSERT_TRUE(session
                  .Ingest(make_batch({{10, "Doctor"},
                                      {10, "Doctor"},
                                      {30, "Nurse"},
                                      {30, "Nurse"}}))
                  .ok());
  ASSERT_TRUE(session.Flush().ok());

  // Established joint bins (young doctor, older nurse) emit; the young
  // nurse and older doctor have established columns but no joint bin.
  const auto result = session.Ingest(make_batch(
      {{20, "Doctor"}, {20, "Nurse"}, {40, "Doctor"}, {40, "Nurse"}}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_emitted, 2u);
  EXPECT_EQ(result->rows_suppressed, 2u);
  ASSERT_EQ(result->emitted.num_rows(), 2u);
  EXPECT_EQ(result->emitted.at(0, 2).AsString(), "Doctor");
  EXPECT_EQ(result->emitted.at(1, 2).AsString(), "Nurse");
}

TEST(ProtectionSessionTest, DriftPolicyAutoRebinsAndDetects) {
  Env env = MakeEnv();
  env.config.auto_epsilon = true;
  SessionConfig session_config;
  session_config.policy = RebinPolicy::kRebinOnDrift;
  session_config.drift_threshold = 0.5;
  ProtectionSession session(env.metrics, env.config, session_config);

  ASSERT_TRUE(session.Ingest(env.dataset->table.Slice(0, 1200)).ok());
  const auto first = session.Flush();
  ASSERT_TRUE(first.ok());
  Table concatenated = first->outcome.watermarked.Clone();

  size_t flushes = 0;
  for (size_t begin = 1200; begin < kRows; begin += 200) {
    const auto result =
        session.Ingest(env.dataset->table.Slice(begin, begin + 200));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->flushed) {
      ++flushes;
      for (size_t r = 0; r < result->emitted.num_rows(); ++r) {
        ASSERT_TRUE(concatenated.AppendRow(result->emitted.row(r)).ok());
      }
    }
  }
  // 1200 basis rows at threshold 0.5 -> a new epoch every 600 buffered.
  EXPECT_GE(flushes, 1u);
  ASSERT_EQ(session.epochs().size(), 1u + flushes);
  EXPECT_EQ(session.rows_buffered(), kRows - 1200 - flushes * 600);

  // Every epoch's emitted table is independently k-anonymous per
  // attribute and detects its own mark.
  const auto reports = session.DetectAcrossEpochs(concatenated);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  size_t offset = 0;
  for (const EpochRecord& epoch : session.epochs()) {
    const Table segment =
        concatenated.Slice(offset, offset + epoch.rows_emitted);
    offset += epoch.rows_emitted;
    for (size_t qi : segment.schema().QuasiIdentifyingColumns()) {
      EXPECT_TRUE(segment.IsKAnonymous({qi}, env.config.binning.k))
          << "epoch " << epoch.epoch << " column " << qi;
    }
    // Detection: every voted bit must match (no flips — a small epoch
    // may leave a rare wmd position unvoted, which is an erasure, not a
    // detection failure), and the agreement must be far beyond chance.
    const DetectReport& report = (*reports)[epoch.epoch];
    size_t voted = 0;
    size_t flips = 0;
    for (size_t j = 0; j < epoch.mark.size(); ++j) {
      if (!report.bit_voted[j]) continue;
      ++voted;
      if (report.recovered.Get(j) != epoch.mark.Get(j)) ++flips;
    }
    EXPECT_EQ(flips, 0u) << "epoch " << epoch.epoch;
    EXPECT_GE(voted, epoch.mark.size() - 2) << "epoch " << epoch.epoch;
    const auto p_value = DetectionPValue(epoch.mark, report);
    ASSERT_TRUE(p_value.ok());
    EXPECT_LT(*p_value, 1e-4) << "epoch " << epoch.epoch;
  }
}

TEST(ProtectionSessionTest, EpochManifestRoundTripsToDetection) {
  Env env = MakeEnv();
  ProtectionSession session(env.metrics, env.config);
  ASSERT_TRUE(session.Ingest(env.dataset->table).ok());
  const auto flush = session.Flush();
  ASSERT_TRUE(flush.ok());

  const auto manifest =
      ManifestFromEpoch(session.epochs()[0], env.dataset->table.schema(),
                        env.metrics, env.config);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->wmd_size, flush->outcome.embed.wmd_size);
  const auto watermarker = WatermarkerFromManifest(
      *manifest, flush->outcome.watermarked, env.dataset->trees(),
      env.config.key, env.config.watermark);
  ASSERT_TRUE(watermarker.ok());
  const auto report = watermarker->Detect(
      flush->outcome.watermarked, manifest->mark_bits, manifest->wmd_size);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->recovered.ToString(), flush->outcome.mark.ToString());
}

TEST(ProtectionSessionTest, LifecycleErrors) {
  Env env = MakeEnv();
  ProtectionSession session(env.metrics, env.config);
  // Flush before any ingest.
  EXPECT_FALSE(session.Flush().ok());
  ASSERT_TRUE(session.Ingest(env.dataset->table.Slice(0, 1200)).ok());
  ASSERT_TRUE(session.Flush().ok());
  // Frozen session with nothing buffered: nothing to flush.
  EXPECT_FALSE(session.Flush().ok());

  // A batch with a different schema is rejected.
  Schema other;
  ASSERT_TRUE(
      other.AddColumn({"id", ColumnRole::kIdentifying, ValueType::kString})
          .ok());
  const auto bad = session.Ingest(Table(other));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtectionSessionTest, EmptyBatchesAreHarmless) {
  Env env = MakeEnv();
  ProtectionSession session(env.metrics, env.config);
  ASSERT_TRUE(session.Ingest(Table(env.dataset->table.schema())).ok());
  ASSERT_TRUE(session.Ingest(env.dataset->table).ok());
  ASSERT_TRUE(session.Ingest(Table(env.dataset->table.schema())).ok());
  const auto flush = session.Flush();
  ASSERT_TRUE(flush.ok());
  EXPECT_EQ(flush->outcome.watermarked.num_rows(), kRows);
}

TEST(ProtectionSessionTest, DetectAcrossEpochsRejectsWrongRowCount) {
  Env env = MakeEnv();
  ProtectionSession session(env.metrics, env.config);
  ASSERT_TRUE(session.Ingest(env.dataset->table).ok());
  ASSERT_TRUE(session.Flush().ok());
  const auto bad = session.DetectAcrossEpochs(Table(env.dataset->table.schema()));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtectionSessionTest, SessionPoolIsReusedAcrossBatches) {
  Env env = MakeEnv(/*num_threads=*/2);
  ProtectionSession session(env.metrics, env.config);
  ASSERT_NE(session.pool(), nullptr);
  ThreadPool* const pool = session.pool();
  EXPECT_EQ(pool->num_threads(), 2u);
  ASSERT_TRUE(session.Ingest(env.dataset->table.Slice(0, 1200)).ok());
  ASSERT_TRUE(session.Flush().ok());
  ASSERT_TRUE(session.Ingest(env.dataset->table.Slice(1200, 2400)).ok());
  // The same pool object serves the whole session, and both agent configs
  // point at it.
  EXPECT_EQ(session.pool(), pool);
  EXPECT_EQ(session.config().binning.pool, pool);
  EXPECT_EQ(session.config().watermark.pool, pool);
}

TEST(ProtectionSessionTest, CallerOwnedPoolWins) {
  Env env = MakeEnv(/*num_threads=*/1);
  const auto pool = MakeThreadPool(3);
  env.config.binning.pool = pool.get();
  env.config.watermark.pool = pool.get();
  ProtectionSession session(env.metrics, env.config);
  EXPECT_EQ(session.pool(), pool.get());
  ASSERT_TRUE(session.Ingest(env.dataset->table).ok());
  ASSERT_TRUE(session.Flush().ok());
}

TEST(ProtectionSessionTest, InjectedPoolBackfillsTheOtherAgent) {
  // When a caller (the service) injects a pool for one agent, the other
  // agent must inherit that same pool — never a fresh one built from the
  // num_threads knobs, which record the *requested* width, not the one
  // the caller gave.
  Env env = MakeEnv(/*num_threads=*/8);  // the request: 8 threads
  const auto granted = MakeThreadPool(2);  // the grant: 2 threads
  env.config.binning.pool = granted.get();
  env.config.watermark.pool = nullptr;
  ProtectionSession session(env.metrics, env.config);
  EXPECT_EQ(session.config().binning.pool, granted.get());
  EXPECT_EQ(session.config().watermark.pool, granted.get());
  EXPECT_EQ(session.pool()->num_threads(), 2u);
  ASSERT_TRUE(session.Ingest(env.dataset->table).ok());
  ASSERT_TRUE(session.Flush().ok());

  // Symmetric: a watermark-side injection governs the binning agent too.
  Env env2 = MakeEnv(/*num_threads=*/8);
  env2.config.watermark.pool = granted.get();
  ProtectionSession session2(env2.metrics, env2.config);
  EXPECT_EQ(session2.config().binning.pool, granted.get());
  EXPECT_EQ(session2.pool(), granted.get());
}

}  // namespace
}  // namespace privmark