// Property suite for the incremental protection session, on the standard
// 20k-row fixed-seed dataset:
//
//  1. Freeze-mode replay equivalence: ingesting the table in batches of
//     any size (whole, 1k, a prime, and one row at a time) and flushing
//     once produces output byte-identical to one-shot Protect — tables
//     via CSV serialization, reports field by field, detection vote
//     margins as exact doubles. This pins down the buffered encoded
//     view: batches appended in arrival order must count exactly as the
//     whole table does.
//  2. Thread-count equivalence: the single-batch session and batched
//     replays are bit-identical to the serial baseline for num_threads
//     in {1, 2, hw}, and frozen per-batch emission is deterministic
//     across thread counts.
//  3. Drift-mode epochs: each emitted epoch independently satisfies
//     per-attribute k-anonymity and detects its own mark.
//  4. Joint binning: MultiAttributeBin under a pooled binning agent
//     chooses the same generalization as the serial agent on the 20k
//     dataset.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "binning/binning_engine.h"
#include "core/framework.h"
#include "core/session.h"
#include "datagen/medical_data.h"
#include "metrics/usage_metrics.h"
#include "relation/csv.h"
#include "watermark/hierarchical.h"

namespace privmark {
namespace {

constexpr size_t kRows = 20000;
constexpr uint64_t kSeed = 20050405;
constexpr size_t kK = 20;
constexpr uint64_t kEta = 75;
constexpr char kPassphrase[] = "bench-owner-passphrase";

struct Fixture {
  std::unique_ptr<MedicalDataset> dataset;
  UsageMetrics metrics;
  FrameworkConfig config;             // num_threads = 1 (serial)
  ProtectionOutcome baseline;         // serial one-shot Protect
  std::string baseline_watermarked_csv;
  std::string baseline_binned_csv;
  DetectReport baseline_detect;
};

Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture;
    MedicalDataSpec spec;
    spec.num_rows = kRows;
    spec.seed = kSeed;
    f->dataset = std::make_unique<MedicalDataset>(
        std::move(GenerateMedicalDataset(spec)).ValueOrDie());
    f->metrics =
        MetricsFromDepthCuts(f->dataset->trees(), {2, 1, 2, 1, 1})
            .ValueOrDie();
    f->config.binning.k = kK;
    f->config.binning.enforce_joint = false;
    f->config.binning.encryption_passphrase = kPassphrase;
    f->config.key = {"bench-k1", "bench-k2", kEta};
    ProtectionFramework framework(f->metrics, f->config);
    f->baseline = std::move(framework.Protect(f->dataset->table)).ValueOrDie();
    f->baseline_watermarked_csv = TableToCsv(f->baseline.watermarked);
    f->baseline_binned_csv = TableToCsv(f->baseline.binning.binned);
    HierarchicalWatermarker watermarker =
        framework.MakeWatermarker(f->baseline.binning);
    f->baseline_detect =
        std::move(watermarker.Detect(f->baseline.watermarked,
                                     f->baseline.mark.size(),
                                     f->baseline.embed.wmd_size))
            .ValueOrDie();
    return f;
  }();
  return *fixture;
}

void ExpectOutcomeMatchesBaseline(const Fixture& f,
                                  const ProtectionOutcome& outcome,
                                  const std::string& context) {
  EXPECT_EQ(TableToCsv(outcome.watermarked), f.baseline_watermarked_csv)
      << context;
  EXPECT_EQ(TableToCsv(outcome.binning.binned), f.baseline_binned_csv)
      << context;
  EXPECT_EQ(outcome.mark.ToString(), f.baseline.mark.ToString()) << context;
  // Exact double equality, deliberately: the identifier statistic and the
  // loss sums must come out of the same arithmetic, not merely close.
  EXPECT_EQ(outcome.identifier_statistic, f.baseline.identifier_statistic)
      << context;
  EXPECT_EQ(outcome.binning.mono_column_loss, f.baseline.binning.mono_column_loss)
      << context;
  EXPECT_EQ(outcome.binning.multi_column_loss,
            f.baseline.binning.multi_column_loss)
      << context;
  EXPECT_EQ(outcome.binning.minimal, f.baseline.binning.minimal) << context;
  EXPECT_EQ(outcome.binning.ultimate, f.baseline.binning.ultimate) << context;
  EXPECT_EQ(outcome.binning.suppressed_rows, f.baseline.binning.suppressed_rows)
      << context;
  EXPECT_EQ(outcome.epsilon_used, f.baseline.epsilon_used) << context;
  EXPECT_EQ(outcome.embed.tuples_selected, f.baseline.embed.tuples_selected)
      << context;
  EXPECT_EQ(outcome.embed.slots_embedded, f.baseline.embed.slots_embedded)
      << context;
  EXPECT_EQ(outcome.embed.slots_skipped_no_gap,
            f.baseline.embed.slots_skipped_no_gap)
      << context;
  EXPECT_EQ(outcome.embed.copies, f.baseline.embed.copies) << context;
  EXPECT_EQ(outcome.embed.wmd_size, f.baseline.embed.wmd_size) << context;
  EXPECT_EQ(outcome.embed.cells_changed, f.baseline.embed.cells_changed)
      << context;
  ASSERT_EQ(outcome.seamlessness.size(), f.baseline.seamlessness.size())
      << context;
  for (size_t i = 0; i < outcome.seamlessness.size(); ++i) {
    EXPECT_EQ(outcome.seamlessness[i].total_bins,
              f.baseline.seamlessness[i].total_bins)
        << context;
    EXPECT_EQ(outcome.seamlessness[i].bins_size_changed,
              f.baseline.seamlessness[i].bins_size_changed)
        << context;
    EXPECT_EQ(outcome.seamlessness[i].bins_below_k,
              f.baseline.seamlessness[i].bins_below_k)
        << context;
  }
}

void ExpectDetectMatchesBaseline(const Fixture& f, const DetectReport& report,
                                 const std::string& context) {
  EXPECT_EQ(report.recovered.ToString(), f.baseline_detect.recovered.ToString())
      << context;
  EXPECT_EQ(report.tuples_selected, f.baseline_detect.tuples_selected)
      << context;
  EXPECT_EQ(report.slots_read, f.baseline_detect.slots_read) << context;
  ASSERT_EQ(report.vote_margin.size(), f.baseline_detect.vote_margin.size())
      << context;
  for (size_t j = 0; j < report.vote_margin.size(); ++j) {
    // Exact: vote tallies sum 1.0s, so margins must match bit for bit.
    EXPECT_EQ(report.vote_margin[j], f.baseline_detect.vote_margin[j])
        << context << " bit " << j;
  }
  EXPECT_EQ(report.bit_voted, f.baseline_detect.bit_voted) << context;
}

// Replays the whole table through a freeze-mode session in `batch_size`
// batches at `num_threads`, flushes once, and returns the epoch output.
EpochOutput ReplayFreeze(const Fixture& f, size_t batch_size,
                         size_t num_threads) {
  FrameworkConfig config = f.config;
  config.binning.num_threads = num_threads;
  config.watermark.num_threads = num_threads;
  ProtectionSession session(f.metrics, config);
  for (size_t begin = 0; begin < kRows; begin += batch_size) {
    auto result =
        session.Ingest(f.dataset->table.Slice(begin, begin + batch_size));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows_emitted, 0u);
  }
  auto flush = session.Flush();
  EXPECT_TRUE(flush.ok()) << flush.status().ToString();
  return std::move(flush).ValueOrDie();
}

TEST(StreamingEquivalenceTest, FreezeReplayByteIdenticalToProtect) {
  Fixture& f = SharedFixture();
  for (size_t batch_size : {kRows, size_t{1000}, size_t{317}, size_t{1}}) {
    EpochOutput epoch = ReplayFreeze(f, batch_size, /*num_threads=*/1);
    const std::string context =
        "batch size " + std::to_string(batch_size);
    ExpectOutcomeMatchesBaseline(f, epoch.outcome, context);
  }
}

TEST(StreamingEquivalenceTest, SingleBatchBitIdenticalAcrossThreads) {
  Fixture& f = SharedFixture();
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (size_t t : {size_t{1}, size_t{2}, hw}) {
    EpochOutput epoch = ReplayFreeze(f, kRows, t);
    const std::string context = "num_threads " + std::to_string(t);
    ExpectOutcomeMatchesBaseline(f, epoch.outcome, context);

    // Detection over the session's output: vote margins must equal the
    // serial baseline's exactly, at this thread count too.
    FrameworkConfig config = f.config;
    config.watermark.num_threads = t;
    ProtectionFramework framework(f.metrics, config);
    HierarchicalWatermarker watermarker =
        framework.MakeWatermarker(epoch.outcome.binning);
    auto report =
        watermarker.Detect(epoch.outcome.watermarked,
                           epoch.outcome.mark.size(),
                           epoch.outcome.embed.wmd_size);
    ASSERT_TRUE(report.ok());
    ExpectDetectMatchesBaseline(f, *report, context);
  }
}

TEST(StreamingEquivalenceTest, BatchedReplayBitIdenticalAcrossThreads) {
  Fixture& f = SharedFixture();
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (size_t t : {size_t{2}, hw}) {
    EpochOutput epoch = ReplayFreeze(f, /*batch_size=*/317, t);
    ExpectOutcomeMatchesBaseline(
        f, epoch.outcome,
        "batch 317, num_threads " + std::to_string(t));
  }
}

TEST(StreamingEquivalenceTest, FrozenEmissionDeterministicAcrossThreads) {
  Fixture& f = SharedFixture();
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  constexpr size_t kInitial = 10000;
  constexpr size_t kBatch = 500;

  // Serial reference stream: flush at 10k, then emit per 500-row batch.
  std::vector<std::string> reference_batches;
  std::vector<size_t> reference_suppressed;
  {
    ProtectionSession session(f.metrics, f.config);
    ASSERT_TRUE(
        session.Ingest(f.dataset->table.Slice(0, kInitial)).ok());
    ASSERT_TRUE(session.Flush().ok());
    for (size_t begin = kInitial; begin < kRows; begin += kBatch) {
      auto result = session.Ingest(
          f.dataset->table.Slice(begin, begin + kBatch));
      ASSERT_TRUE(result.ok());
      reference_batches.push_back(TableToCsv(result->emitted));
      reference_suppressed.push_back(result->rows_suppressed);
    }
  }
  ASSERT_FALSE(reference_batches.empty());

  for (size_t t : {size_t{2}, hw}) {
    FrameworkConfig config = f.config;
    config.binning.num_threads = t;
    config.watermark.num_threads = t;
    ProtectionSession session(f.metrics, config);
    ASSERT_TRUE(
        session.Ingest(f.dataset->table.Slice(0, kInitial)).ok());
    ASSERT_TRUE(session.Flush().ok());
    size_t i = 0;
    for (size_t begin = kInitial; begin < kRows; begin += kBatch, ++i) {
      auto result = session.Ingest(
          f.dataset->table.Slice(begin, begin + kBatch));
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(TableToCsv(result->emitted), reference_batches[i])
          << "batch " << i << " with num_threads " << t;
      EXPECT_EQ(result->rows_suppressed, reference_suppressed[i])
          << "batch " << i << " with num_threads " << t;
    }
  }
}

TEST(StreamingEquivalenceTest, DriftEpochsSatisfyKAndDetectTheirMarks) {
  Fixture& f = SharedFixture();
  FrameworkConfig config = f.config;
  config.auto_epsilon = true;  // Sec. 6: keep bins >= k through the embed
  SessionConfig session_config;
  session_config.policy = RebinPolicy::kRebinOnDrift;
  session_config.drift_threshold = 0.5;
  ProtectionSession session(f.metrics, config, session_config);

  ASSERT_TRUE(session.Ingest(f.dataset->table.Slice(0, 10000)).ok());
  auto first = session.Flush();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Table concatenated = first->outcome.watermarked.Clone();
  for (size_t begin = 10000; begin < kRows; begin += 1000) {
    auto result =
        session.Ingest(f.dataset->table.Slice(begin, begin + 1000));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->flushed) {
      for (size_t r = 0; r < result->emitted.num_rows(); ++r) {
        ASSERT_TRUE(concatenated.AppendRow(result->emitted.row(r)).ok());
      }
    }
  }
  if (session.rows_buffered() > 0) {
    auto tail = session.Flush();
    ASSERT_TRUE(tail.ok());
    for (size_t r = 0; r < tail->outcome.watermarked.num_rows(); ++r) {
      ASSERT_TRUE(
          concatenated.AppendRow(tail->outcome.watermarked.row(r)).ok());
    }
  }
  // 10k basis at threshold 0.5 -> an epoch at 5k, then the 5k tail.
  ASSERT_GE(session.epochs().size(), 2u);

  auto reports = session.DetectAcrossEpochs(concatenated);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  size_t offset = 0;
  for (const EpochRecord& epoch : session.epochs()) {
    const Table segment =
        concatenated.Slice(offset, offset + epoch.rows_emitted);
    offset += epoch.rows_emitted;
    EXPECT_GT(segment.num_rows(), 0u) << "epoch " << epoch.epoch;
    for (size_t qi : segment.schema().QuasiIdentifyingColumns()) {
      EXPECT_TRUE(segment.IsKAnonymous({qi}, kK))
          << "epoch " << epoch.epoch << " column " << qi;
    }
    // Detection: no voted bit may flip (unvoted positions in a small
    // epoch are erasures, not failures) and the agreement must be far
    // beyond chance.
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
    auto p_value = DetectionPValue(epoch.mark, report);
    ASSERT_TRUE(p_value.ok());
    EXPECT_LT(*p_value, 1e-4) << "epoch " << epoch.epoch;
    // Epoch marks derive from the epoch's own identifiers; distinct
    // windows must not share a mark (derivation is a hash of the mean).
    if (epoch.epoch > 0) {
      EXPECT_NE(epoch.mark.ToString(), session.epochs()[0].mark.ToString());
    }
  }
  EXPECT_EQ(offset, concatenated.num_rows());
}

TEST(StreamingEquivalenceTest, JointParallelCandidateSearchMatchesSerial) {
  // On the 20k dataset, a pooled binning agent's joint search picks the
  // same generalization as the serial agent's, and writes the same table.
  Fixture& f = SharedFixture();
  const UsageMetrics unconstrained =
      UnconstrainedMetrics(f.dataset->trees());
  BinningConfig config;
  config.k = 10;
  config.enforce_joint = true;
  config.encryption_passphrase = kPassphrase;
  BinningAgent serial_agent(unconstrained, config);
  auto serial = serial_agent.Run(f.dataset->table);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (size_t t : {size_t{2}, hw}) {
    BinningConfig parallel_config = config;
    parallel_config.num_threads = t;
    BinningAgent agent(unconstrained, parallel_config);
    auto parallel = agent.Run(f.dataset->table);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(serial->ultimate, parallel->ultimate) << t;
    EXPECT_EQ(serial->candidates_considered, parallel->candidates_considered)
        << t;
    EXPECT_EQ(TableToCsv(serial->binned), TableToCsv(parallel->binned)) << t;
  }
}

}  // namespace
}  // namespace privmark