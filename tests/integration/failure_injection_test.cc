// Failure-injection suite: every component must reject malformed inputs
// with a clean Status instead of crashing or silently mis-protecting.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "binning/binning_engine.h"
#include "common/failpoint.h"
#include "core/framework.h"
#include "core/journal.h"
#include "core/manifest.h"
#include "core/session.h"
#include "datagen/medical_data.h"
#include "relation/csv.h"
#include "service/service.h"
#include "testing/temp_dir.h"
#include "watermark/ownership.h"

namespace privmark {
namespace {

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MedicalDataSpec spec;
    spec.num_rows = 800;
    spec.seed = 55;
    dataset_ = std::make_unique<MedicalDataset>(
        std::move(GenerateMedicalDataset(spec)).ValueOrDie());
  }
  std::unique_ptr<MedicalDataset> dataset_;
};

TEST_F(FailureInjectionTest, SchemaWithoutIdentifierRejected) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"age", ColumnRole::kQuasiNumeric,
                                ValueType::kInt64}).ok());
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value::Int64(30)}).ok());
  BinningAgent agent(UnconstrainedMetrics({dataset_->age.get()}),
                     BinningConfig{});
  EXPECT_EQ(agent.Run(t).status().code(), StatusCode::kKeyError);
}

TEST_F(FailureInjectionTest, OutOfDomainValueFailsBinningCleanly) {
  Table t = dataset_->table.Clone();
  t.Set(17, 1, Value::Int64(9999));  // age way outside [0,150)
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  BinningAgent agent(UnconstrainedMetrics(dataset_->trees()), config);
  const Status status = agent.Run(t).status();
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_NE(status.message().find("age"), std::string::npos);
}

TEST_F(FailureInjectionTest, UnknownCategoricalValueFailsBinningCleanly) {
  Table t = dataset_->table.Clone();
  t.Set(3, 3, Value::String("Dr. Nobody"));
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  BinningAgent agent(UnconstrainedMetrics(dataset_->trees()), config);
  EXPECT_EQ(agent.Run(t).status().code(), StatusCode::kKeyError);
}

TEST_F(FailureInjectionTest, EmbedOnRawTableFailsCleanly) {
  // Watermarking expects a *binned* table (labels from the ultimate
  // generalization); feeding the raw table must error, not corrupt.
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  FrameworkConfig fw_config;
  fw_config.binning = config;
  auto metrics =
      MetricsFromDepthCuts(dataset_->trees(), {2, 1, 2, 1, 1}).ValueOrDie();
  ProtectionFramework framework(metrics, fw_config);
  auto outcome = std::move(framework.Protect(dataset_->table)).ValueOrDie();
  HierarchicalWatermarker wm = framework.MakeWatermarker(outcome.binning);
  Table raw = dataset_->table.Clone();
  const BitVector mark = BitVector::FromString("1010").ValueOrDie();
  EXPECT_FALSE(wm.Embed(&raw, mark).ok());
}

TEST_F(FailureInjectionTest, DetectOnForeignTableYieldsNoVotesNotCrash) {
  // Detection on a completely unrelated table (all labels unknown) must
  // succeed structurally and report zero read slots.
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  FrameworkConfig fw_config;
  fw_config.binning = config;
  auto metrics =
      MetricsFromDepthCuts(dataset_->trees(), {2, 1, 2, 1, 1}).ValueOrDie();
  ProtectionFramework framework(metrics, fw_config);
  auto outcome = std::move(framework.Protect(dataset_->table)).ValueOrDie();
  HierarchicalWatermarker wm = framework.MakeWatermarker(outcome.binning);

  Table foreign = outcome.watermarked.Clone();
  for (size_t r = 0; r < foreign.num_rows(); ++r) {
    for (size_t c : outcome.binning.qi_columns) {
      foreign.Set(r, c, Value::String("junk-" + std::to_string(r % 7)));
    }
  }
  auto detect = wm.Detect(foreign, 20, outcome.embed.wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_EQ(detect->slots_read, 0u);
  for (bool voted : detect->bit_voted) EXPECT_FALSE(voted);
}

TEST_F(FailureInjectionTest, CsvWithWrongSchemaRejected) {
  const std::string csv = "colA,colB\n1,2\n";
  EXPECT_FALSE(TableFromCsv(csv, MedicalSchema()).ok());
}

TEST_F(FailureInjectionTest, ManifestAgainstWrongTreesRejected) {
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  FrameworkConfig fw_config;
  fw_config.binning = config;
  auto metrics =
      MetricsFromDepthCuts(dataset_->trees(), {2, 1, 2, 1, 1}).ValueOrDie();
  ProtectionSession session(metrics, fw_config, SessionConfig());
  ASSERT_TRUE(session.Ingest(dataset_->table).ok());
  auto epoch = std::move(session.Flush()).ValueOrDie();
  auto manifests = std::move(SessionManifests(session)).ValueOrDie();
  ASSERT_EQ(manifests.size(), 1u);

  // Swap two trees: labels will not resolve -> KeyError.
  auto trees = dataset_->trees();
  std::swap(trees[0], trees[1]);
  EXPECT_FALSE(WatermarkerFromManifest(manifests[0],
                                       epoch.outcome.watermarked, trees,
                                       fw_config.key, fw_config.watermark)
                   .ok());
}

// --- Failures under num_threads > 1 -------------------------------------
// Injected mid-pipeline failures must behave identically with a thread
// pool in play: a clean deterministic Status, no hang, and no partial
// writes into the table being transformed.

TEST_F(FailureInjectionTest, ParallelOutOfDomainValueFailsBinningCleanly) {
  Table t = dataset_->table.Clone();
  t.Set(17, 1, Value::Int64(9999));  // age way outside [0,150)
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  for (size_t threads : {size_t{2}, size_t{4}, size_t{7}}) {
    config.num_threads = threads;
    BinningAgent agent(UnconstrainedMetrics(dataset_->trees()), config);
    const Status status = agent.Run(t).status();
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << threads;
    EXPECT_NE(status.message().find("age"), std::string::npos) << threads;
  }
}

TEST_F(FailureInjectionTest, ParallelFailureStatusMatchesSerial) {
  // The surfaced error must be *the same one* serial scanning reports
  // (lowest-row failure), not whichever shard lost the race.
  Table t = dataset_->table.Clone();
  t.Set(5, 3, Value::String("Dr. Nobody"));
  t.Set(700, 3, Value::String("Dr. Nemo"));
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  BinningAgent serial_agent(UnconstrainedMetrics(dataset_->trees()), config);
  const Status serial = serial_agent.Run(t).status();
  ASSERT_EQ(serial.code(), StatusCode::kKeyError);
  for (size_t threads : {size_t{2}, size_t{4}, size_t{7}}) {
    config.num_threads = threads;
    BinningAgent agent(UnconstrainedMetrics(dataset_->trees()), config);
    EXPECT_EQ(agent.Run(t).status(), serial) << threads;
  }
}

TEST_F(FailureInjectionTest, ParallelEmbedFailureLeavesTableUntouched) {
  // Embed resolves every slot in pass 1 and writes only in pass 2, so a
  // resolve failure — injected mid-table — must leave the table byte-for-
  // byte unchanged for any worker count (no partial writes).
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  FrameworkConfig fw_config;
  fw_config.binning = config;
  auto metrics =
      MetricsFromDepthCuts(dataset_->trees(), {2, 1, 2, 1, 1}).ValueOrDie();
  ProtectionFramework framework(metrics, fw_config);
  auto outcome = std::move(framework.Protect(dataset_->table)).ValueOrDie();
  const BitVector mark = BitVector::FromString("1010").ValueOrDie();

  Status serial_status;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    WatermarkOptions options;
    options.num_threads = threads;
    HierarchicalWatermarker wm(
        outcome.binning.qi_columns,
        *outcome.binning.binned.schema().IdentifyingColumn(),
        metrics.maximal, outcome.binning.ultimate, fw_config.key, options);
    Table poisoned = outcome.binning.binned.Clone();
    // Out-of-domain labels across the whole second half: the first half
    // resolves fine, then some selected tuple's cell fails pass 1.
    for (size_t r = poisoned.num_rows() / 2; r < poisoned.num_rows(); ++r) {
      poisoned.Set(r, outcome.binning.qi_columns[0],
                   Value::String("no-such-label"));
    }
    const Table before = poisoned.Clone();
    const auto embed = wm.Embed(&poisoned, mark);
    ASSERT_FALSE(embed.ok()) << threads;
    if (threads == 1) {
      serial_status = embed.status();
    } else {
      // Same failure as serial, not whichever shard lost the race.
      EXPECT_EQ(embed.status(), serial_status) << threads;
    }
    for (size_t r = 0; r < before.num_rows(); ++r) {
      for (size_t c = 0; c < before.num_columns(); ++c) {
        ASSERT_EQ(before.at(r, c).ToString(), poisoned.at(r, c).ToString())
            << "partial write at (" << r << ", " << c << ") with "
            << threads << " threads";
      }
    }
  }
}

TEST_F(FailureInjectionTest, ParallelEmbedOnRawTableFailsCleanly) {
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  FrameworkConfig fw_config;
  fw_config.binning = config;
  fw_config.watermark.num_threads = 4;
  auto metrics =
      MetricsFromDepthCuts(dataset_->trees(), {2, 1, 2, 1, 1}).ValueOrDie();
  ProtectionFramework framework(metrics, fw_config);
  auto outcome = std::move(framework.Protect(dataset_->table)).ValueOrDie();
  HierarchicalWatermarker wm = framework.MakeWatermarker(outcome.binning);
  Table raw = dataset_->table.Clone();
  const BitVector mark = BitVector::FromString("1010").ValueOrDie();
  EXPECT_FALSE(wm.Embed(&raw, mark).ok());
}

TEST_F(FailureInjectionTest, ParallelDetectOnForeignTableYieldsNoVotes) {
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  config.num_threads = 4;
  FrameworkConfig fw_config;
  fw_config.binning = config;
  fw_config.watermark.num_threads = 4;
  auto metrics =
      MetricsFromDepthCuts(dataset_->trees(), {2, 1, 2, 1, 1}).ValueOrDie();
  ProtectionFramework framework(metrics, fw_config);
  auto outcome = std::move(framework.Protect(dataset_->table)).ValueOrDie();
  HierarchicalWatermarker wm = framework.MakeWatermarker(outcome.binning);

  Table foreign = outcome.watermarked.Clone();
  for (size_t r = 0; r < foreign.num_rows(); ++r) {
    for (size_t c : outcome.binning.qi_columns) {
      foreign.Set(r, c, Value::String("junk-" + std::to_string(r % 7)));
    }
  }
  auto detect = wm.Detect(foreign, 20, outcome.embed.wmd_size);
  ASSERT_TRUE(detect.ok());
  EXPECT_EQ(detect->slots_read, 0u);
  for (bool voted : detect->bit_voted) EXPECT_FALSE(voted);
}

// --- Journal IO failures -------------------------------------------------
// Injected journal-write failures must surface as clean, retryable
// Status without corrupting the session: the write-ahead discipline
// journals a batch BEFORE applying it, so a failed append costs nothing
// but the retry.

class JournalFaultTest : public FailureInjectionTest {
 protected:
  void TearDown() override { FailpointRegistry::Instance().Reset(); }

  FrameworkConfig Config() const {
    FrameworkConfig config;
    config.binning.k = 5;
    config.binning.enforce_joint = false;
    config.key = {"fi-k1", "fi-k2", /*eta=*/10};
    return config;
  }

  UsageMetrics Metrics() const {
    return MetricsFromDepthCuts(dataset_->trees(), {2, 1, 2, 1, 1})
        .ValueOrDie();
  }

  std::string FreshPath(const std::string& tag) const {
    const std::string path = TestTempPath("privmark_fi_" + tag + ".wal");
    std::remove(path.c_str());
    return path;
  }
};

TEST_F(JournalFaultTest, AppendErrorFailsIngestCleanlyAndRetries) {
  ProtectionSession session(Metrics(), Config());
  ASSERT_TRUE(session
                  .AttachJournal(std::move(
                      SessionJournal::Create(FreshPath("append")).ValueOrDie()))
                  .ok());
  ASSERT_TRUE(session.Ingest(dataset_->table.Slice(0, 400)).ok());

  auto& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.Configure("journal.append", "always").ok());
  const Status failed =
      session.Ingest(dataset_->table.Slice(400, 800)).status();
  ASSERT_EQ(failed.code(), StatusCode::kIOError);
  EXPECT_NE(failed.message().find("journal.append"), std::string::npos);
  // Write-ahead: the failed batch was never applied...
  EXPECT_EQ(session.rows_ingested(), 400u);

  // ...so after the fault clears, the same batch lands normally and the
  // stream completes as if the fault never happened.
  ASSERT_TRUE(registry.Configure("journal.append", "off").ok());
  ASSERT_TRUE(session.Ingest(dataset_->table.Slice(400, 800)).ok());
  EXPECT_EQ(session.rows_ingested(), 800u);
  EXPECT_TRUE(session.Flush().ok());
  EXPECT_TRUE(session.journal_status().ok());
}

TEST_F(JournalFaultTest, ShortWriteRollsBackToAValidJournal) {
  const std::string path = FreshPath("short");
  ProtectionSession session(Metrics(), Config());
  ASSERT_TRUE(
      session.AttachJournal(std::move(SessionJournal::Create(path).ValueOrDie()))
          .ok());
  ASSERT_TRUE(session.Ingest(dataset_->table.Slice(0, 400)).ok());

  // The next append writes only half its record and must roll the file
  // back — a crashed retry reader would otherwise see a torn record.
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("journal.short_write", "once:1")
                  .ok());
  const Status failed =
      session.Ingest(dataset_->table.Slice(400, 800)).status();
  ASSERT_EQ(failed.code(), StatusCode::kIOError);
  EXPECT_EQ(session.rows_ingested(), 400u);

  auto contents = SessionJournal::ReadAll(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->tail_truncated)
      << "rollback left a torn record behind";

  ASSERT_TRUE(session.Ingest(dataset_->table.Slice(400, 800)).ok());
  EXPECT_TRUE(session.Flush().ok());
}

TEST_F(JournalFaultTest, SealFsyncFailureIsStickyButTheFlushCommits) {
  ProtectionSession session(Metrics(), Config());
  ASSERT_TRUE(session
                  .AttachJournal(std::move(
                      SessionJournal::Create(FreshPath("fsync")).ValueOrDie()))
                  .ok());
  ASSERT_TRUE(session.Ingest(dataset_->table.Slice(0, 800)).ok());

  // The seal's fsync is post-commit: the flush itself must succeed, the
  // lost durability barrier lands in the sticky journal_status.
  ASSERT_TRUE(
      FailpointRegistry::Instance().Configure("journal.fsync", "once:1").ok());
  auto flush = session.Flush();
  ASSERT_TRUE(flush.ok()) << flush.status().ToString();
  EXPECT_EQ(session.epochs().size(), 1u);
  EXPECT_FALSE(session.journal_status().ok());
  EXPECT_EQ(session.journal_status().code(), StatusCode::kIOError);
}

TEST_F(JournalFaultTest, ServiceResponsesSurfaceSealDegradation) {
  // A post-commit seal failure must reach service clients: every later
  // ServiceResponse carries the session's sticky journal_status, so the
  // degraded durability barrier is visible, not silent.
  const std::string dir = TestTempPath("privmark_fi_seal_dir");
  ::system(("mkdir -p '" + dir + "'").c_str());
  std::remove((dir + "/ward.wal").c_str());
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  service_config.journal_dir = dir;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("ward", Metrics(), Config()).ok());

  auto ingest =
      service.ProtectBatch("ward", dataset_->table.Slice(0, 800)).get();
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  EXPECT_TRUE(ingest->journal_status.ok());

  ASSERT_TRUE(
      FailpointRegistry::Instance().Configure("journal.fsync", "once:1").ok());
  auto flush = service.Flush("ward").get();
  ASSERT_TRUE(flush.ok()) << flush.status().ToString();
  EXPECT_FALSE(flush->journal_status.ok());
  EXPECT_EQ(flush->journal_status.code(), StatusCode::kIOError);

  // Sticky: the close's terminal response still reports it.
  auto close = service.CloseSession("ward").get();
  ASSERT_TRUE(close.ok());
  EXPECT_FALSE(close->journal_status.ok());
}

TEST_F(JournalFaultTest, SeededFaultStormLeavesAByteIdenticalStream) {
  // A probabilistic storm of journal-append failures — seeded, so every
  // run of one seed replays the same fault pattern. CI sweeps several
  // seeds via PRIVMARK_FAULT_SEED; the invariants hold for all of them:
  // every failure is clean and retryable, and the finished journal
  // recovers to the exact bytes the faulted live run emitted.
  uint64_t seed = 7;
  if (const char* env_seed = std::getenv("PRIVMARK_FAULT_SEED")) {
    seed = std::strtoull(env_seed, nullptr, 10);
  }
  const std::string path =
      FreshPath("storm_" + std::to_string(seed));
  ProtectionSession session(Metrics(), Config());
  ASSERT_TRUE(
      session.AttachJournal(std::move(SessionJournal::Create(path).ValueOrDie()))
          .ok());
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("journal.append",
                             "prob:0.3:" + std::to_string(seed))
                  .ok());

  Table emitted;
  size_t injected = 0;
  for (size_t begin = 0; begin < 800; begin += 200) {
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 64) << "fault storm never let batch through";
      auto ingest = session.Ingest(dataset_->table.Slice(begin, begin + 200));
      if (ingest.ok()) {
        if (emitted.schema().num_columns() == 0 &&
            ingest->emitted.num_rows() > 0) {
          emitted = Table(ingest->emitted.schema());
        }
        for (size_t r = 0; r < ingest->emitted.num_rows(); ++r) {
          ASSERT_TRUE(emitted.AppendRow(ingest->emitted.row(r)).ok());
        }
        break;
      }
      ASSERT_EQ(ingest.status().code(), StatusCode::kIOError);
      ++injected;
    }
    if (begin == 0) {
      for (int attempt = 0;; ++attempt) {
        ASSERT_LT(attempt, 64);
        auto flush = session.Flush();
        if (flush.ok()) {
          if (emitted.schema().num_columns() == 0) {
            emitted = Table(flush->outcome.watermarked.schema());
          }
          for (size_t r = 0; r < flush->outcome.watermarked.num_rows(); ++r) {
            ASSERT_TRUE(
                emitted.AppendRow(flush->outcome.watermarked.row(r)).ok());
          }
          break;
        }
        ASSERT_EQ(flush.status().code(), StatusCode::kIOError);
        ++injected;
      }
    }
  }
  FailpointRegistry::Instance().Reset();
  EXPECT_EQ(session.rows_ingested(), 800u);

  auto recovered = ProtectionSession::Recover(path, Metrics(), Config());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(TableToCsv(recovered->emitted), TableToCsv(emitted))
      << "seed " << seed << " (" << injected << " injected faults)";
}

TEST_F(FailureInjectionTest, DisputeWithCorruptedIdentifiersRejectsClaim) {
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  config.encryption_passphrase = "fi-pass";
  FrameworkConfig fw_config;
  fw_config.binning = config;
  auto metrics =
      MetricsFromDepthCuts(dataset_->trees(), {2, 1, 2, 1, 1}).ValueOrDie();
  ProtectionFramework framework(metrics, fw_config);
  auto outcome = std::move(framework.Protect(dataset_->table)).ValueOrDie();

  // Attacker re-encrypts/corrupts the whole identifying column.
  Table corrupted = outcome.watermarked.Clone();
  for (size_t r = 0; r < corrupted.num_rows(); ++r) {
    corrupted.Set(r, 0, Value::String("feedfacefeedface"));
  }
  HierarchicalWatermarker wm = framework.MakeWatermarker(outcome.binning);
  OwnershipConfig oc;
  auto verdict = ResolveDispute(corrupted, wm,
                                Aes128::FromPassphrase("fi-pass"),
                                outcome.identifier_statistic,
                                outcome.embed.wmd_size, oc);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->statistic_consistent);
  EXPECT_FALSE(verdict->ownership_established);
}

}  // namespace
}  // namespace privmark
