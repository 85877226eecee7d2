// Crash-recovery acceptance suite: a protection session killed mid-write
// by a kill-mode failpoint (simulated power cut — no destructors, no
// flushes) must recover from its write-ahead journal to byte-identical
// state and finish the stream byte-identically to a run that never
// crashed — at every worker count.
//
// Each scenario forks: the CHILD arms one kill failpoint, runs the
// journaled stream, and dies with FailpointRegistry::kKillExitCode at
// the armed write; the PARENT waitpid()s for exactly that exit code,
// recovers the session from the torn journal, replays the remaining
// batches, and compares the full emission against an uncrashed serial
// reference. Scenarios cover the three distinct crash windows: before a
// batch is journaled (write-ahead: the batch is simply lost and gets
// re-submitted), after an epoch committed but before its seal record,
// and inside the seal's fsync.
//
// Failpoints are compiled into every build, so the suite runs in the
// Release tier-1 tree against the code that ships.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/framework.h"
#include "core/journal.h"
#include "core/session.h"
#include "datagen/medical_data.h"
#include "relation/csv.h"
#include "testing/temp_dir.h"

namespace privmark {
namespace {

// The 20k fixed-seed acceptance set (the bench fixture's shape).
constexpr size_t kRows = 20000;
constexpr size_t kBatch = 4000;
constexpr uint64_t kSeed = 20050405;

struct CrashEnv {
  UsageMetrics metrics;
  FrameworkConfig config;
};

// The dataset is generated once per process; children inherit it via
// fork and never regenerate.
const MedicalDataset& SharedDataset() {
  static const MedicalDataset* dataset = [] {
    MedicalDataSpec spec;
    spec.num_rows = kRows;
    spec.seed = kSeed;
    return new MedicalDataset(
        std::move(GenerateMedicalDataset(spec)).ValueOrDie());
  }();
  return *dataset;
}

CrashEnv MakeEnv(size_t num_threads) {
  CrashEnv env;
  env.metrics = MetricsFromDepthCuts(SharedDataset().trees(), {2, 1, 2, 1, 1})
                    .ValueOrDie();
  env.config.binning.k = 20;
  env.config.binning.enforce_joint = false;
  env.config.binning.encryption_passphrase = "bench-owner-passphrase";
  env.config.binning.num_threads = num_threads;
  env.config.watermark.num_threads = num_threads;
  env.config.key = {"bench-k1", "bench-k2", /*eta=*/75};
  env.config.key_id = "bench-owner";
  return env;
}

std::string FreshPath(const std::string& tag) {
  const std::string path = TestTempPath("privmark_crash_" + tag + ".wal");
  std::remove(path.c_str());
  return path;
}

void AppendAll(Table* all, const Table& rows) {
  if (rows.num_rows() == 0) return;
  if (all->schema().num_columns() == 0) *all = Table(rows.schema());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    ASSERT_TRUE(all->AppendRow(rows.row(r)).ok());
  }
}

// One full uninterrupted run at `num_threads`: flush after batch 0,
// frozen ingest for the rest. Returns the concatenated emission.
Table ReferenceRun(size_t num_threads) {
  CrashEnv env = MakeEnv(num_threads);
  ProtectionSession session(std::move(env.metrics), std::move(env.config));
  Table emitted;
  for (size_t begin = 0; begin < kRows; begin += kBatch) {
    auto ingest = session.Ingest(SharedDataset().table.Slice(begin, begin + kBatch));
    EXPECT_TRUE(ingest.ok()) << ingest.status().ToString();
    if (!ingest.ok()) return emitted;
    AppendAll(&emitted, ingest->emitted);
    if (begin == 0) {
      auto flush = session.Flush();
      EXPECT_TRUE(flush.ok()) << flush.status().ToString();
      if (!flush.ok()) return emitted;
      AppendAll(&emitted, flush->outcome.watermarked);
    }
  }
  return emitted;
}

// Child-side workload: journaled run that the armed failpoint kills.
// Non-87 exit codes mark which step unexpectedly failed (or that the
// failpoint never fired) so the parent's assertion message is useful.
[[noreturn]] void CrashingChild(const std::string& journal_path,
                                size_t num_threads, const char* failpoint,
                                const char* trigger) {
  if (!FailpointRegistry::Instance().Configure(failpoint, trigger).ok()) {
    std::_Exit(3);
  }
  CrashEnv env = MakeEnv(num_threads);
  auto journal = SessionJournal::Create(journal_path);
  if (!journal.ok()) std::_Exit(4);
  ProtectionSession session(std::move(env.metrics), std::move(env.config));
  if (!session.AttachJournal(std::move(*journal)).ok()) std::_Exit(5);
  for (size_t begin = 0; begin < kRows; begin += kBatch) {
    if (!session.Ingest(SharedDataset().table.Slice(begin, begin + kBatch))
             .ok()) {
      std::_Exit(6);
    }
    if (begin == 0 && !session.Flush().ok()) std::_Exit(7);
  }
  std::_Exit(0);  // the failpoint never fired — the parent flags this
}

struct CrashOutcome {
  Table emitted;          // recovered prefix + replayed remainder
  size_t batches_applied = 0;
  size_t epochs_sealed = 0;
};

// Forks the crashing child, then recovers in the parent and finishes
// the stream: re-submits the batch the crash lost (write-ahead journal
// => a batch is either fully journaled or was never applied) and every
// batch after it.
void CrashAndRecover(const std::string& tag, size_t num_threads,
                     const char* failpoint, const char* trigger,
                     CrashOutcome* outcome) {
  const std::string path = FreshPath(tag);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    CrashingChild(path, num_threads, failpoint, trigger);
  }
  int wait_status = 0;
  ASSERT_EQ(waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFEXITED(wait_status));
  ASSERT_EQ(WEXITSTATUS(wait_status), FailpointRegistry::kKillExitCode)
      << "child did not die at failpoint " << failpoint << "=" << trigger;

  CrashEnv env = MakeEnv(num_threads);
  auto recovered = ProtectionSession::Recover(path, std::move(env.metrics),
                                              std::move(env.config));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  outcome->batches_applied = recovered->batches_applied;
  outcome->epochs_sealed = recovered->epochs_sealed;
  outcome->emitted = std::move(recovered->emitted);

  ProtectionSession& session = *recovered->session;
  for (size_t begin = recovered->batches_applied * kBatch; begin < kRows;
       begin += kBatch) {
    auto ingest =
        session.Ingest(SharedDataset().table.Slice(begin, begin + kBatch));
    ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
    AppendAll(&outcome->emitted, ingest->emitted);
    if (session.epochs().empty()) {
      // The crash predated epoch 0's flush: re-issue it right after the
      // first resubmitted batch, exactly as the original schedule did.
      auto flush = session.Flush();
      ASSERT_TRUE(flush.ok()) << flush.status().ToString();
      AppendAll(&outcome->emitted, flush->outcome.watermarked);
    }
  }
  ASSERT_EQ(session.rows_ingested(), kRows);
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  // Worker counts the acceptance bar demands: serial, two, hardware.
  static std::vector<size_t> ThreadCounts() {
    std::vector<size_t> counts = {1, 2};
    const size_t hw = std::thread::hardware_concurrency();
    if (hw > 2) counts.push_back(hw);
    return counts;
  }
};

// Crash window 1: killed at the top of a batch append — the batch was
// never journaled, so recovery sees a clean prefix and the batch is
// simply re-submitted. Hit order of "journal.append" in this schedule:
// config(1), key-id(2), schema(3), batch0(4), flush marker(5), epoch-0
// seal(6), batch1(7) — kill:7 dies losing batch 1.
TEST_F(CrashRecoveryTest, KilledBeforeABatchAppendLosesOnlyThatBatch) {
  const Table reference = ReferenceRun(1);
  for (size_t threads : ThreadCounts()) {
    CrashOutcome outcome;
    CrashAndRecover("append_t" + std::to_string(threads), threads,
                    "journal.append", "kill:7", &outcome);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(outcome.batches_applied, 1u) << threads;
    EXPECT_EQ(outcome.epochs_sealed, 1u) << threads;
    EXPECT_EQ(TableToCsv(outcome.emitted), TableToCsv(reference))
        << "not byte-identical to the uncrashed serial run at "
        << threads << " thread(s)";
  }
}

// Crash window 2: killed inside the flush, after the epoch committed to
// session state but before its seal record — the journal holds the
// flush marker, so replay re-derives the identical epoch.
TEST_F(CrashRecoveryTest, KilledAtTheSealReplaysTheCommittedEpoch) {
  const Table reference = ReferenceRun(1);
  for (size_t threads : ThreadCounts()) {
    CrashOutcome outcome;
    CrashAndRecover("seal_t" + std::to_string(threads), threads,
                    "session.seal", "kill:1", &outcome);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(outcome.batches_applied, 1u) << threads;
    // The seal never made it to the journal; replaying the flush marker
    // reconstructs the epoch all the same.
    EXPECT_EQ(outcome.epochs_sealed, 0u) << threads;
    EXPECT_EQ(TableToCsv(outcome.emitted), TableToCsv(reference))
        << "not byte-identical to the uncrashed serial run at "
        << threads << " thread(s)";
  }
}

// Crash window 3: killed inside the seal's fsync — the durability
// barrier itself. The seal record's bytes may or may not have reached
// the file; recovery must accept both shapes and land on the same
// state.
TEST_F(CrashRecoveryTest, KilledInsideTheSealFsyncStillRecovers) {
  const Table reference = ReferenceRun(1);
  for (size_t threads : ThreadCounts()) {
    CrashOutcome outcome;
    CrashAndRecover("fsync_t" + std::to_string(threads), threads,
                    "journal.fsync", "kill:1", &outcome);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(outcome.batches_applied, 1u) << threads;
    EXPECT_LE(outcome.epochs_sealed, 1u) << threads;
    EXPECT_EQ(TableToCsv(outcome.emitted), TableToCsv(reference))
        << "not byte-identical to the uncrashed serial run at "
        << threads << " thread(s)";
  }
}

// The parallel acceptance bar head-on: for every crash window, the
// recovered-and-finished stream is one byte string, independent of
// worker count — crashing at width 2 and recovering at width hw must
// equal serial end to end.
TEST_F(CrashRecoveryTest, RecoveryIsByteIdenticalAcrossThreadCounts) {
  const Table reference = ReferenceRun(1);
  const std::string serial_csv = TableToCsv(reference);
  // Crash at one width, recover at another: the journal carries no
  // trace of either.
  CrashOutcome outcome;
  {
    const std::string path = FreshPath("cross_width");
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      CrashingChild(path, /*num_threads=*/2, "journal.append", "kill:7");
    }
    int wait_status = 0;
    ASSERT_EQ(waitpid(pid, &wait_status, 0), pid);
    ASSERT_TRUE(WIFEXITED(wait_status));
    ASSERT_EQ(WEXITSTATUS(wait_status), FailpointRegistry::kKillExitCode);

    CrashEnv env = MakeEnv(1);  // recover serial, continue serial
    auto recovered = ProtectionSession::Recover(path, std::move(env.metrics),
                                                std::move(env.config));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    outcome.emitted = std::move(recovered->emitted);
    ProtectionSession& session = *recovered->session;
    for (size_t begin = recovered->batches_applied * kBatch; begin < kRows;
         begin += kBatch) {
      auto ingest =
          session.Ingest(SharedDataset().table.Slice(begin, begin + kBatch));
      ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
      AppendAll(&outcome.emitted, ingest->emitted);
    }
  }
  EXPECT_EQ(TableToCsv(outcome.emitted), serial_csv)
      << "crash at width 2, recovery at width 1 diverged from serial";
}

}  // namespace
}  // namespace privmark
