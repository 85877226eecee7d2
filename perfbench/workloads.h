// The perfbench workloads. Each builds its inputs from the seed, runs
// its closed-loop measured window (harness.h) and checks every output.

#ifndef PRIVMARK_PERFBENCH_WORKLOADS_H_
#define PRIVMARK_PERFBENCH_WORKLOADS_H_

#include <memory>

#include "core/framework.h"
#include "datagen/medical_data.h"
#include "harness.h"

namespace privmark {
namespace perfbench {

/// \brief Per-attribute k-anonymity streamed through a freeze-mode
/// ProtectionSession: one operation = ingest one of four seed-drawn
/// 20k-row tables in 1000-row batches + flush (encode, count-merge, bin
/// selection, materialize, embed, seamlessness).
Result<WorkloadReport> RunProtect(const RunOptions& options);

/// \brief The same session pipeline with joint (multi-attribute)
/// k-anonymity, whose candidate search dominates: one operation =
/// protect one of several seed-drawn tables.
Result<WorkloadReport> RunJointBinning(const RunOptions& options);

/// \brief Ownership audit of a leaked half of a protected table (one of
/// four seed-drawn 20k-row tables): one operation = the owner's
/// single-key detection + a fingerprint scan against a 64-key registry
/// (detect index + keyed tallies + ranking).
Result<WorkloadReport> RunAudit(const RunOptions& options);

/// \brief The loopback daemon: one operation = one 500-row ingest
/// request round trip on a frozen session (client codec, socket, daemon
/// codec, service strand, session emission, and back).
Result<WorkloadReport> RunDaemon(const RunOptions& options);

/// \brief A generated clinical table with its hierarchies and usage
/// metrics at the paper's evaluation depth cuts.
struct Dataset {
  std::unique_ptr<MedicalDataset> data;
  UsageMetrics metrics;

  const Table& table() const { return data->table; }
};

Result<Dataset> MakeDataset(size_t rows, uint64_t seed);

/// \brief The framework configuration every workload protects with
/// (serial: one worker thread, so timings do not depend on core count).
FrameworkConfig MakeConfig(size_t k, uint64_t eta, bool enforce_joint);

}  // namespace perfbench
}  // namespace privmark

#endif  // PRIVMARK_PERFBENCH_WORKLOADS_H_
