// Scenario: the hospital from hospital_outsourcing, but live — patient
// records arrive as a stream of admissions instead of one frozen table.
//
// An incremental ProtectionSession (core/session.h) replaces the one-shot
// framework: the hospital ingests an initial load, flushes it as epoch 0,
// and then streams admission batches against the live generalization.
// Under the kRebinOnDrift policy the session re-selects generalizations
// whenever the stream has grown the data past the drift threshold, emitting
// each re-binned window as a new epoch with its own ownership mark. The
// research institute receives the concatenation of the epoch outputs;
// detection later runs per epoch (DetectAcrossEpochs) with the hospital's
// secret key.

#include <cstdio>
#include <string>

#include "core/session.h"
#include "datagen/medical_data.h"
#include "relation/csv.h"
#include "watermark/hierarchical.h"

using namespace privmark;  // NOLINT — example brevity

namespace {

constexpr size_t kTotalRows = 6000;
constexpr size_t kInitialLoad = 3000;
constexpr size_t kBatchRows = 250;  // one batch of admissions

}  // namespace

int main() {
  MedicalDataSpec spec;
  spec.num_rows = kTotalRows;
  auto dataset = std::move(GenerateMedicalDataset(spec)).ValueOrDie();

  FrameworkConfig config;
  config.binning.k = 10;
  config.binning.enforce_joint = false;  // per-attribute k, paper's setup
  config.binning.encryption_passphrase = "hospital-vault-passphrase";
  config.key = {"hospital-k1", "hospital-k2", /*eta=*/20};
  // Sec. 6: pad k with a conservative epsilon per flush so bins stay >= k
  // even after the watermark permutes cells between sibling nodes.
  config.auto_epsilon = true;
  UsageMetrics metrics =
      std::move(MetricsFromDepthCuts(dataset.trees(), {2, 1, 2, 1, 1}))
          .ValueOrDie();

  SessionConfig session_config;
  session_config.policy = RebinPolicy::kRebinOnDrift;
  session_config.drift_threshold = 0.4;  // re-bin after 40% growth
  ProtectionSession session(metrics, config, session_config);

  // --- Initial load: the backlog of existing records -----------------------
  auto initial = std::move(session.Ingest(
                               dataset.table.Slice(0, kInitialLoad)))
                     .ValueOrDie();
  std::printf("initial load: %zu rows buffered\n", initial.rows_buffered);
  Table outsourced(dataset.table.schema());
  (void)outsourced.Append(
      std::move(session.Flush()).ValueOrDie().outcome.watermarked);
  std::printf("epoch 0 published: %zu rows\n", outsourced.num_rows());

  // --- The stream: admission batches ---------------------------------------
  for (size_t begin = kInitialLoad; begin < kTotalRows; begin += kBatchRows) {
    auto result =
        std::move(session.Ingest(
                      dataset.table.Slice(begin, begin + kBatchRows)))
            .ValueOrDie();
    if (result.flushed) {
      std::printf("drift threshold crossed -> epoch %zu published: %zu rows "
                  "(%zu suppressed to keep the epoch k-anonymous)\n",
                  result.epoch, result.rows_emitted, result.rows_suppressed);
      (void)outsourced.Append(result.emitted);
    }
  }
  if (session.rows_buffered() > 0) {
    auto tail = std::move(session.Flush()).ValueOrDie();
    std::printf("stream end -> epoch %zu published: %zu rows\n", tail.epoch,
                tail.outcome.watermarked.num_rows());
    (void)outsourced.Append(tail.outcome.watermarked);
  }

  const std::string path = "/tmp/privmark_streamed.csv";
  if (auto st = WriteTableCsv(outsourced, path); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("institute received %zu rows across %zu epochs -> %s\n",
              outsourced.num_rows(), session.epochs().size(), path.c_str());

  // --- Per-epoch guarantees -------------------------------------------------
  // Every epoch independently satisfies per-attribute k-anonymity and
  // carries a detectable mark derived from its own identifiers.
  auto reports =
      std::move(session.DetectAcrossEpochs(outsourced)).ValueOrDie();
  bool all_good = true;
  size_t offset = 0;
  for (const EpochRecord& epoch : session.epochs()) {
    Table segment = outsourced.Slice(offset, offset + epoch.rows_emitted);
    offset += epoch.rows_emitted;
    bool k_ok = true;
    for (size_t qi : segment.schema().QuasiIdentifyingColumns()) {
      k_ok = k_ok && segment.IsKAnonymous({qi}, config.binning.k);
    }
    const double loss =
        std::move(StrictMarkLoss(epoch.mark, reports[epoch.epoch]))
            .ValueOrDie();
    std::printf("epoch %zu: %5zu rows, k-anonymous per attribute: %s, "
                "mark loss %.0f%%, v = %.4f\n",
                epoch.epoch, epoch.rows_emitted, k_ok ? "yes" : "NO",
                loss * 100, epoch.identifier_statistic);
    all_good = all_good && k_ok && loss == 0.0;
  }
  std::printf("streaming protection %s\n",
              all_good ? "OK: every epoch private and provably owned"
                       : "FAILED");
  return all_good ? 0 : 1;
}
