// audit: the owner's detection and a registry-wide fingerprint scan of a
// leaked copy.

#include <string>
#include <vector>

#include "common/random.h"
#include "watermark/detect_index.h"
#include "watermark/fingerprint.h"
#include "watermark/key_registry.h"
#include "workloads.h"

namespace privmark {
namespace perfbench {
namespace {

constexpr size_t kRegistryKeys = 64;
// Distinct seed-drawn tables the operations cycle through, so one seed's
// data does not set the whole run's cost.
constexpr size_t kTables = 4;

struct AuditInput {
  Dataset dataset;
  FrameworkConfig config;
  std::unique_ptr<HierarchicalWatermarker> watermarker;
  /// The leaked copy: a seed-drawn half of the protected table's rows.
  Table suspect;
  KeyRegistry registry;
  size_t owner_index = 0;
  FingerprintConfig scan;
  FingerprintReport reference;
};

Status CheckAudit(const AuditInput& input, const DetectReport& detected,
                  const FingerprintReport& report) {
  if (!(detected.recovered == input.scan.expected_mark)) {
    return Status::VerificationFailed("owner detection lost the mark");
  }
  // Decoys may clear the 20-bit match threshold by chance (each does with
  // probability ~0.6%), so only the owner's verdict and rank are checked.
  if (report.verdicts.size() != input.registry.size() ||
      report.ranking.empty() || report.ranking.front() != input.owner_index ||
      !report.verdicts[input.owner_index].detected) {
    return Status::VerificationFailed("scan did not single out the owner key");
  }
  return Status::OK();
}

bool SameReport(const FingerprintReport& a, const FingerprintReport& b) {
  if (a.ranking != b.ranking || a.verdicts.size() != b.verdicts.size()) {
    return false;
  }
  for (size_t i = 0; i < a.verdicts.size(); ++i) {
    const KeyVerdict& x = a.verdicts[i];
    const KeyVerdict& y = b.verdicts[i];
    if (x.key_name != y.key_name || x.score != y.score ||
        x.margin_ratio != y.margin_ratio || x.p_value != y.p_value ||
        x.detection.vote_margin != y.detection.vote_margin) {
      return false;
    }
  }
  return true;
}

Status SetUpAudit(uint64_t seed, size_t table, AuditInput* input) {
  PRIVMARK_ASSIGN_OR_RETURN(
      input->dataset, MakeDataset(20000, MixSeed(seed, 100 + 2 * table)));
  input->config = MakeConfig(20, 75, /*enforce_joint=*/false);
  const ProtectionFramework framework(input->dataset.metrics, input->config);
  PRIVMARK_ASSIGN_OR_RETURN(ProtectionOutcome outcome,
                            framework.Protect(input->dataset.table()));
  input->watermarker = std::make_unique<HierarchicalWatermarker>(
      framework.MakeWatermarker(outcome.binning));

  Random rng(MixSeed(seed, 101 + 2 * table));
  input->suspect = Table(outcome.watermarked.schema());
  for (size_t r = 0; r < outcome.watermarked.num_rows(); ++r) {
    if (rng.Uniform(2) == 0) continue;
    PRIVMARK_RETURN_NOT_OK(
        input->suspect.AppendRow(outcome.watermarked.row(r)));
  }

  input->owner_index = rng.Uniform(kRegistryKeys);
  for (size_t i = 0; i < kRegistryKeys; ++i) {
    PRIVMARK_RETURN_NOT_OK(input->registry.Add(
        i == input->owner_index
            ? NamedKey{"owner", input->config.key}
            : GenerateKey("decoy-" + std::to_string(i), input->config.key.eta,
                          &rng)));
  }
  input->scan.wm_size = outcome.mark.size();
  input->scan.wmd_size = outcome.embed.wmd_size;
  input->scan.expected_mark = outcome.mark;

  PRIVMARK_ASSIGN_OR_RETURN(
      DetectReport detected,
      input->watermarker->Detect(input->suspect, input->scan.wm_size,
                                 input->scan.wmd_size));
  PRIVMARK_ASSIGN_OR_RETURN(
      input->reference,
      ScanForFingerprints(*input->watermarker, input->suspect, input->registry,
                          input->scan));
  return CheckAudit(*input, detected, input->reference);
}

}  // namespace

Result<WorkloadReport> RunAudit(const RunOptions& options) {
  std::vector<AuditInput> inputs;
  PRIVMARK_ASSIGN_OR_RETURN(
      double setup_s,
      TimeSetup(5, [&] { inputs.clear(); }, [&]() -> Status {
        for (size_t t = 0; t < kTables; ++t) {
          AuditInput input;
          PRIVMARK_RETURN_NOT_OK(SetUpAudit(options.seed, t, &input));
          inputs.push_back(std::move(input));
        }
        return Status::OK();
      }));
  size_t next = 0;
  return MeasureWindow(
      options, setup_s, [&](Trace* trace, double* latency_ms) -> Status {
        const AuditInput& input = inputs[next++ % inputs.size()];
        const HierarchicalWatermarker& watermarker = *input.watermarker;
        const Clock::time_point start = Clock::now();
        DetectReport detected;
        FingerprintReport report;
        if (options.trace) {
          PRIVMARK_ASSIGN_OR_RETURN(detected, trace->Span("detect_ms", [&] {
            return watermarker.Detect(input.suspect, input.scan.wm_size,
                                      input.scan.wmd_size);
          }));
          PRIVMARK_ASSIGN_OR_RETURN(
              DetectIndex index, trace->Span("detect_index_ms", [&] {
                return BuildDetectIndex(watermarker, input.suspect);
              }));
          PRIVMARK_ASSIGN_OR_RETURN(report, trace->Span("scan_ms", [&] {
            return ScanIndexForFingerprints(index, watermarker.options().hash,
                                            input.registry, input.scan,
                                            nullptr);
          }));
          trace->Count("rows_per_op",
                       static_cast<double>(input.suspect.num_rows()));
          trace->Count("keys_scanned",
                       static_cast<double>(input.registry.size()));
        } else {
          PRIVMARK_ASSIGN_OR_RETURN(
              detected, watermarker.Detect(input.suspect, input.scan.wm_size,
                                           input.scan.wmd_size));
          PRIVMARK_ASSIGN_OR_RETURN(
              report, ScanForFingerprints(watermarker, input.suspect,
                                          input.registry, input.scan));
        }
        *latency_ms = MillisSince(start);
        PRIVMARK_RETURN_NOT_OK(CheckAudit(input, detected, report));
        if (!SameReport(report, input.reference)) {
          return Status::VerificationFailed("scan differs from set-up scan");
        }
        return Status::OK();
      });
}

}  // namespace perfbench
}  // namespace privmark
