#include "watermark/fingerprint.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/parallel.h"

namespace privmark {

namespace {

// One key's verdict from its tally. Depends only on that key's
// detection and the scan config, which is what makes per-shard
// streaming sound: a verdict emitted early is already final.
Result<KeyVerdict> MakeKeyVerdict(const std::string& key_name,
                                  DetectReport detection,
                                  const FingerprintConfig& config) {
  KeyVerdict verdict;
  verdict.key_name = key_name;
  verdict.detection = std::move(detection);
  const DetectReport& det = verdict.detection;

  double margin_sum = 0.0;
  for (double m : det.vote_margin) margin_sum += std::abs(m);
  verdict.margin_ratio =
      det.slots_read > 0
          ? margin_sum / static_cast<double>(det.slots_read)
          : 0.0;

  if (!config.expected_mark.empty()) {
    PRIVMARK_ASSIGN_OR_RETURN(
        double loss, config.expected_mark.LossFraction(det.recovered));
    verdict.mark_match = 1.0 - loss;
    PRIVMARK_ASSIGN_OR_RETURN(
        verdict.p_value, DetectionPValue(config.expected_mark, det));
    verdict.score = verdict.mark_match;
  } else {
    verdict.score = verdict.margin_ratio;
  }
  verdict.detected =
      det.slots_read > 0 && verdict.score >= config.match_threshold;
  return verdict;
}

// The whole-scan half of the report: ranking + collusion over the
// accumulated verdicts. keys_detected is counted as verdicts stream in.
void FinishFingerprintReport(FingerprintReport* report) {
  report->collusion = report->keys_detected >= 2;
  report->ranking.resize(report->verdicts.size());
  for (size_t i = 0; i < report->ranking.size(); ++i) report->ranking[i] = i;
  std::sort(report->ranking.begin(), report->ranking.end(),
            [&](size_t a, size_t b) {
              const KeyVerdict& va = report->verdicts[a];
              const KeyVerdict& vb = report->verdicts[b];
              if (va.score != vb.score) return va.score > vb.score;
              if (va.p_value != vb.p_value) return va.p_value < vb.p_value;
              if (va.margin_ratio != vb.margin_ratio) {
                return va.margin_ratio > vb.margin_ratio;
              }
              return va.key_name < vb.key_name;
            });
}

}  // namespace

Result<FingerprintReport> ScanIndexForFingerprints(
    const DetectIndex& index, HashAlgorithm algo, const KeyRegistry& registry,
    const FingerprintConfig& config, ThreadPool* pool,
    const FingerprintShardSink& sink, size_t epoch) {
  if (registry.empty()) {
    return Status::InvalidArgument(
        "ScanIndexForFingerprints: empty key registry");
  }
  if (!config.expected_mark.empty() &&
      config.expected_mark.size() != config.wm_size) {
    return Status::InvalidArgument(
        "ScanIndexForFingerprints: expected mark has " +
        std::to_string(config.expected_mark.size()) + " bits, wm_size is " +
        std::to_string(config.wm_size));
  }
  std::vector<WatermarkKey> keys;
  keys.reserve(registry.size());
  for (const NamedKey& entry : registry.keys()) keys.push_back(entry.key);

  FingerprintReport report;
  report.verdicts.reserve(registry.size());
  // The tally sink cannot propagate a Status, so the first verdict
  // failure is parked here and later blocks are skipped.
  Status verdict_status = Status::OK();
  size_t next_shard = 0;
  const MultiKeyTallySink tally_sink =
      [&](size_t first_key, std::vector<DetectReport> block) {
        if (!verdict_status.ok()) return;
        FingerprintShard shard;
        shard.epoch = epoch;
        shard.shard = next_shard++;
        shard.first_key = first_key;
        shard.verdicts.reserve(block.size());
        for (size_t i = 0; i < block.size(); ++i) {
          Result<KeyVerdict> verdict =
              MakeKeyVerdict(registry.keys()[first_key + i].name,
                             std::move(block[i]), config);
          if (!verdict.ok()) {
            verdict_status = verdict.status();
            return;
          }
          if (verdict->detected) ++report.keys_detected;
          shard.verdicts.push_back(*std::move(verdict));
        }
        if (sink != nullptr) sink(shard);
        for (KeyVerdict& verdict : shard.verdicts) {
          report.verdicts.push_back(std::move(verdict));
        }
      };
  PRIVMARK_RETURN_NOT_OK(MultiKeyTally(index, keys, algo, config.wm_size,
                                       config.wmd_size, pool, tally_sink)
                             .status());
  PRIVMARK_RETURN_NOT_OK(verdict_status);
  FinishFingerprintReport(&report);
  return report;
}

Result<FingerprintReport> ScanForFingerprints(
    const HierarchicalWatermarker& watermarker, const Table& suspect,
    const KeyRegistry& registry, const FingerprintConfig& config,
    const FingerprintShardSink& sink, size_t epoch) {
  PRIVMARK_ASSIGN_OR_RETURN(DetectIndex index,
                            BuildDetectIndex(watermarker, suspect));
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* const pool =
      PoolOrMake(watermarker.options().pool, watermarker.options().num_threads,
                 &owned_pool);
  return ScanIndexForFingerprints(index, watermarker.options().hash, registry,
                                  config, pool, sink, epoch);
}

}  // namespace privmark
