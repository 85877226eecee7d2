// The unified protection framework (paper Sec. 3, Fig. 2).
//
// Medical data bound for outsourcing passes through two consecutive
// transformations, both governed by the usage metrics:
//
//   original --binning agent--> k-anonymous, identifier-encrypted table
//            --watermarking agent--> ownership-marked table
//
// The framework wires the two agents together, derives the ownership mark
// from the cleartext identifiers (Sec. 5.4: wm = F(v)), optionally applies
// the Sec. 6 conservative k+epsilon adjustment, and reports the Fig. 14
// seamlessness statistics. Those come from the flush's own node counts —
// the binning's per-row bin NodeIds and the embed's cell moves — not from
// re-reading the tables; MeasureSeamlessness below is the table-level
// reference they are tested against.

#ifndef PRIVMARK_CORE_FRAMEWORK_H_
#define PRIVMARK_CORE_FRAMEWORK_H_

#include <string>
#include <vector>

#include "binning/binning_engine.h"
#include "common/bitvec.h"
#include "common/status.h"
#include "metrics/usage_metrics.h"
#include "relation/table.h"
#include "watermark/hierarchical.h"
#include "watermark/ownership.h"

namespace privmark {

/// \brief End-to-end configuration.
struct FrameworkConfig {
  BinningConfig binning;
  WatermarkKey key;
  /// Non-secret name of `key` (the recipient it was issued to, e.g. a
  /// KeyRegistry entry name). Recorded in manifests as the key id so a
  /// later fingerprint scan knows which registry entry embedded this
  /// copy; empty = unnamed key, nothing recorded.
  std::string key_id;
  WatermarkOptions watermark;
  /// Mark length (the paper's experiments embed a 20-bit mark).
  size_t mark_bits = 20;
  /// Mark copies (paper's l); 0 = fill the available bandwidth.
  size_t copies = 0;
  /// Derive the mark from the identifier statistic (Sec. 5.4). When false,
  /// `explicit_mark` is embedded instead.
  bool derive_mark_from_identifiers = true;
  BitVector explicit_mark;
  /// Apply the Sec. 6 conservative adjustment: after a first binning pass,
  /// set epsilon = ceil((s / S) * |wmd|) and re-bin with k + epsilon.
  bool auto_epsilon = false;
};

/// \brief One row of the paper's Fig. 14 table.
struct AttributeSeamlessness {
  std::string attribute;
  /// Bins (distinct generalized values) of this attribute before
  /// watermarking.
  size_t total_bins = 0;
  /// Bins whose size changed during watermarking.
  size_t bins_size_changed = 0;
  /// Bins smaller than k after watermarking (the paper reports all zeros).
  size_t bins_below_k = 0;
};

/// \brief Everything one protection run produces.
struct ProtectionOutcome {
  /// Output of the binning agent (includes the binned table).
  BinningOutcome binning;
  /// The final table: binned + watermarked, ready for outsourcing.
  Table watermarked;
  /// The embedded mark.
  BitVector mark;
  /// v, the identifier statistic behind the mark (when derived).
  double identifier_statistic = 0.0;
  EmbedReport embed;
  /// The epsilon actually used (0 unless auto_epsilon or configured).
  size_t epsilon_used = 0;
  /// Fig. 14 rows, one per quasi-identifying attribute; equal to
  /// MeasureSeamlessness(binning.binned, watermarked, ...).
  std::vector<AttributeSeamlessness> seamlessness;
};

/// \brief The framework: binning agent + watermarking agent.
class ProtectionFramework {
 public:
  /// \param metrics usage metrics (trees + maximal generalization nodes)
  ///        for the schema's quasi-identifying columns, in schema order.
  ProtectionFramework(UsageMetrics metrics, FrameworkConfig config);

  /// \brief Runs the full pipeline on the original (cleartext) table.
  /// Implemented as a single-batch ProtectionSession (core/session.h) —
  /// Ingest the table, Flush once — so the one-shot and streaming paths
  /// cannot drift apart.
  Result<ProtectionOutcome> Protect(const Table& original) const;

  /// \brief Builds the watermarker matching a binning outcome — also used
  /// by detection-side tooling (the data owner re-derives it from key +
  /// recorded generalizations).
  HierarchicalWatermarker MakeWatermarker(const BinningOutcome& binning) const;

  const FrameworkConfig& config() const { return config_; }
  const UsageMetrics& metrics() const { return metrics_; }

 private:
  UsageMetrics metrics_;
  FrameworkConfig config_;
};

/// \brief Fig. 14 measurement: per attribute, group the binned and the
/// watermarked tables by that column alone and compare bin sizes. The
/// table-level reference for ProtectionOutcome::seamlessness, which a
/// flush derives from node counts instead.
Result<std::vector<AttributeSeamlessness>> MeasureSeamlessness(
    const Table& binned, const Table& watermarked,
    const std::vector<size_t>& qi_columns, size_t k);

/// \brief Sec. 6's conservative epsilon: ceil((s / S) * wmd_size) with
/// s = `largest_bin`, the size of the binned table's largest bin, and
/// S = `rows`, its size; 0 for an empty table. A flush reads s from its
/// bins' NodeIds (BinningOutcome::bin_nodes).
size_t ConservativeEpsilon(size_t largest_bin, size_t rows, size_t wmd_size);

}  // namespace privmark

#endif  // PRIVMARK_CORE_FRAMEWORK_H_
