// The hierarchical watermarking scheme (paper Sec. 5.3, Fig. 9).
//
// Bandwidth channel (Sec. 5.1): in a binned table, permuting a value among
// the nodes between its maximal generalization node (usage-metric ceiling)
// and the ultimate generalization nodes (binning output) is exactly another
// allowable generalization, so the table tolerates it — that gap is the
// watermark's insertion bandwidth.
//
// Embedding (Fig. 9): for each selected tuple and quasi-identifying column,
// start from the maximal generalization node above the cell's ultimate node
// and walk down; at every level choose, among the sorted children, a
// pseudo-random child whose sibling-index parity equals the embedded bit;
// stop at an ultimate generalization node and write its label into the
// cell. Every level on the walk carries a copy of the same bit, which is
// what defeats the generalization attack that kills single-level schemes.
//
// Detection: walk from the cell's node up to its maximal generalization
// node, reading the sibling-index parity at each level; majority-vote the
// levels (optionally weighted toward higher levels), then accumulate votes
// per wmd position across tuples, and finally majority-vote the duplicated
// copies down to the recovered mark.

#ifndef PRIVMARK_WATERMARK_HIERARCHICAL_H_
#define PRIVMARK_WATERMARK_HIERARCHICAL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "common/status.h"
#include "hierarchy/generalization.h"
#include "relation/table.h"
#include "watermark/watermark_key.h"

namespace privmark {

/// \brief Statistics from an embedding run.
struct EmbedReport {
  /// Rows matching the Eq. (5) selector.
  size_t tuples_selected = 0;
  /// (tuple, column) slots that actually carried a bit (gap >= 1 level and
  /// at least one level with >= 2 siblings).
  size_t slots_embedded = 0;
  /// (tuple, column) slots skipped because the cell's ultimate node is also
  /// its maximal node (the Sec. 5.2 zero-gap special case).
  size_t slots_skipped_no_gap = 0;
  /// Number of mark copies in wmd (the paper's l).
  size_t copies = 1;
  /// |wmd| = copies * |wm|; detection must be told this value.
  size_t wmd_size = 0;
  /// Cells whose value changed (a slot can be embedded yet keep its value
  /// if the walk lands on the original node).
  size_t cells_changed = 0;
};

/// \brief One cell an embed rewrote: row `row` of quasi-identifying column
/// `col_idx` (an index into qi_columns, not the schema) moved from the
/// ultimate node `from` to the ultimate node `to`. Applying every move of
/// an embed to the pre-embed table reproduces the embedded table.
struct CellMove {
  size_t row = 0;
  size_t col_idx = 0;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
};

/// \brief Outcome of the key-independent half of detection for one
/// (tuple, column) slot: the slot abstains (unknown label, no gap, tied
/// levels) or votes a bit. Detection splits along Eq. (5): this value
/// depends only on the table and the hierarchy, never on the key, which
/// is what lets a multi-key fingerprint scan read every slot once and
/// re-run only the keyed-hash tally per candidate key (detect_index.h).
enum class SlotVote : uint8_t { kSkip = 0, kZero = 1, kOne = 2 };

/// \brief Statistics from a detection run.
struct DetectReport {
  /// The recovered mark (|wm| bits). Positions with no or tied votes
  /// default to 0.
  BitVector recovered;
  /// Fraction of mark bits lost vs. a reference mark; filled by
  /// MarkLossAgainst().
  size_t tuples_selected = 0;
  /// Slots contributing at least one vote.
  size_t slots_read = 0;
  /// Slots skipped (unknown label, no gap, label at/above maximal node).
  size_t slots_skipped = 0;
  /// Per wm-bit signed vote margin (ones minus zeros, weighted); diagnostic.
  std::vector<double> vote_margin;
  /// Per wm-bit flag: did any slot vote for this bit (any copy)? A bit
  /// without votes is unrecoverable — deletion-style attacks erase bits
  /// this way rather than by flipping them.
  std::vector<bool> bit_voted;
};

/// \brief The watermarking agent for binned tables.
///
/// Holds non-owning pointers to the domain hierarchies via the
/// generalization sets; those must outlive the watermarker.
class HierarchicalWatermarker {
 public:
  /// \param qi_columns quasi-identifying column indices, parallel to
  ///        `maximal` / `ultimate`
  /// \param ident_column index of the (encrypted) identifying column
  HierarchicalWatermarker(std::vector<size_t> qi_columns, size_t ident_column,
                          std::vector<GeneralizationSet> maximal,
                          std::vector<GeneralizationSet> ultimate,
                          WatermarkKey key, WatermarkOptions options);

  /// \brief Upper bound on embeddable slots for this table: selected tuples
  /// x columns whose cell has a positive maximal-to-ultimate gap.
  Result<size_t> EstimateBandwidth(const Table& table) const;

  /// \brief Embeds `wm` into `table` in place.
  ///
  /// \param copies how many times to duplicate the mark (the paper's
  ///        multiple embedding). 0 = auto: floor(bandwidth / |wm|), >= 1.
  /// \param moves when set, receives one CellMove per changed cell
  ///        (report.cells_changed of them) in row order, identical for
  ///        any worker count.
  Result<EmbedReport> Embed(Table* table, const BitVector& wm,
                            size_t copies = 0,
                            std::vector<CellMove>* moves = nullptr) const;

  /// \brief Recovers a mark of `wm_size` bits assuming `wmd_size` embedded
  /// positions (from the EmbedReport). Never fails on attacked cells; they
  /// simply contribute no votes.
  Result<DetectReport> Detect(const Table& table, size_t wm_size,
                              size_t wmd_size) const;

  /// \brief The key-independent slot read behind Detect(): resolve the
  /// cell of quasi-identifying column `c`, walk up to its maximal node
  /// reading sibling parities, and majority-vote the levels. Both the
  /// fused single-key Detect() and BuildDetectIndex() call this, so the
  /// two paths cannot drift. `level_scratch` is a reusable buffer for the
  /// per-level (bit, depth) pairs; hot loops pass one across calls.
  SlotVote ReadSlot(size_t c, const Value& cell,
                    std::vector<std::pair<bool, int>>* level_scratch) const;

  const WatermarkKey& key() const { return key_; }
  const WatermarkOptions& options() const { return options_; }
  const std::vector<size_t>& qi_columns() const { return qi_columns_; }
  size_t ident_column() const { return ident_column_; }
  const std::vector<GeneralizationSet>& maximal() const { return maximal_; }
  const std::vector<GeneralizationSet>& ultimate() const { return ultimate_; }

 private:
  std::vector<size_t> qi_columns_;
  size_t ident_column_;
  std::vector<GeneralizationSet> maximal_;
  std::vector<GeneralizationSet> ultimate_;
  WatermarkKey key_;
  WatermarkOptions options_;
};

/// \brief Fraction of bits of `reference` lost in `recovered` (paper's
/// "mark loss"). Requires equal sizes.
Result<double> MarkLossAgainst(const BitVector& reference,
                               const BitVector& recovered);

/// \brief Strict mark loss: a bit is lost if it was recovered wrong *or*
/// received no votes at all (DetectReport::bit_voted). This is the honest
/// accounting for erasure-style attacks such as subset deletion, where
/// bits disappear without being flipped; benches report this number.
Result<double> StrictMarkLoss(const BitVector& reference,
                              const DetectReport& report);

/// \brief Significance of a detection: the probability that a table
/// carrying *no* mark (or a different key's mark) would agree with the
/// expected mark on at least as many voted bits by chance — the binomial
/// tail P[Bin(voted, 1/2) >= matches].
///
/// Small values (e.g. < 1e-6) are what an ownership claimant presents:
/// "this agreement cannot be coincidence". Bits without votes are
/// excluded — they carry no evidence either way. Returns 1.0 when no bit
/// received votes.
Result<double> DetectionPValue(const BitVector& reference,
                               const DetectReport& report);

}  // namespace privmark

#endif  // PRIVMARK_WATERMARK_HIERARCHICAL_H_
