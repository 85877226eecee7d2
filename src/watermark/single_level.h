// Single-level watermarking baseline (paper Sec. 5.2).
//
// This is the "direct way" the paper describes — permute only at the level
// of each ultimate generalization node among its siblings, encoding the bit
// in the parity of the target's index — and then rejects: it is susceptible
// to the generalization attack, which generalizes every cell one level up
// without needing the watermarking key and thereby erases the single level
// that carries all the bits. It exists in this library as the comparator
// for bench/ablation_generalization_attack.
//
// Deviation from the paper's sketch: when the desired-parity sibling is not
// itself an ultimate generalization node, the paper continues permuting
// downward (without those levels being detectable); we instead restrict the
// choice to same-parity siblings that are ultimate nodes and skip the slot
// when none exists. This keeps detection well-defined and does not affect
// the scheme's (in)vulnerability, which is the property under study.

#ifndef PRIVMARK_WATERMARK_SINGLE_LEVEL_H_
#define PRIVMARK_WATERMARK_SINGLE_LEVEL_H_

#include <vector>

#include "common/bitvec.h"
#include "common/status.h"
#include "hierarchy/generalization.h"
#include "relation/table.h"
#include "watermark/hierarchical.h"
#include "watermark/watermark_key.h"

namespace privmark {

/// \brief The single-level scheme; same interface shape as
/// HierarchicalWatermarker.
class SingleLevelWatermarker {
 public:
  SingleLevelWatermarker(std::vector<size_t> qi_columns, size_t ident_column,
                         std::vector<GeneralizationSet> ultimate,
                         WatermarkKey key, WatermarkOptions options);

  /// \brief Embeds `wm` (duplicated into `copies` copies; 0 = auto).
  Result<EmbedReport> Embed(Table* table, const BitVector& wm,
                            size_t copies = 0) const;

  /// \brief Recovers the mark by reading each marked cell's sibling parity.
  Result<DetectReport> Detect(const Table& table, size_t wm_size,
                              size_t wmd_size) const;

  /// \brief Selected tuples x columns with an embeddable slot.
  Result<size_t> EstimateBandwidth(const Table& table) const;

  const WatermarkKey& key() const { return key_; }
  const WatermarkOptions& options() const { return options_; }
  const std::vector<size_t>& qi_columns() const { return qi_columns_; }
  size_t ident_column() const { return ident_column_; }
  const std::vector<GeneralizationSet>& ultimate() const { return ultimate_; }

 private:
  std::vector<size_t> qi_columns_;
  size_t ident_column_;
  std::vector<GeneralizationSet> ultimate_;
  WatermarkKey key_;
  WatermarkOptions options_;
};

}  // namespace privmark

#endif  // PRIVMARK_WATERMARK_SINGLE_LEVEL_H_
