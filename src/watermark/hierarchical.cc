#include "watermark/hierarchical.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "watermark/embed_internal.h"

namespace privmark {

namespace {

using watermark_internal::EmbedSlot;
using watermark_internal::SlotKind;
using watermark_internal::SlotWrite;

// The hierarchical slot rules (Fig. 9); embed_internal.h runs the rest.
struct Rules {
  const HierarchicalWatermarker& wm;

  struct Scratch {
    std::vector<std::pair<bool, int>> level_bits;  // (bit, depth)
  };

  // A slot is embeddable iff a maximal node sits strictly above the
  // cell's ultimate node; that node is where the write walk starts.
  SlotKind Resolve(size_t c, NodeId node, NodeId* top) const {
    const GeneralizationSet& maximal = wm.maximal()[c];
    const DomainHierarchy& tree = *maximal.tree();
    NodeId cur = node;
    while (cur != kInvalidNode && !maximal.Contains(cur)) {
      cur = tree.Parent(cur);
    }
    // Zero-gap special case (Sec. 5.2): permutation here would exceed the
    // usage metrics, so the slot carries no bit.
    if (cur == kInvalidNode || cur == node) return SlotKind::kNoGap;
    *top = cur;
    return SlotKind::kFull;
  }

  // Walks down from the maximal node; at every level with >= 2 children
  // it picks a pseudo-random child whose sibling-index parity is `bit`.
  SlotWrite Write(const EmbedSlot& slot, bool bit, std::string_view ident,
                  std::string_view column, WatermarkHasher* hasher,
                  Scratch*) const {
    const GeneralizationSet& ultimate = wm.ultimate()[slot.col_idx];
    const DomainHierarchy& tree = *ultimate.tree();
    NodeId cur = slot.top;
    bool carried = false;
    while (!ultimate.Contains(cur)) {
      const std::vector<NodeId>& children = tree.Children(cur);
      assert(!children.empty() &&
             "a leaf must be covered by an ultimate node at or above it");
      if (children.size() == 1) {
        cur = children[0];
        continue;
      }
      size_t idx = hasher->PermutationIndex(ident, column, tree.Depth(cur),
                                            children.size());
      // SetMuBit with in-range correction: force the parity, stepping back
      // by 2 if that overruns the sibling count (safe: >= 2 children means
      // both parities exist).
      idx = (idx & ~size_t{1}) | static_cast<size_t>(bit);
      if (idx >= children.size()) idx -= 2;
      cur = children[idx];
      carried = true;
    }
    return SlotWrite{cur, carried};
  }

  SlotVote Read(size_t c, const Value& cell, Scratch* scratch) const {
    return wm.ReadSlot(c, cell, &scratch->level_bits);
  }
};

}  // namespace

HierarchicalWatermarker::HierarchicalWatermarker(
    std::vector<size_t> qi_columns, size_t ident_column,
    std::vector<GeneralizationSet> maximal,
    std::vector<GeneralizationSet> ultimate, WatermarkKey key,
    WatermarkOptions options)
    : qi_columns_(std::move(qi_columns)),
      ident_column_(ident_column),
      maximal_(std::move(maximal)),
      ultimate_(std::move(ultimate)),
      key_(std::move(key)),
      options_(options) {
  assert(qi_columns_.size() == maximal_.size());
  assert(qi_columns_.size() == ultimate_.size());
}

SlotVote HierarchicalWatermarker::ReadSlot(
    size_t c, const Value& cell,
    std::vector<std::pair<bool, int>>* level_scratch) const {
  const DomainHierarchy& tree = *ultimate_[c].tree();
  auto node_result = cell.type() == ValueType::kString
                         ? tree.FindByLabel(cell.AsString())
                         : tree.FindByLabel(cell.ToString());
  if (!node_result.ok()) {
    // Altered beyond the domain: no votes from this slot.
    return SlotVote::kSkip;
  }
  NodeId cur = *node_result;
  if (maximal_[c].Contains(cur)) return SlotVote::kSkip;

  // Walk up to the maximal node, reading a parity bit per level with >= 2
  // siblings (Fig. 9's Detection inner loop). The embedding wrote the
  // same bit at every level, so majority-vote the levels. Sibling index
  // and count are O(1) precomputed tree metadata.
  std::vector<std::pair<bool, int>>& level_bits = *level_scratch;
  bool reached_maximal = false;
  level_bits.clear();
  while (cur != kInvalidNode) {
    const NodeId parent = tree.Parent(cur);
    if (parent == kInvalidNode) break;
    if (tree.SiblingCount(cur) >= 2) {
      level_bits.push_back(
          {(tree.SiblingIndex(cur) & 1) != 0, tree.Depth(cur)});
    }
    if (maximal_[c].Contains(parent)) {
      reached_maximal = true;
      break;
    }
    cur = parent;
  }
  if (!reached_maximal || level_bits.empty()) return SlotVote::kSkip;

  // Weight by distance from the top of the walk (highest level first).
  double zero_weight = 0.0;
  double one_weight = 0.0;
  const int top_depth = level_bits.back().second;
  for (const auto& [bit, depth] : level_bits) {
    const double weight =
        options_.weighted_voting
            ? std::pow(options_.level_weight_decay, depth - top_depth)
            : 1.0;
    (bit ? one_weight : zero_weight) += weight;
  }
  // Tied levels: the slot abstains.
  if (one_weight == zero_weight) return SlotVote::kSkip;
  return one_weight > zero_weight ? SlotVote::kOne : SlotVote::kZero;
}

Result<size_t> HierarchicalWatermarker::EstimateBandwidth(
    const Table& table) const {
  return watermark_internal::EstimateBandwidth(Rules{*this}, table);
}

Result<EmbedReport> HierarchicalWatermarker::Embed(
    Table* table, const BitVector& wm, size_t copies,
    std::vector<CellMove>* moves) const {
  return watermark_internal::Embed(Rules{*this}, table, wm, copies, moves);
}

Result<DetectReport> HierarchicalWatermarker::Detect(const Table& table,
                                                     size_t wm_size,
                                                     size_t wmd_size) const {
  return watermark_internal::Detect(Rules{*this}, table, wm_size, wmd_size);
}

Result<DetectIndex> BuildDetectIndex(const HierarchicalWatermarker& wm,
                                     const Table& table) {
  return watermark_internal::BuildIndex(Rules{wm}, table);
}

Result<double> MarkLossAgainst(const BitVector& reference,
                               const BitVector& recovered) {
  return reference.LossFraction(recovered);
}

Result<double> DetectionPValue(const BitVector& reference,
                               const DetectReport& report) {
  if (reference.size() != report.recovered.size() ||
      reference.size() != report.bit_voted.size()) {
    return Status::InvalidArgument("DetectionPValue: size mismatch");
  }
  size_t voted = 0;
  size_t matches = 0;
  for (size_t j = 0; j < reference.size(); ++j) {
    if (!report.bit_voted[j]) continue;
    ++voted;
    if (reference.Get(j) == report.recovered.Get(j)) ++matches;
  }
  if (voted == 0) return 1.0;

  // P[Bin(voted, 1/2) >= matches] = sum_{i=matches..voted} C(voted,i)/2^v,
  // computed in log space to stay stable for large vote counts.
  double tail = 0.0;
  double log_choose = 0.0;  // log C(voted, 0) = 0
  const double log_half_pow = -static_cast<double>(voted) * std::log(2.0);
  for (size_t i = 0; i <= voted; ++i) {
    if (i >= matches) {
      tail += std::exp(log_choose + log_half_pow);
    }
    // C(v, i+1) = C(v, i) * (v - i) / (i + 1).
    if (i < voted) {
      log_choose += std::log(static_cast<double>(voted - i)) -
                    std::log(static_cast<double>(i + 1));
    }
  }
  return std::min(tail, 1.0);
}

Result<double> StrictMarkLoss(const BitVector& reference,
                              const DetectReport& report) {
  if (reference.size() != report.recovered.size() ||
      reference.size() != report.bit_voted.size()) {
    return Status::InvalidArgument("StrictMarkLoss: size mismatch");
  }
  if (reference.empty()) return 0.0;
  size_t lost = 0;
  for (size_t j = 0; j < reference.size(); ++j) {
    if (!report.bit_voted[j] ||
        reference.Get(j) != report.recovered.Get(j)) {
      ++lost;
    }
  }
  return static_cast<double>(lost) / static_cast<double>(reference.size());
}

}  // namespace privmark
