#include "watermark/single_level.h"

#include <cassert>

#include "watermark/embed_internal.h"

namespace privmark {

namespace {

using watermark_internal::EmbedSlot;
using watermark_internal::SlotKind;
using watermark_internal::SlotWrite;

// The single-level slot rules (Sec. 5.2): a bit lives in the sibling-index
// parity of the cell's own ultimate node. embed_internal.h runs the rest.
struct Rules {
  const SingleLevelWatermarker& wm;

  struct Scratch {
    std::vector<NodeId> candidates;
  };

  // Calls sink(parity, sibling) for every ultimate sibling of `node`, node
  // itself included; a root has no siblings and can carry only a 0, as
  // itself.
  template <typename Sink>
  void ForEachCandidate(size_t c, NodeId node, const Sink& sink) const {
    const GeneralizationSet& ultimate = wm.ultimate()[c];
    const DomainHierarchy& tree = *ultimate.tree();
    const NodeId parent = tree.Parent(node);
    if (parent == kInvalidNode) {
      if (ultimate.Contains(node)) sink(false, node);
      return;
    }
    const std::vector<NodeId>& sibs = tree.Children(parent);
    for (size_t i = 0; i < sibs.size(); ++i) {
      if (ultimate.Contains(sibs[i])) sink((i & 1) != 0, sibs[i]);
    }
  }

  // Bandwidth counts a slot only when both parities have a candidate; a
  // slot with one parity is still written when its bit matches.
  SlotKind Resolve(size_t c, NodeId node, NodeId*) const {
    bool parity[2] = {false, false};
    ForEachCandidate(c, node, [&](bool bit, NodeId) { parity[bit] = true; });
    if (parity[0] && parity[1]) return SlotKind::kFull;
    return parity[0] || parity[1] ? SlotKind::kPartial : SlotKind::kNoGap;
  }

  SlotWrite Write(const EmbedSlot& slot, bool bit, std::string_view ident,
                  std::string_view column, WatermarkHasher* hasher,
                  Scratch* scratch) const {
    std::vector<NodeId>& candidates = scratch->candidates;
    candidates.clear();
    ForEachCandidate(slot.col_idx, slot.node, [&](bool parity, NodeId node) {
      if (parity == bit) candidates.push_back(node);
    });
    if (candidates.empty()) return SlotWrite{kInvalidNode, false};
    const DomainHierarchy& tree = *wm.ultimate()[slot.col_idx].tree();
    const size_t pick = hasher->PermutationIndex(
        ident, column, tree.Depth(slot.node), candidates.size());
    return SlotWrite{candidates[pick], true};
  }

  // Resolve the cell and read its sibling-index parity; abstain when the
  // label is unknown or the node has no siblings.
  SlotVote Read(size_t c, const Value& cell, Scratch*) const {
    const DomainHierarchy& tree = *wm.ultimate()[c].tree();
    auto node = cell.type() == ValueType::kString
                    ? tree.FindByLabel(cell.AsString())
                    : tree.FindByLabel(cell.ToString());
    if (!node.ok()) return SlotVote::kSkip;
    if (tree.SiblingCount(*node) < 2) return SlotVote::kSkip;
    return (tree.SiblingIndex(*node) & 1) != 0 ? SlotVote::kOne
                                               : SlotVote::kZero;
  }
};

}  // namespace

SingleLevelWatermarker::SingleLevelWatermarker(
    std::vector<size_t> qi_columns, size_t ident_column,
    std::vector<GeneralizationSet> ultimate, WatermarkKey key,
    WatermarkOptions options)
    : qi_columns_(std::move(qi_columns)),
      ident_column_(ident_column),
      ultimate_(std::move(ultimate)),
      key_(std::move(key)),
      options_(options) {
  assert(qi_columns_.size() == ultimate_.size());
}

Result<size_t> SingleLevelWatermarker::EstimateBandwidth(
    const Table& table) const {
  return watermark_internal::EstimateBandwidth(Rules{*this}, table);
}

Result<EmbedReport> SingleLevelWatermarker::Embed(Table* table,
                                                  const BitVector& wm,
                                                  size_t copies) const {
  return watermark_internal::Embed(Rules{*this}, table, wm, copies,
                                   /*moves=*/nullptr);
}

Result<DetectReport> SingleLevelWatermarker::Detect(const Table& table,
                                                    size_t wm_size,
                                                    size_t wmd_size) const {
  return watermark_internal::Detect(Rules{*this}, table, wm_size, wmd_size);
}

}  // namespace privmark
