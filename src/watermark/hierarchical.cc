#include "watermark/hierarchical.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/parallel.h"
#include "watermark/detect_index.h"
#include "watermark/embed_internal.h"

namespace privmark {

namespace {

using watermark_internal::IdentBlock;
using watermark_internal::MergeResolve;
using watermark_internal::ResolvedShard;
using watermark_internal::SelectedTuple;

// One embeddable (tuple, column) slot: the cell's resolved node and the
// maximal generalization node above it.
struct EmbedSlot {
  size_t col_idx;  // index into qi_columns_, not the schema
  NodeId node;
  NodeId max_node;
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

NodeId HierarchicalWatermarker::MaximalAbove(size_t c, NodeId node) const {
  const DomainHierarchy& tree = *maximal_[c].tree();
  for (NodeId cur = node; cur != kInvalidNode; cur = tree.Parent(cur)) {
    if (maximal_[c].Contains(cur)) return cur;
  }
  return kInvalidNode;
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
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* const pool =
      PoolOrMake(options_.pool, options_.num_threads, &owned_pool);
  return ParallelReduce<size_t>(
      pool, table.num_rows(), size_t{0},
      [&](size_t, size_t begin, size_t end) -> Result<size_t> {
        WatermarkHasher hasher(key_, options_.hash);
        IdentBlock block;
        size_t slots = 0;
        for (size_t b = begin; b < end; b += IdentBlock::kRows) {
          const size_t n = std::min(IdentBlock::kRows, end - b);
          block.Load(table, ident_column_, b, n, &hasher);
          for (size_t i = 0; i < n; ++i) {
            if (!block.selected(i)) continue;
            const size_t r = b + i;
            for (size_t c = 0; c < qi_columns_.size(); ++c) {
              const Value& cell = table.at(r, qi_columns_[c]);
              auto node = cell.type() == ValueType::kString
                              ? ultimate_[c].NodeForLabel(cell.AsString())
                              : ultimate_[c].NodeForLabel(cell.ToString());
              if (!node.ok()) continue;
              const NodeId max_node = MaximalAbove(c, *node);
              if (max_node == kInvalidNode || max_node == *node) continue;
              ++slots;
            }
          }
        }
        return slots;
      },
      [](size_t* acc, size_t&& slots) { *acc += slots; });
}

Result<EmbedReport> HierarchicalWatermarker::Embed(
    Table* table, const BitVector& wm, size_t copies,
    std::vector<CellMove>* moves) const {
  if (wm.empty()) {
    return Status::InvalidArgument("Embed: empty watermark");
  }
  EmbedReport report;
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* const pool =
      PoolOrMake(options_.pool, options_.num_threads, &owned_pool);

  // Pass 1 — resolve. One Eq. (5) hash per tuple and one label-to-node
  // resolution per (selected tuple, column); the former bandwidth
  // pre-pass and the embedding pass used to pay both twice. Rows shard
  // contiguously; each shard records its own tuples/slots (merged in
  // shard order, so the combined vectors match a serial scan).
  using Resolved = ResolvedShard<EmbedSlot>;
  PRIVMARK_ASSIGN_OR_RETURN(
      Resolved resolved,
      ParallelReduce<Resolved>(
          pool, table->num_rows(), Resolved{},
          [&](size_t, size_t begin, size_t end) -> Result<Resolved> {
            Resolved shard;
            WatermarkHasher hasher(key_, options_.hash);
            IdentBlock block;
            for (size_t b = begin; b < end; b += IdentBlock::kRows) {
              const size_t n = std::min(IdentBlock::kRows, end - b);
              block.Load(*table, ident_column_, b, n, &hasher);
              for (size_t i = 0; i < n; ++i) {
                if (!block.selected(i)) continue;
                const size_t r = b + i;
                const std::string_view ident = block.ident(i);
                ++shard.tuples_selected;
                SelectedTuple tuple{r, std::string(ident),
                                    shard.slots.size(), shard.slots.size()};
                for (size_t c = 0; c < qi_columns_.size(); ++c) {
                  const Value& cell = table->at(r, qi_columns_[c]);
                  PRIVMARK_ASSIGN_OR_RETURN(
                      NodeId node,
                      cell.type() == ValueType::kString
                          ? ultimate_[c].NodeForLabel(cell.AsString())
                          : ultimate_[c].NodeForLabel(cell.ToString()));
                  const NodeId max_node = MaximalAbove(c, node);
                  if (max_node == kInvalidNode || max_node == node) {
                    // Zero-gap special case (Sec. 5.2): permutation here
                    // would exceed the usage metrics, so the slot carries
                    // no bit.
                    ++shard.slots_skipped_no_gap;
                    continue;
                  }
                  shard.slots.push_back(EmbedSlot{c, node, max_node});
                  // Assemble the slot's position message now so the write
                  // pass can batch-hash whole shards of slots.
                  WatermarkHasher::AppendPositionMessage(
                      ident, table->schema().column(qi_columns_[c]).name,
                      &shard.pos_bytes);
                  shard.pos_ends.push_back(shard.pos_bytes.size());
                  ++shard.bandwidth;
                }
                tuple.slot_end = shard.slots.size();
                shard.tuples.push_back(std::move(tuple));
              }
            }
            return shard;
          },
          MergeResolve<EmbedSlot>));
  report.tuples_selected = resolved.tuples_selected;
  report.slots_skipped_no_gap = resolved.slots_skipped_no_gap;

  if (copies == 0) {
    copies = resolved.bandwidth / wm.size();
    if (copies == 0) copies = 1;
  }
  report.copies = copies;
  const BitVector wmd = wm.Duplicate(copies);
  report.wmd_size = wmd.size();

  // Pass 2 — embed. Walks the recorded slots only; labels are written
  // back from the tree's NodeId -> label arena, and only when the walk
  // lands on a different node than the cell already holds. Tuples shard
  // contiguously and every tuple writes only its own row, so writes are
  // disjoint across workers.
  PRIVMARK_ASSIGN_OR_RETURN(
      watermark_internal::WriteTally tally,
      ParallelReduce<watermark_internal::WriteTally>(
          pool, resolved.tuples.size(), {},
          [&](size_t, size_t begin,
              size_t end) -> Result<watermark_internal::WriteTally> {
            watermark_internal::WriteTally shard;
            if (begin == end) return shard;
            WatermarkHasher hasher(key_, options_.hash);
            // The shard's slots form one contiguous range; batch-hash all
            // their (pre-assembled) position messages up front. The
            // permutation walk below stays scalar: each step depends on
            // the node the previous one landed on.
            const size_t slot0 = resolved.tuples[begin].slot_begin;
            const size_t slot1 = resolved.tuples[end - 1].slot_end;
            std::vector<std::string_view> messages(slot1 - slot0);
            std::vector<size_t> positions(slot1 - slot0);
            for (size_t i = slot0; i < slot1; ++i) {
              messages[i - slot0] = resolved.pos_msg(i);
            }
            hasher.PositionBlock(messages.data(), messages.size(),
                                 wmd.size(), positions.data());
            for (size_t t = begin; t < end; ++t) {
              const SelectedTuple& tuple = resolved.tuples[t];
              for (size_t i = tuple.slot_begin; i < tuple.slot_end; ++i) {
                const EmbedSlot& slot = resolved.slots[i];
                const size_t col = qi_columns_[slot.col_idx];
                const std::string& column_name =
                    table->schema().column(col).name;
                const DomainHierarchy& tree = *ultimate_[slot.col_idx].tree();

                const bool bit = wmd.Get(positions[i - slot0]);
                NodeId cur = slot.max_node;
                bool encoded_any = false;
                while (!ultimate_[slot.col_idx].Contains(cur)) {
                  const std::vector<NodeId>& children = tree.Children(cur);
                  assert(!children.empty() &&
                         "a leaf must be covered by an ultimate node at or "
                         "above it");
                  if (children.size() == 1) {
                    cur = children[0];
                    continue;
                  }
                  size_t idx =
                      hasher.PermutationIndex(tuple.ident, column_name,
                                              tree.Depth(cur), children.size());
                  // SetMuBit with in-range correction: force the parity,
                  // stepping back by 2 if that overruns the sibling count
                  // (safe: >= 2 children means both parities exist).
                  idx = (idx & ~size_t{1}) | static_cast<size_t>(bit);
                  if (idx >= children.size()) idx -= 2;
                  cur = children[idx];
                  encoded_any = true;
                }
                if (encoded_any) ++shard.slots_embedded;
                if (cur != slot.node) {
                  table->Set(tuple.row, col, Value::String(tree.node(cur).label));
                  ++shard.cells_changed;
                  if (moves != nullptr) {
                    shard.moves.push_back(
                        CellMove{tuple.row, slot.col_idx, slot.node, cur});
                  }
                }
              }
            }
            return shard;
          },
          watermark_internal::MergeWrites));
  report.slots_embedded = tally.slots_embedded;
  report.cells_changed = tally.cells_changed;
  if (moves != nullptr) *moves = std::move(tally.moves);
  return report;
}

Result<DetectReport> HierarchicalWatermarker::Detect(const Table& table,
                                                     size_t wm_size,
                                                     size_t wmd_size) const {
  if (wm_size == 0 || wmd_size == 0 || wmd_size % wm_size != 0) {
    return Status::InvalidArgument(
        "Detect: wmd_size must be a positive multiple of wm_size");
  }
  DetectReport report;
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* const pool =
      PoolOrMake(options_.pool, options_.num_threads, &owned_pool);

  // Row shards accumulate weighted votes per wmd position into their own
  // (zeros, ones) tally, merged in shard order before the fold — every
  // slot contributes exactly 1.0, so the merged totals equal the serial
  // ones bit for bit.
  using watermark_internal::VoteShard;
  PRIVMARK_ASSIGN_OR_RETURN(
      VoteShard votes,
      ParallelReduce<VoteShard>(
          pool, table.num_rows(), VoteShard(wmd_size),
          [&](size_t, size_t begin, size_t end) -> Result<VoteShard> {
            VoteShard shard(wmd_size);
            WatermarkHasher hasher(key_, options_.hash);
            IdentBlock block;
            std::vector<std::pair<bool, int>> level_bits;  // (bit, depth)
            // Per block: read every voting slot first, appending its
            // position message to the arena, then batch-hash all positions
            // once the arena is stable (views into a growing string would
            // dangle) and apply the votes. Vote values and counters are
            // identical to the per-slot order — tallies are commutative
            // integer-valued sums.
            std::string arena;
            std::vector<size_t> msg_ends;
            std::vector<uint8_t> vote_ones;
            std::vector<std::string_view> messages;
            std::vector<size_t> positions;
            for (size_t b = begin; b < end; b += IdentBlock::kRows) {
              const size_t n = std::min(IdentBlock::kRows, end - b);
              block.Load(table, ident_column_, b, n, &hasher);
              arena.clear();
              msg_ends.clear();
              vote_ones.clear();
              for (size_t i = 0; i < n; ++i) {
                if (!block.selected(i)) continue;
                const size_t r = b + i;
                ++shard.tuples_selected;
                for (size_t c = 0; c < qi_columns_.size(); ++c) {
                  const size_t col = qi_columns_[c];
                  const SlotVote vote =
                      ReadSlot(c, table.at(r, col), &level_bits);
                  if (vote == SlotVote::kSkip) {
                    ++shard.slots_skipped;
                    continue;
                  }
                  WatermarkHasher::AppendPositionMessage(
                      block.ident(i), table.schema().column(col).name,
                      &arena);
                  msg_ends.push_back(arena.size());
                  vote_ones.push_back(vote == SlotVote::kOne ? 1 : 0);
                }
              }
              messages.resize(msg_ends.size());
              positions.resize(msg_ends.size());
              size_t start = 0;
              for (size_t j = 0; j < msg_ends.size(); ++j) {
                messages[j] = std::string_view(arena).substr(
                    start, msg_ends[j] - start);
                start = msg_ends[j];
              }
              hasher.PositionBlock(messages.data(), messages.size(),
                                   wmd_size, positions.data());
              for (size_t j = 0; j < msg_ends.size(); ++j) {
                (vote_ones[j] != 0 ? shard.ones[positions[j]]
                                   : shard.zeros[positions[j]]) += 1.0;
                ++shard.slots_read;
              }
            }
            return shard;
          },
          watermark_internal::MergeVotes));
  FoldVotes(votes, wm_size, wmd_size, &report);
  return report;
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
