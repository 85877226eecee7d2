// The one watermark skeleton behind both schemes. Not part of the public API.
//
// The hierarchical scheme (Sec. 5.3, Fig. 9) and the single-level "direct
// way" (Sec. 5.2) differ only at one (tuple, column) slot. Everything else
// lives here, once: pool setup and row sharding, Eq. (5) selection in
// IdentBlock row blocks, label resolution, the tuple/slot bookkeeping and
// its position-message arena, batched wmd position hashing, the write and
// vote tallies with their shard-order merges, copies/wmd sizing and the
// report fields. Each scheme passes a `Rules` value holding `const W& wm`
// (the watermarker), a default-constructible per-shard `Scratch`, and
// three slot rules:
//
//   resolve  SlotKind Resolve(size_t c, NodeId node, NodeId* top) const
//            What the cell of quasi-identifying column c, resolved to
//            ultimate node `node`, is worth (see SlotKind); `*top` is kept
//            in the slot. One rule drives both EstimateBandwidth and the
//            copies = 0 auto-sizing, so the two cannot drift.
//   write    SlotWrite Write(const EmbedSlot&, bool bit, string_view ident,
//                            string_view column, WatermarkHasher*,
//                            Scratch*) const
//            The node the slot's cell must hold to carry `bit`.
//   read     SlotVote Read(size_t c, const Value& cell, Scratch*) const
//            The scheme's key-independent slot read.
//
// Rules are template parameters: a slot costs a direct, inlinable call.
// Every pass shards over contiguous row (or selected-tuple) ranges and
// merges per-shard partials in shard order, so any worker count produces
// the serial bytes.

#ifndef PRIVMARK_WATERMARK_EMBED_INTERNAL_H_
#define PRIVMARK_WATERMARK_EMBED_INTERNAL_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "common/parallel.h"
#include "relation/table.h"
#include "relation/value.h"
#include "watermark/detect_index.h"
#include "watermark/hierarchical.h"
#include "watermark/watermark_key.h"

namespace privmark {
namespace watermark_internal {

/// \brief What a scheme's resolve rule makes of one resolved cell.
enum class SlotKind : uint8_t {
  /// Carries no bit (the Sec. 5.2 zero-gap case): counted in
  /// slots_skipped_no_gap and not recorded.
  kNoGap,
  /// Recorded for the write pass but not counted as bandwidth: it can
  /// carry only one bit value (single-level: one sibling parity).
  kPartial,
  /// Recorded and counted as bandwidth.
  kFull,
};

/// \brief One recorded (tuple, column) slot.
struct EmbedSlot {
  size_t col_idx;  // index into qi_columns, not the schema
  NodeId node;     // the cell's resolved ultimate node
  NodeId top;      // Resolve's out-value (hierarchical: the maximal node)
};

/// \brief A write rule's verdict for one slot and bit.
struct SlotWrite {
  /// The node the cell must hold; kInvalidNode when the slot cannot carry
  /// this bit (counted in slots_skipped_no_gap).
  NodeId target;
  /// Whether the slot carried the bit (counted in slots_embedded).
  bool carried;
};

inline Status ValidateEta(const WatermarkKey& key) {
  if (key.eta == 0) {
    return Status::InvalidArgument("watermark key: eta must be positive");
  }
  return Status::OK();
}

inline Status ValidateDetectSizes(size_t wm_size, size_t wmd_size) {
  if (wm_size == 0 || wmd_size == 0 || wmd_size % wm_size != 0) {
    return Status::InvalidArgument(
        "Detect: wmd_size must be a positive multiple of wm_size");
  }
  return Status::OK();
}

/// \brief The text of a cell (an identifier or a label), by reference for
/// string cells (the overwhelmingly common case) and via `scratch`
/// otherwise.
inline std::string_view CellText(const Value& cell, std::string* scratch) {
  if (cell.type() == ValueType::kString) return cell.AsString();
  *scratch = cell.ToString();
  return *scratch;
}

/// \brief One row block's identifier texts plus their batched Eq. (5)
/// selection bits. Every row scan walks blocks of kRows rows through
/// Load() so selection hashes go through the multi-buffer kernel in full
/// lane groups instead of one KeyedHash64 per tuple. Values are identical
/// to per-row IsTupleSelected.
class IdentBlock {
 public:
  static constexpr size_t kRows = WatermarkHasher::kBlockRows;

  /// \brief Gathers idents for rows [begin, begin + n) (n <= kRows) and
  /// runs one batched selection. Views stay valid until the next Load().
  void Load(const Table& table, size_t ident_column, size_t begin, size_t n,
            WatermarkHasher* hasher) {
    for (size_t i = 0; i < n; ++i) {
      idents_[i] = CellText(table.at(begin + i, ident_column), &scratch_[i]);
    }
    hasher->SelectBlock(idents_, n, selected_);
  }

  const std::string_view* idents() const { return idents_; }
  const uint8_t* selected() const { return selected_; }

 private:
  std::string_view idents_[kRows];
  uint8_t selected_[kRows];
  std::string scratch_[kRows];  // backing for non-string identifier cells
};

/// \brief Position-hash messages ("pos:" ident ":" column) appended back
/// to back: message i is bytes[(i == 0 ? 0 : ends[i-1]) .. ends[i]).
/// Slots assemble their message once, so one PositionBlock call hashes a
/// whole run of slots without re-concatenating per slot.
struct MessageArena {
  std::string bytes;
  std::vector<size_t> ends;

  size_t size() const { return ends.size(); }
  void clear() {
    bytes.clear();
    ends.clear();
  }
  void Append(std::string_view ident, std::string_view column) {
    WatermarkHasher::AppendPositionMessage(ident, column, &bytes);
    ends.push_back(bytes.size());
  }
  std::string_view at(size_t i) const {
    const size_t begin = i == 0 ? 0 : ends[i - 1];
    return std::string_view(bytes).substr(begin, ends[i] - begin);
  }
  /// \brief Shard-order concatenation: `next`'s first message starts
  /// exactly where these bytes end.
  void Merge(MessageArena&& next) {
    const size_t offset = bytes.size();
    bytes += next.bytes;
    ends.reserve(ends.size() + next.ends.size());
    for (size_t end : next.ends) ends.push_back(end + offset);
  }
  /// \brief wmd positions of messages [from, to) in one batched call;
  /// `views` is reusable scratch. Call only once the arena stops growing
  /// (views into a growing string would dangle).
  void Positions(size_t from, size_t to, size_t wmd_size,
                 WatermarkHasher* hasher, std::vector<std::string_view>* views,
                 std::vector<size_t>* out) const {
    views->resize(to - from);
    out->resize(to - from);
    for (size_t i = from; i < to; ++i) (*views)[i - from] = at(i);
    hasher->PositionBlock(views->data(), views->size(), wmd_size, out->data());
  }
};

/// \brief One selected tuple with its slots as a [slot_begin, slot_end)
/// range into the flat slot vector. The identifier is copied once per
/// *selected* tuple (~1/eta of rows) so the write pass needs no table
/// access to hash.
struct SelectedTuple {
  size_t row;
  std::string ident;
  size_t slot_begin;
  size_t slot_end;
};

/// \brief One row-shard's resolve walk: its selected tuples and slots
/// (slot ranges relative to the shard until merged) plus counters.
struct ResolvedShard {
  std::vector<SelectedTuple> tuples;
  std::vector<EmbedSlot> slots;
  MessageArena messages;  // one per slot
  size_t tuples_selected = 0;
  size_t slots_skipped_no_gap = 0;
  size_t bandwidth = 0;
};

/// \brief Shard-order merge for ResolvedShard: rebases the incoming slot
/// ranges and message offsets onto the accumulated ones and appends.
inline void MergeResolve(ResolvedShard* acc, ResolvedShard&& shard) {
  const size_t offset = acc->slots.size();
  acc->tuples.reserve(acc->tuples.size() + shard.tuples.size());
  for (SelectedTuple& tuple : shard.tuples) {
    tuple.slot_begin += offset;
    tuple.slot_end += offset;
    acc->tuples.push_back(std::move(tuple));
  }
  acc->slots.insert(acc->slots.end(), shard.slots.begin(), shard.slots.end());
  acc->messages.Merge(std::move(shard.messages));
  acc->tuples_selected += shard.tuples_selected;
  acc->slots_skipped_no_gap += shard.slots_skipped_no_gap;
  acc->bandwidth += shard.bandwidth;
}

/// \brief One tuple-shard's write-pass tally. `moves` is filled only when
/// the caller asked for them; shards concatenate in shard order, so the
/// merged list is the serial one.
struct WriteTally {
  size_t slots_embedded = 0;
  size_t slots_skipped_no_gap = 0;
  size_t cells_changed = 0;
  std::vector<CellMove> moves;
};

inline void MergeWrites(WriteTally* acc, WriteTally&& tally) {
  acc->slots_embedded += tally.slots_embedded;
  acc->slots_skipped_no_gap += tally.slots_skipped_no_gap;
  acc->cells_changed += tally.cells_changed;
  acc->moves.insert(acc->moves.end(), tally.moves.begin(), tally.moves.end());
}

/// \brief One row-shard's detection tally: votes per wmd position plus
/// counters. Every voting slot adds exactly 1.0, so per-shard sums merged
/// in shard order reproduce the serial totals bit for bit (whole-valued
/// doubles are closed under addition well past any realistic row count).
struct VoteShard {
  std::vector<double> zeros;
  std::vector<double> ones;
  size_t tuples_selected = 0;
  size_t slots_read = 0;
  size_t slots_skipped = 0;

  explicit VoteShard(size_t wmd_size = 0)
      : zeros(wmd_size, 0.0), ones(wmd_size, 0.0) {}
};

inline void MergeVotes(VoteShard* acc, VoteShard&& shard) {
  for (size_t pos = 0; pos < acc->zeros.size(); ++pos) {
    acc->zeros[pos] += shard.zeros[pos];
    acc->ones[pos] += shard.ones[pos];
  }
  acc->tuples_selected += shard.tuples_selected;
  acc->slots_read += shard.slots_read;
  acc->slots_skipped += shard.slots_skipped;
}

/// \brief The fused Detect's single-key vote loop. Per row block it
/// reads every voting slot first, appending its position message to an
/// arena, then batch-hashes all positions at once and applies the votes.
/// Buffers are reused across blocks.
class VoteTally {
 public:
  VoteTally(WatermarkHasher* hasher, const std::vector<std::string>* columns,
            size_t wmd_size, VoteShard* shard)
      : hasher_(hasher), columns_(columns), wmd_size_(wmd_size),
        shard_(shard) {}

  /// \brief Tallies rows [begin, begin + n): row begin + i has identifier
  /// idents[i] and votes iff selected[i]; vote_of(row, c) is its slot
  /// outcome in quasi-identifying column c.
  template <typename VoteOf>
  void Block(size_t begin, size_t n, const std::string_view* idents,
             const uint8_t* selected, const VoteOf& vote_of) {
    arena_.clear();
    vote_ones_.clear();
    for (size_t i = 0; i < n; ++i) {
      if (selected[i] == 0) continue;
      ++shard_->tuples_selected;
      for (size_t c = 0; c < columns_->size(); ++c) {
        const SlotVote vote = vote_of(begin + i, c);
        if (vote == SlotVote::kSkip) {
          ++shard_->slots_skipped;
          continue;
        }
        arena_.Append(idents[i], (*columns_)[c]);
        vote_ones_.push_back(vote == SlotVote::kOne ? 1 : 0);
      }
    }
    arena_.Positions(0, arena_.size(), wmd_size_, hasher_, &views_,
                     &positions_);
    for (size_t j = 0; j < vote_ones_.size(); ++j) {
      (vote_ones_[j] != 0 ? shard_->ones[positions_[j]]
                          : shard_->zeros[positions_[j]]) += 1.0;
      ++shard_->slots_read;
    }
  }

 private:
  WatermarkHasher* hasher_;
  const std::vector<std::string>* columns_;
  size_t wmd_size_;
  VoteShard* shard_;
  MessageArena arena_;
  std::vector<uint8_t> vote_ones_;
  std::vector<std::string_view> views_;
  std::vector<size_t> positions_;
};

inline std::vector<std::string> ColumnNames(const Table& table,
                                            const std::vector<size_t>& cols) {
  std::vector<std::string> names;
  names.reserve(cols.size());
  for (size_t col : cols) names.push_back(table.schema().column(col).name);
  return names;
}

/// \brief The resolve walk over rows [begin, end): one Eq. (5) selection
/// per row and, per selected (tuple, column), one label resolution and one
/// Resolve rule. With `record` (Embed's first pass) it records tuples,
/// slots and position messages and fails on a label outside the domain;
/// without (EstimateBandwidth) it only counts and skips such labels.
template <typename Rules>
Result<ResolvedShard> ResolveRows(const Rules& rules, const Table& table,
                                  const std::vector<std::string>& columns,
                                  size_t begin, size_t end, bool record) {
  const auto& wm = rules.wm;
  const std::vector<size_t>& qi_columns = wm.qi_columns();
  ResolvedShard shard;
  WatermarkHasher hasher(wm.key(), wm.options().hash);
  IdentBlock block;
  std::string label;
  for (size_t b = begin; b < end; b += IdentBlock::kRows) {
    const size_t n = std::min(IdentBlock::kRows, end - b);
    block.Load(table, wm.ident_column(), b, n, &hasher);
    for (size_t i = 0; i < n; ++i) {
      if (block.selected()[i] == 0) continue;
      const size_t r = b + i;
      const std::string_view ident = block.idents()[i];
      ++shard.tuples_selected;
      const size_t slot_begin = shard.slots.size();
      for (size_t c = 0; c < qi_columns.size(); ++c) {
        Result<NodeId> node = wm.ultimate()[c].NodeForLabel(
            CellText(table.at(r, qi_columns[c]), &label));
        if (!node.ok()) {
          if (record) return node.status();
          continue;
        }
        NodeId top = kInvalidNode;
        const SlotKind kind = rules.Resolve(c, *node, &top);
        if (kind == SlotKind::kNoGap) {
          ++shard.slots_skipped_no_gap;
          continue;
        }
        if (kind == SlotKind::kFull) ++shard.bandwidth;
        if (!record) continue;
        shard.slots.push_back(EmbedSlot{c, *node, top});
        shard.messages.Append(ident, columns[c]);
      }
      if (record) {
        shard.tuples.push_back(SelectedTuple{r, std::string(ident), slot_begin,
                                             shard.slots.size()});
      }
    }
  }
  return shard;
}

template <typename Rules>
Result<size_t> EstimateBandwidth(const Rules& rules, const Table& table) {
  const auto& wm = rules.wm;
  PRIVMARK_RETURN_NOT_OK(ValidateEta(wm.key()));
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* const pool =
      PoolOrMake(wm.options().pool, wm.options().num_threads, &owned_pool);
  const std::vector<std::string> columns =
      ColumnNames(table, wm.qi_columns());
  return ParallelReduce<size_t>(
      pool, table.num_rows(), size_t{0},
      [&](size_t, size_t begin, size_t end) -> Result<size_t> {
        PRIVMARK_ASSIGN_OR_RETURN(
            ResolvedShard shard,
            ResolveRows(rules, table, columns, begin, end, /*record=*/false));
        return shard.bandwidth;
      },
      [](size_t* acc, size_t&& slots) { *acc += slots; });
}

/// \brief Embed in two passes. Pass 1 (resolve) pays one Eq. (5) hash per
/// row and one label resolution per (selected tuple, column). Pass 2
/// (write) walks only the recorded slots: it batch-hashes each shard's
/// contiguous slot range up front, then applies the write rule per slot
/// and writes a label back only when the target differs from the cell's
/// node. Every tuple writes only its own row, so writes are disjoint
/// across workers.
template <typename Rules>
Result<EmbedReport> Embed(const Rules& rules, Table* table,
                          const BitVector& mark, size_t copies,
                          std::vector<CellMove>* moves) {
  if (mark.empty()) {
    return Status::InvalidArgument("Embed: empty watermark");
  }
  const auto& wm = rules.wm;
  PRIVMARK_RETURN_NOT_OK(ValidateEta(wm.key()));
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* const pool =
      PoolOrMake(wm.options().pool, wm.options().num_threads, &owned_pool);
  const std::vector<std::string> columns =
      ColumnNames(*table, wm.qi_columns());

  PRIVMARK_ASSIGN_OR_RETURN(
      ResolvedShard resolved,
      ParallelReduce<ResolvedShard>(
          pool, table->num_rows(), ResolvedShard{},
          [&](size_t, size_t begin, size_t end) {
            return ResolveRows(rules, *table, columns, begin, end,
                               /*record=*/true);
          },
          MergeResolve));

  EmbedReport report;
  report.tuples_selected = resolved.tuples_selected;
  if (copies == 0) {
    copies = std::max<size_t>(1, resolved.bandwidth / mark.size());
  }
  report.copies = copies;
  const BitVector wmd = mark.Duplicate(copies);
  report.wmd_size = wmd.size();

  PRIVMARK_ASSIGN_OR_RETURN(
      WriteTally tally,
      ParallelReduce<WriteTally>(
          pool, resolved.tuples.size(), WriteTally{},
          [&](size_t, size_t begin, size_t end) -> Result<WriteTally> {
            WriteTally shard;
            if (begin == end) return shard;
            WatermarkHasher hasher(wm.key(), wm.options().hash);
            typename Rules::Scratch scratch;
            const size_t slot0 = resolved.tuples[begin].slot_begin;
            const size_t slot1 = resolved.tuples[end - 1].slot_end;
            std::vector<std::string_view> views;
            std::vector<size_t> positions;
            resolved.messages.Positions(slot0, slot1, wmd.size(), &hasher,
                                        &views, &positions);
            for (size_t t = begin; t < end; ++t) {
              const SelectedTuple& tuple = resolved.tuples[t];
              for (size_t i = tuple.slot_begin; i < tuple.slot_end; ++i) {
                const EmbedSlot& slot = resolved.slots[i];
                const SlotWrite write = rules.Write(
                    slot, wmd.Get(positions[i - slot0]), tuple.ident,
                    columns[slot.col_idx], &hasher, &scratch);
                if (write.target == kInvalidNode) {
                  ++shard.slots_skipped_no_gap;
                  continue;
                }
                if (write.carried) ++shard.slots_embedded;
                if (write.target == slot.node) continue;
                const DomainHierarchy& tree =
                    *wm.ultimate()[slot.col_idx].tree();
                table->Set(tuple.row, wm.qi_columns()[slot.col_idx],
                           Value::String(tree.node(write.target).label));
                ++shard.cells_changed;
                if (moves != nullptr) {
                  shard.moves.push_back(
                      CellMove{tuple.row, slot.col_idx, slot.node,
                               write.target});
                }
              }
            }
            return shard;
          },
          MergeWrites));
  report.slots_embedded = tally.slots_embedded;
  report.slots_skipped_no_gap =
      resolved.slots_skipped_no_gap + tally.slots_skipped_no_gap;
  report.cells_changed = tally.cells_changed;
  if (moves != nullptr) *moves = std::move(tally.moves);
  return report;
}

/// \brief The fused single-key Detect: reads slots only for the ~1/eta
/// selected rows of each block, then folds the merged votes.
template <typename Rules>
Result<DetectReport> Detect(const Rules& rules, const Table& table,
                            size_t wm_size, size_t wmd_size) {
  PRIVMARK_RETURN_NOT_OK(ValidateDetectSizes(wm_size, wmd_size));
  const auto& wm = rules.wm;
  PRIVMARK_RETURN_NOT_OK(ValidateEta(wm.key()));
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* const pool =
      PoolOrMake(wm.options().pool, wm.options().num_threads, &owned_pool);
  const std::vector<size_t>& qi_columns = wm.qi_columns();
  const std::vector<std::string> columns = ColumnNames(table, qi_columns);
  PRIVMARK_ASSIGN_OR_RETURN(
      VoteShard votes,
      ParallelReduce<VoteShard>(
          pool, table.num_rows(), VoteShard(wmd_size),
          [&](size_t, size_t begin, size_t end) -> Result<VoteShard> {
            VoteShard shard(wmd_size);
            WatermarkHasher hasher(wm.key(), wm.options().hash);
            IdentBlock block;
            typename Rules::Scratch scratch;
            VoteTally tally(&hasher, &columns, wmd_size, &shard);
            for (size_t b = begin; b < end; b += IdentBlock::kRows) {
              const size_t n = std::min(IdentBlock::kRows, end - b);
              block.Load(table, wm.ident_column(), b, n, &hasher);
              tally.Block(b, n, block.idents(), block.selected(),
                          [&](size_t r, size_t c) {
                            return rules.Read(c, table.at(r, qi_columns[c]),
                                              &scratch);
                          });
            }
            return shard;
          },
          MergeVotes));
  DetectReport report;
  FoldVotes(votes, wm_size, wmd_size, &report);
  return report;
}

/// \brief One row-shard of the index build: its slot outcomes plus
/// identifier bytes and per-row lengths (offsets are prefix-summed after
/// the merge).
struct IndexShard {
  std::vector<SlotVote> slots;
  std::string ident_bytes;
  std::vector<size_t> ident_sizes;
};

inline void MergeIndex(IndexShard* acc, IndexShard&& shard) {
  acc->slots.insert(acc->slots.end(), shard.slots.begin(), shard.slots.end());
  acc->ident_bytes += shard.ident_bytes;
  acc->ident_sizes.insert(acc->ident_sizes.end(), shard.ident_sizes.begin(),
                          shard.ident_sizes.end());
}

/// \brief BuildDetectIndex: the read rule over every (row, column) slot,
/// with every row's identifier text.
template <typename Rules>
Result<DetectIndex> BuildIndex(const Rules& rules, const Table& table) {
  const auto& wm = rules.wm;
  const std::vector<size_t>& qi_columns = wm.qi_columns();
  const size_t num_cols = qi_columns.size();
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* const pool =
      PoolOrMake(wm.options().pool, wm.options().num_threads, &owned_pool);
  PRIVMARK_ASSIGN_OR_RETURN(
      IndexShard merged,
      ParallelReduce<IndexShard>(
          pool, table.num_rows(), IndexShard{},
          [&](size_t, size_t begin, size_t end) -> Result<IndexShard> {
            IndexShard shard;
            shard.slots.reserve((end - begin) * num_cols);
            shard.ident_sizes.reserve(end - begin);
            std::string text;
            typename Rules::Scratch scratch;
            for (size_t r = begin; r < end; ++r) {
              const std::string_view ident =
                  CellText(table.at(r, wm.ident_column()), &text);
              shard.ident_bytes.append(ident.data(), ident.size());
              shard.ident_sizes.push_back(ident.size());
              for (size_t c = 0; c < num_cols; ++c) {
                shard.slots.push_back(
                    rules.Read(c, table.at(r, qi_columns[c]), &scratch));
              }
            }
            return shard;
          },
          MergeIndex));

  DetectIndex index;
  index.num_rows = table.num_rows();
  index.column_names = ColumnNames(table, qi_columns);
  index.slots = std::move(merged.slots);
  index.ident_bytes = std::move(merged.ident_bytes);
  index.ident_offsets.resize(index.num_rows + 1, 0);
  for (size_t r = 0; r < index.num_rows; ++r) {
    index.ident_offsets[r + 1] = index.ident_offsets[r] + merged.ident_sizes[r];
  }
  return index;
}

}  // namespace watermark_internal
}  // namespace privmark

#endif  // PRIVMARK_WATERMARK_EMBED_INTERNAL_H_
