// Internal helpers shared by the watermark embedders/detectors
// (hierarchical.cc, single_level.cc). Not part of the public API: both
// schemes walk rows the same way — resolve the identifier by reference,
// gate on Eq. (5) selection, record per-(tuple, column) slots in a
// resolve pass, then hash and write in a second pass — and these pieces
// must not drift apart between them.
//
// Both passes shard over contiguous row (resp. tuple) ranges; the
// per-shard partial results below merge in shard order so parallel
// embed/detect is byte-identical to serial for any worker count.

#ifndef PRIVMARK_WATERMARK_EMBED_INTERNAL_H_
#define PRIVMARK_WATERMARK_EMBED_INTERNAL_H_

#include <cstddef>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "relation/table.h"
#include "relation/value.h"
#include "watermark/hierarchical.h"
#include "watermark/watermark_key.h"

namespace privmark {
namespace watermark_internal {

/// \brief The identifier text of a cell, by reference for string cells
/// (the overwhelmingly common case: binned tables hold encrypted
/// identifiers as strings) and via `scratch` otherwise.
inline std::string_view IdentText(const Value& cell, std::string* scratch) {
  if (cell.type() == ValueType::kString) return cell.AsString();
  *scratch = cell.ToString();
  return *scratch;
}

/// \brief One row block's identifier texts plus their batched Eq. (5)
/// selection bits. Every row scan (bandwidth pre-pass, embed resolve,
/// detect) walks blocks of kRows rows through Load() so selection hashes
/// go through the multi-buffer kernel in full lane groups instead of one
/// KeyedHash64 per tuple. Values are identical to per-row TupleSelected.
class IdentBlock {
 public:
  static constexpr size_t kRows = WatermarkHasher::kBlockRows;

  /// \brief Gathers idents for rows [begin, begin + n) (n <= kRows) and
  /// runs one batched selection. Views stay valid until the next Load().
  void Load(const Table& table, size_t ident_column, size_t begin, size_t n,
            WatermarkHasher* hasher) {
    n_ = n;
    for (size_t i = 0; i < n; ++i) {
      idents_[i] = IdentText(table.at(begin + i, ident_column), &scratch_[i]);
    }
    hasher->SelectBlock(idents_, n, selected_);
  }

  size_t size() const { return n_; }
  std::string_view ident(size_t i) const { return idents_[i]; }
  bool selected(size_t i) const { return selected_[i] != 0; }

 private:
  size_t n_ = 0;
  std::string_view idents_[kRows];
  uint8_t selected_[kRows];
  std::string scratch_[kRows];  // backing for non-string identifier cells
};

/// \brief One selected tuple with its slots as a [slot_begin, slot_end)
/// range into the embedder's flat slot vector. The identifier is copied
/// once per *selected* tuple (~1/eta of rows) so slot hashing in the
/// write phase needs no table access.
struct SelectedTuple {
  size_t row;
  std::string ident;
  size_t slot_begin;
  size_t slot_end;
};

/// \brief One row-shard's resolve-pass output: its selected tuples (slot
/// ranges relative to the shard's own slot vector until merged) plus the
/// shard's counters. SlotT is each scheme's slot record.
template <typename SlotT>
struct ResolvedShard {
  std::vector<SelectedTuple> tuples;
  std::vector<SlotT> slots;
  /// Position-hash messages ("pos:" ident ":" column), one per slot,
  /// appended back to back: slot i's bytes are
  /// pos_bytes[(i == 0 ? 0 : pos_ends[i-1]) .. pos_ends[i]). Assembled
  /// once in the resolve pass so the write pass batch-hashes whole shards
  /// of slots without re-concatenating per slot.
  std::string pos_bytes;
  std::vector<size_t> pos_ends;
  size_t tuples_selected = 0;
  size_t slots_skipped_no_gap = 0;
  size_t bandwidth = 0;

  std::string_view pos_msg(size_t slot) const {
    const size_t begin = slot == 0 ? 0 : pos_ends[slot - 1];
    return std::string_view(pos_bytes).substr(begin, pos_ends[slot] - begin);
  }
};

/// \brief Shard-order merge for ResolvedShard: rebases the incoming slot
/// ranges onto the accumulated slot vector and appends. Counters are
/// integer sums, so the merged result is identical for any shard count.
template <typename SlotT>
void MergeResolve(ResolvedShard<SlotT>* acc, ResolvedShard<SlotT>&& shard) {
  const size_t offset = acc->slots.size();
  acc->tuples.reserve(acc->tuples.size() + shard.tuples.size());
  for (SelectedTuple& tuple : shard.tuples) {
    tuple.slot_begin += offset;
    tuple.slot_end += offset;
    acc->tuples.push_back(std::move(tuple));
  }
  acc->slots.insert(acc->slots.end(),
                    std::make_move_iterator(shard.slots.begin()),
                    std::make_move_iterator(shard.slots.end()));
  // Concatenating the arenas keeps the pos_msg invariant: the incoming
  // shard's first message starts exactly where the accumulated bytes end.
  const size_t byte_offset = acc->pos_bytes.size();
  acc->pos_bytes += shard.pos_bytes;
  acc->pos_ends.reserve(acc->pos_ends.size() + shard.pos_ends.size());
  for (size_t end : shard.pos_ends) {
    acc->pos_ends.push_back(end + byte_offset);
  }
  acc->tuples_selected += shard.tuples_selected;
  acc->slots_skipped_no_gap += shard.slots_skipped_no_gap;
  acc->bandwidth += shard.bandwidth;
}

/// \brief One tuple-shard's write-pass tally. `moves` is filled only when
/// the caller asked for them; shards concatenate in shard order, so the
/// merged list is the serial one.
struct WriteTally {
  size_t slots_embedded = 0;
  size_t slots_skipped_no_gap = 0;  // single-level: empty parity candidates
  size_t cells_changed = 0;
  std::vector<CellMove> moves;
};

inline void MergeWrites(WriteTally* acc, WriteTally&& tally) {
  acc->slots_embedded += tally.slots_embedded;
  acc->slots_skipped_no_gap += tally.slots_skipped_no_gap;
  acc->cells_changed += tally.cells_changed;
  acc->moves.insert(acc->moves.end(), tally.moves.begin(), tally.moves.end());
}

/// \brief One row-shard's detection tally: weighted votes per wmd
/// position plus counters. Vote accumulation adds 1.0 per voting slot, so
/// per-shard sums merged in shard order reproduce the serial totals
/// exactly (whole-valued doubles are closed under addition well past any
/// realistic row count).
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

}  // namespace watermark_internal
}  // namespace privmark

#endif  // PRIVMARK_WATERMARK_EMBED_INTERNAL_H_
