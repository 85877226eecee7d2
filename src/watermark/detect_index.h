// Key-independent detection substrate for multi-key fingerprint scans.
//
// Detection splits cleanly in two along Eq. (5). Everything the hierarchy
// contributes — label resolution, the walk to the maximal node, the
// per-level parity majority — depends only on the *table*, while tuple
// selection (H(k1, ident) mod eta) and wmd positions (H(k2, ...)) depend
// only on the *key*. A DetectIndex materializes the key-independent half
// once: every (row, column) slot collapses to a SlotVote (skip / vote 0 /
// vote 1) and every row keeps its identifier text. MultiKeyTally then
// replays only the keyed-hash part, so scanning a registry of K candidate
// keys costs one resolve pass plus K cheap tallies instead of K full
// detections — the difference between minutes and hours at "thousands of
// candidate keys" scale. A single-key tally is MultiKeyTally over {key}.
//
// Determinism contract: tallies shard over contiguous row ranges exactly
// like the fused Detect(), merge per-shard VoteShards in shard order, and
// accumulate 1.0 per voting slot, so every report (margins, recovered
// bits, counters) is byte-identical to a serial one-key-at-a-time
// Detect() run for any thread count. MultiKeyTally flattens the
// (key x row-shard) grid into one fork-join batch; each task owns its
// (key, shard) cell, and cells merge per key in shard order.
//
// Hashing: a task walks its rows in 64-row blocks and hashes the block's
// idents under each key's k1 in one single-key KeyedHash64Batch call.
// Voting position messages are assembled once per row and queued per
// selecting key, then hashed under that key's k2 in one call per
// 1,024-row span, so a task's message arena holds one span's messages at
// most, whatever its shard size.

#ifndef PRIVMARK_WATERMARK_DETECT_INDEX_H_
#define PRIVMARK_WATERMARK_DETECT_INDEX_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relation/table.h"
#include "watermark/hierarchical.h"

namespace privmark {

class ThreadPool;

namespace watermark_internal {
struct VoteShard;
}  // namespace watermark_internal

/// \brief The key-independent half of detection over one table: per-slot
/// votes and per-row identifier texts, reusable across candidate keys.
struct DetectIndex {
  size_t num_rows = 0;
  /// Schema names of the quasi-identifying columns, in watermarker order
  /// (wmd positions hash the column name).
  std::vector<std::string> column_names;
  /// Row-major num_rows x column_names.size() slot outcomes.
  std::vector<SlotVote> slots;
  /// Identifier texts, concatenated; row r is
  /// ident_bytes[ident_offsets[r] .. ident_offsets[r + 1]).
  std::string ident_bytes;
  std::vector<size_t> ident_offsets;

  size_t num_columns() const { return column_names.size(); }

  std::string_view ident(size_t row) const {
    return std::string_view(ident_bytes)
        .substr(ident_offsets[row], ident_offsets[row + 1] -
                                        ident_offsets[row]);
  }
};

/// \brief Builds the index with the watermarker's ReadSlot() — the same
/// read rule the fused Detect() uses, defined beside it — sharded on the
/// watermarker's configured pool / thread count.
Result<DetectIndex> BuildDetectIndex(const HierarchicalWatermarker& wm,
                                     const Table& table);

/// \brief Streaming consumer of MultiKeyTally's per-block results:
/// invoked once per completed key block, in key order, on the calling
/// thread, with the block's first key index and its reports (a
/// contiguous key-order slice starting at `first_key`). Blocks are the
/// tally engine's existing memory-bounding unit, so streaming adds no
/// extra synchronization — each block is complete (merged across all
/// row shards) before the sink sees it.
using MultiKeyTallySink =
    std::function<void(size_t first_key, std::vector<DetectReport> block)>;

/// \brief Runs the keyed half of detection over a prebuilt index for
/// every key: selection, position hashing, vote tally, and the wmd -> wm
/// fold. Sharded across the flattened (key x row-shard) grid — with T
/// workers and K keys, all T stay busy even when K row-shards alone would
/// not saturate them. Keys are processed in bounded blocks so memory
/// stays O(threads x wmd), not O(K x wmd); reports come back in key
/// order, each byte-identical to the watermarker's Detect() under that
/// key on the same table.
///
/// With a `sink`, every block's reports are handed to it as soon as the
/// block completes and the returned vector is EMPTY — the sink owns the
/// reports, so a registry-scale caller never holds all K at once. The
/// concatenation of sink deliveries is element-identical to the no-sink
/// return value for the same thread count (same blocks, same order);
/// report *contents* are byte-identical across all thread counts either
/// way, only the block boundaries move.
Result<std::vector<DetectReport>> MultiKeyTally(
    const DetectIndex& index, const std::vector<WatermarkKey>& keys,
    HashAlgorithm algo, size_t wm_size, size_t wmd_size, ThreadPool* pool,
    const MultiKeyTallySink& sink = nullptr);

/// \brief Folds per-wmd-position vote tallies down to the wm-bit report
/// fields (copy t of bit j lives at j + t * wm_size). Shared by the fused
/// detectors and the tally engine.
void FoldVotes(const watermark_internal::VoteShard& votes, size_t wm_size,
               size_t wmd_size, DetectReport* report);

}  // namespace privmark

#endif  // PRIVMARK_WATERMARK_DETECT_INDEX_H_
