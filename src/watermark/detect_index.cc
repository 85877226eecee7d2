#include "watermark/detect_index.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "watermark/embed_internal.h"

namespace privmark {

namespace {

using watermark_internal::MergeVotes;
using watermark_internal::ValidateDetectSizes;
using watermark_internal::ValidateEta;
using watermark_internal::VoteShard;

// Keys per multi-key tally group. It also sets the streamed
// FingerprintShard boundaries, so it stays 8 although the widest SHA-1
// kernel (AVX-512) runs 16 lanes: one block's selection batch is already
// 8 keys x 64 rows = 512 inputs, 32 full 16-lane groups.
constexpr size_t kKeyLanes = 8;

// The multi-key twin of the fused Detect's VoteTally loop: tallies rows
// [begin, end) for `num_keys` (<= kKeyLanes) keys at once into
// shards[0..num_keys). Amortizes per-row work across the whole group —
// identifier views are gathered once, selection hashes for all (key, row)
// pairs of a block go through one batched call, and each voting
// (row, column) position message is assembled once and then hashed per
// selecting key. Per key the values, counters, and tallies are identical
// to a single-key VoteTally pass.
void TallyRowsMultiKey(const DetectIndex& index, const WatermarkKey* keys,
                       size_t num_keys, HashAlgorithm algo, size_t wmd_size,
                       size_t begin, size_t end, VoteShard* shards) {
  const size_t num_cols = index.num_columns();
  constexpr size_t kRows = WatermarkHasher::kBlockRows;
  std::string_view idents[kRows];
  std::vector<KeyedHashInput> sel_inputs;
  std::vector<uint64_t> sel_hashes;
  std::vector<uint8_t> selected;  // [key * kRows + row-in-block]
  watermark_internal::MessageArena arena;
  std::vector<int> msg_idx;  // [row-in-block * num_cols], -1 = no message
  std::vector<KeyedHashInput> pos_inputs;
  std::vector<uint64_t> pos_hashes;
  struct PendingVote {
    uint32_t key;
    uint8_t one;
  };
  std::vector<PendingVote> pending;
  for (size_t b = begin; b < end; b += kRows) {
    const size_t n = std::min(kRows, end - b);
    for (size_t i = 0; i < n; ++i) idents[i] = index.ident(b + i);

    // Selection for every (key, row) pair in one batch.
    sel_inputs.clear();
    for (size_t k = 0; k < num_keys; ++k) {
      for (size_t i = 0; i < n; ++i) {
        sel_inputs.push_back({keys[k].k1, idents[i]});
      }
    }
    sel_hashes.resize(sel_inputs.size());
    KeyedHash64Batch(algo, sel_inputs.data(), sel_inputs.size(),
                     sel_hashes.data());
    selected.assign(num_keys * kRows, 0);
    for (size_t k = 0; k < num_keys; ++k) {
      for (size_t i = 0; i < n; ++i) {
        selected[k * kRows + i] =
            sel_hashes[k * n + i] % keys[k].eta == 0 ? 1 : 0;
      }
    }

    // Assemble each voting (row, column) message once — for rows any key
    // selected — then hash it once per selecting key below.
    arena.clear();
    msg_idx.assign(n * num_cols, -1);
    for (size_t i = 0; i < n; ++i) {
      bool any = false;
      for (size_t k = 0; k < num_keys && !any; ++k) {
        any = selected[k * kRows + i] != 0;
      }
      if (!any) continue;
      const size_t r = b + i;
      for (size_t c = 0; c < num_cols; ++c) {
        if (index.slots[r * num_cols + c] == SlotVote::kSkip) continue;
        msg_idx[i * num_cols + c] = static_cast<int>(arena.size());
        arena.Append(idents[i], index.column_names[c]);
      }
    }

    pos_inputs.clear();
    pending.clear();
    for (size_t k = 0; k < num_keys; ++k) {
      for (size_t i = 0; i < n; ++i) {
        if (selected[k * kRows + i] == 0) continue;
        ++shards[k].tuples_selected;
        const size_t r = b + i;
        for (size_t c = 0; c < num_cols; ++c) {
          const SlotVote vote = index.slots[r * num_cols + c];
          if (vote == SlotVote::kSkip) {
            ++shards[k].slots_skipped;
            continue;
          }
          pos_inputs.push_back(
              {keys[k].k2, arena.at(msg_idx[i * num_cols + c])});
          pending.push_back({static_cast<uint32_t>(k),
                             vote == SlotVote::kOne ? uint8_t{1}
                                                    : uint8_t{0}});
        }
      }
    }
    pos_hashes.resize(pos_inputs.size());
    KeyedHash64Batch(algo, pos_inputs.data(), pos_inputs.size(),
                     pos_hashes.data());
    for (size_t j = 0; j < pending.size(); ++j) {
      const size_t pos = static_cast<size_t>(pos_hashes[j] % wmd_size);
      VoteShard& shard = shards[pending[j].key];
      (pending[j].one != 0 ? shard.ones[pos] : shard.zeros[pos]) += 1.0;
      ++shard.slots_read;
    }
  }
}

Status ValidateSizes(const std::vector<WatermarkKey>& keys, size_t wm_size,
                     size_t wmd_size) {
  PRIVMARK_RETURN_NOT_OK(ValidateDetectSizes(wm_size, wmd_size));
  for (const WatermarkKey& key : keys) {
    PRIVMARK_RETURN_NOT_OK(ValidateEta(key));
  }
  return Status::OK();
}

}  // namespace

void FoldVotes(const VoteShard& votes, size_t wm_size, size_t wmd_size,
               DetectReport* report) {
  report->tuples_selected = votes.tuples_selected;
  report->slots_read = votes.slots_read;
  report->slots_skipped = votes.slots_skipped;
  // Fold wmd votes down to wm bits: copy t of bit j lives at j + t*wm_size.
  report->recovered = BitVector(wm_size);
  report->vote_margin.assign(wm_size, 0.0);
  report->bit_voted.assign(wm_size, false);
  for (size_t j = 0; j < wm_size; ++j) {
    double zero_total = 0.0;
    double one_total = 0.0;
    for (size_t pos = j; pos < wmd_size; pos += wm_size) {
      zero_total += votes.zeros[pos];
      one_total += votes.ones[pos];
    }
    report->vote_margin[j] = one_total - zero_total;
    report->bit_voted[j] = (zero_total + one_total) > 0.0;
    report->recovered.Set(j, one_total > zero_total);
  }
}

Result<std::vector<DetectReport>> MultiKeyTally(
    const DetectIndex& index, const std::vector<WatermarkKey>& keys,
    HashAlgorithm algo, size_t wm_size, size_t wmd_size, ThreadPool* pool,
    const MultiKeyTallySink& sink) {
  PRIVMARK_RETURN_NOT_OK(ValidateSizes(keys, wm_size, wmd_size));
  std::vector<DetectReport> reports;
  if (sink == nullptr) reports.reserve(keys.size());

  const std::vector<ShardRange> shards =
      ShardRanges(index.num_rows, pool == nullptr ? 1 : pool->num_threads());
  const size_t num_shards = shards.size();
  if (num_shards == 0) {
    // Empty table: every key folds an empty tally (one block).
    for (size_t k = 0; k < keys.size(); ++k) {
      DetectReport report;
      FoldVotes(VoteShard(wmd_size), wm_size, wmd_size, &report);
      reports.push_back(std::move(report));
    }
    if (sink != nullptr && !reports.empty()) {
      sink(0, std::move(reports));
      reports.clear();
    }
    return reports;
  }

  // Keys tally in lane groups of kKeyLanes: a (group x shard) task walks
  // its rows once for all group keys (TallyRowsMultiKey), amortizing ident
  // gathering and position-message assembly K-fold. Groups are processed
  // in blocks so live VoteShards stay O(threads x kKeyLanes), not O(K) — a
  // thousands-of-keys scan must not hold thousands of wmd-sized tallies at
  // once. Within a block, task t owns its kKeyLanes-cell stripe and
  // nothing else, and each key's cells merge in shard order.
  const size_t num_threads = pool == nullptr ? 1 : pool->num_threads();
  const size_t num_groups = (keys.size() + kKeyLanes - 1) / kKeyLanes;
  const size_t group_block =
      pool == nullptr
          ? 1
          : std::max<size_t>(1, (4 * num_threads + num_shards - 1) /
                                    num_shards);
  std::vector<VoteShard> cells;
  for (size_t g0 = 0; g0 < num_groups; g0 += group_block) {
    const size_t block_groups = std::min(num_groups - g0, group_block);
    // Layout: cells[(gi * num_shards + s) * kKeyLanes + lane]; tail groups
    // leave their unused lane cells empty.
    cells.assign(block_groups * num_shards * kKeyLanes, VoteShard(wmd_size));
    const auto task = [&](size_t t) {
      const size_t gi = t / num_shards;
      const size_t s = t % num_shards;
      const size_t k0 = (g0 + gi) * kKeyLanes;
      const size_t group_keys = std::min(keys.size() - k0, kKeyLanes);
      TallyRowsMultiKey(index, keys.data() + k0, group_keys, algo, wmd_size,
                        shards[s].begin, shards[s].end,
                        &cells[(gi * num_shards + s) * kKeyLanes]);
    };
    if (pool == nullptr) {
      for (size_t t = 0; t < block_groups * num_shards; ++t) task(t);
    } else {
      pool->Run(block_groups * num_shards, task);
    }
    std::vector<DetectReport> block_reports;
    std::vector<DetectReport>& out = sink == nullptr ? reports : block_reports;
    for (size_t gi = 0; gi < block_groups; ++gi) {
      const size_t k0 = (g0 + gi) * kKeyLanes;
      const size_t group_keys = std::min(keys.size() - k0, kKeyLanes);
      for (size_t lane = 0; lane < group_keys; ++lane) {
        VoteShard votes(wmd_size);
        for (size_t s = 0; s < num_shards; ++s) {
          MergeVotes(&votes,
                     std::move(cells[(gi * num_shards + s) * kKeyLanes +
                                     lane]));
        }
        DetectReport report;
        FoldVotes(votes, wm_size, wmd_size, &report);
        out.push_back(std::move(report));
      }
    }
    // Stream the whole block at once: it is the unit already bounded for
    // memory, and its keys are contiguous from g0 * kKeyLanes.
    if (sink != nullptr) sink(g0 * kKeyLanes, std::move(block_reports));
  }
  return reports;
}

}  // namespace privmark
