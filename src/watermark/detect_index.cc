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
// kernel (AVX-512) runs 16 lanes: each key's selection call per row block
// is already 64 idents, four full 16-lane groups.
constexpr size_t kKeyLanes = 8;

// Rows per position-hash span: every key's queued position messages are
// hashed in one single-key call per span, so the message arena holds one
// span's messages at most, whatever the shard size.
constexpr size_t kSpanRows = 16 * WatermarkHasher::kBlockRows;

// The multi-key twin of the fused Detect's VoteTally loop: tallies rows
// [begin, end) for `num_keys` (<= kKeyLanes) keys at once into
// shards[0..num_keys). Amortizes per-row work across the whole group:
// identifier views are gathered once per row block and hashed per key in
// one single-key call, and each voting (row, column) position message is
// assembled once, queued for every selecting key, and hashed per key once
// per span. Per key the values, counters, and tallies are identical to a
// single-key VoteTally pass.
void TallyRowsMultiKey(const DetectIndex& index, const WatermarkKey* keys,
                       size_t num_keys, HashAlgorithm algo, size_t wmd_size,
                       size_t begin, size_t end, VoteShard* shards) {
  const size_t num_cols = index.num_columns();
  constexpr size_t kRows = WatermarkHasher::kBlockRows;
  std::vector<SelectionRule> rules;
  rules.reserve(num_keys);
  for (size_t k = 0; k < num_keys; ++k) rules.emplace_back(keys[k].eta);
  std::string_view idents[kRows];
  uint64_t sel_hashes[kRows];
  uint8_t selected[kKeyLanes * kRows];  // [key * kRows + row-in-block]
  watermark_internal::MessageArena arena;  // the span's position messages
  std::vector<uint32_t> queued[kKeyLanes];  // arena index << 1 | vote bit
  std::vector<std::string_view> views;
  std::vector<uint64_t> pos_hashes;
  for (size_t span = begin; span < end; span += kSpanRows) {
    const size_t span_end = std::min(end, span + kSpanRows);
    arena.clear();
    for (size_t b = span; b < span_end; b += kRows) {
      const size_t n = std::min(kRows, span_end - b);
      for (size_t i = 0; i < n; ++i) idents[i] = index.ident(b + i);
      for (size_t k = 0; k < num_keys; ++k) {
        KeyedHash64Batch(algo, keys[k].k1, idents, n, sel_hashes);
        for (size_t i = 0; i < n; ++i) {
          selected[k * kRows + i] = rules[k].Selects(sel_hashes[i]) ? 1 : 0;
        }
      }
      // Assemble each voting (row, column) message once, for rows any key
      // selected, and queue it for every key that selected the row.
      for (size_t i = 0; i < n; ++i) {
        bool any = false;
        for (size_t k = 0; k < num_keys && !any; ++k) {
          any = selected[k * kRows + i] != 0;
        }
        if (!any) continue;
        const SlotVote* votes = &index.slots[(b + i) * num_cols];
        const uint32_t first = static_cast<uint32_t>(arena.size());
        for (size_t c = 0; c < num_cols; ++c) {
          if (votes[c] != SlotVote::kSkip) {
            arena.Append(idents[i], index.column_names[c]);
          }
        }
        for (size_t k = 0; k < num_keys; ++k) {
          if (selected[k * kRows + i] == 0) continue;
          ++shards[k].tuples_selected;
          uint32_t message = first;
          for (size_t c = 0; c < num_cols; ++c) {
            if (votes[c] == SlotVote::kSkip) {
              ++shards[k].slots_skipped;
              continue;
            }
            queued[k].push_back(message++ << 1 |
                                (votes[c] == SlotVote::kOne ? 1u : 0u));
          }
        }
      }
    }
    for (size_t k = 0; k < num_keys; ++k) {
      std::vector<uint32_t>& queue = queued[k];
      views.resize(queue.size());
      pos_hashes.resize(queue.size());
      for (size_t j = 0; j < queue.size(); ++j) {
        views[j] = arena.at(queue[j] >> 1);
      }
      KeyedHash64Batch(algo, keys[k].k2, views.data(), views.size(),
                       pos_hashes.data());
      VoteShard& shard = shards[k];
      for (size_t j = 0; j < queue.size(); ++j) {
        const size_t pos = static_cast<size_t>(pos_hashes[j] % wmd_size);
        ((queue[j] & 1) != 0 ? shard.ones[pos] : shard.zeros[pos]) += 1.0;
      }
      shard.slots_read += queue.size();
      queue.clear();
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
