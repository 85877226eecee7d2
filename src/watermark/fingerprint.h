// Multi-recipient fingerprinting: which key's mark does a suspect table
// carry?
//
// The owner embeds each recipient's copy under that recipient's key and,
// given a leaked table, scans it against the whole KeyRegistry. The scan
// builds one DetectIndex (the expensive, key-independent resolve pass)
// and re-runs only the keyed-hash tally per candidate key, sharded on the
// ThreadPool across (key x tuple-shard) — see detect_index.h for the
// determinism contract that keeps every per-key report byte-identical to
// a serial single-key Detect().
//
// Verdicts: with an expected mark (the owner knows F(v), Sec. 5.4), a key
// is "detected" when the recovered mark matches at least match_threshold
// of its bits — a wrong key's recovered mark agrees on ~50% of bits, so
// the default 0.8 separates cleanly, and the binomial-tail p-value
// quantifies the separation. Without an expected mark, detection falls
// back to internal vote agreement (margin_ratio): the right key's votes
// are near-unanimous per position, a wrong key's cancel out.
//
// Collusion: when rows from two recipients' copies are mixed, both keys
// still recover the (same, owner-derived) mark from their own rows, so
// both clear the threshold — the report flags that rather than pretending
// a single leaker exists, and the ranking orders contributors by score.

#ifndef PRIVMARK_WATERMARK_FINGERPRINT_H_
#define PRIVMARK_WATERMARK_FINGERPRINT_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/status.h"
#include "watermark/detect_index.h"
#include "watermark/key_registry.h"
#include "watermark/ownership.h"

namespace privmark {

/// \brief Parameters of a fingerprint scan.
struct FingerprintConfig {
  /// The mark / wmd sizes recorded at protection time (the manifest).
  size_t wm_size = 0;
  size_t wmd_size = 0;
  /// The owner-derived mark F(v); empty = unknown (verdicts then rank by
  /// internal vote agreement instead of mark match). When non-empty its
  /// size must equal wm_size.
  BitVector expected_mark;
  /// Detection threshold on the score (mark_match, or margin_ratio when
  /// no expected mark is given).
  double match_threshold = kDetectionMatchThreshold;
};

/// \brief One candidate key's outcome.
struct KeyVerdict {
  std::string key_name;
  /// The full single-key detection — byte-identical to a serial
  /// Detect() run under this key.
  DetectReport detection;
  /// Internal vote agreement: sum_j |vote_margin[j]| / slots_read, in
  /// [0, 1]. Near 1 when votes are unanimous per bit (the embedding
  /// key), near 0 when they cancel (a wrong key).
  double margin_ratio = 0.0;
  /// Fraction of expected-mark bits matching the recovered mark; 0 when
  /// no expected mark was given.
  double mark_match = 0.0;
  /// Binomial-tail significance vs. the expected mark; 1.0 without one.
  double p_value = 1.0;
  /// The ranking statistic: mark_match when an expected mark was given,
  /// margin_ratio otherwise.
  double score = 0.0;
  bool detected = false;
};

/// \brief The scan's outcome over a whole registry.
struct FingerprintReport {
  /// One verdict per registry key, in registry order.
  std::vector<KeyVerdict> verdicts;
  /// Indices into `verdicts`, best suspect first. Deterministic: ties on
  /// score break by p-value, then margin_ratio, then key name.
  std::vector<size_t> ranking;
  size_t keys_detected = 0;
  /// Two or more keys cleared the threshold — mixed-copy (collusion)
  /// evidence rather than a single leaker.
  bool collusion = false;
};

/// \brief One streamed slice of a scan: the verdicts for a contiguous
/// registry-order run of keys, complete and final the moment they are
/// emitted (per-key verdicts depend only on that key's tally, never on
/// the rest of the registry — only the report-level ranking and
/// collusion flag need the whole scan).
struct FingerprintShard {
  /// Caller-supplied stamp identifying which scan of a multi-scan run
  /// (e.g. which session epoch) this shard belongs to.
  size_t epoch = 0;
  /// Ordinal of this shard within its scan, counting from 0.
  size_t shard = 0;
  /// Registry index of verdicts.front(); the slice covers
  /// [first_key, first_key + verdicts.size()).
  size_t first_key = 0;
  std::vector<KeyVerdict> verdicts;
};

/// \brief Consumer of streamed shards. Invoked on the scanning thread,
/// in (epoch, shard) order; the shard is borrowed for the duration of
/// the call (the scan keeps the verdicts for its final report).
using FingerprintShardSink = std::function<void(const FingerprintShard&)>;

/// \brief Scans a prebuilt index against every registry key. `pool` may
/// be null (serial). With a `sink`, verdicts are also delivered per key
/// block as the tally engine completes them, before the call returns;
/// `epoch` is stamped into every emitted shard. The returned report is
/// the same with or without a sink, and the concatenation of the shard
/// verdicts is byte-identical to its verdict vector — ranking, margins
/// and the collusion flag are finalized over exactly the streamed
/// verdicts. Shard boundaries depend on the thread count, verdict bytes
/// do not.
Result<FingerprintReport> ScanIndexForFingerprints(
    const DetectIndex& index, HashAlgorithm algo, const KeyRegistry& registry,
    const FingerprintConfig& config, ThreadPool* pool,
    const FingerprintShardSink& sink = nullptr, size_t epoch = 0);

/// \brief Convenience: builds the index from the watermarker's structure
/// (its key material is NOT used — only the registry's candidate keys
/// are) and scans, on the watermarker's configured pool / thread count.
/// `sink` and `epoch` as for ScanIndexForFingerprints.
Result<FingerprintReport> ScanForFingerprints(
    const HierarchicalWatermarker& watermarker, const Table& suspect,
    const KeyRegistry& registry, const FingerprintConfig& config,
    const FingerprintShardSink& sink = nullptr, size_t epoch = 0);

}  // namespace privmark

#endif  // PRIVMARK_WATERMARK_FINGERPRINT_H_
