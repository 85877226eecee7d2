// Watermarking key material and tuple selection (paper Sec. 5, Eq. 5).
//
// Selection tests H(k1, ident) mod eta == 0 through one SelectionRule per
// key: a multiply, a rotate and a compare instead of a 64-bit divide.
// IsTupleSelected, WatermarkHasher::SelectBlock and the multi-key tally
// (detect_index.cc) all use it, so every path selects the same tuples.

#ifndef PRIVMARK_WATERMARK_WATERMARK_KEY_H_
#define PRIVMARK_WATERMARK_WATERMARK_KEY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/keyed_hash.h"

namespace privmark {

class ThreadPool;

/// \brief The secret watermarking key (paper Table 1: k1, k2, eta).
///
/// k1 drives tuple selection (Eq. 5), k2 drives bit positions and
/// permutation indices (Fig. 9); the paper stresses that distinct keys keep
/// these calculations uncorrelated. eta tunes the marked fraction: a tuple
/// is selected iff H(k1, ident) mod eta == 0, so roughly 1/eta of tuples are
/// marked — smaller eta means more bandwidth but more distortion (Fig. 12
/// vs. Fig. 13 trade-off).
struct WatermarkKey {
  std::string k1 = "k1-secret";
  std::string k2 = "k2-secret";
  uint64_t eta = 100;
};

/// \brief Detection-voting and hashing options.
struct WatermarkOptions {
  /// Hash H() used for Eq. (5) and Fig. 9 (the paper's "e.g., MD5 or
  /// SHA1"); SHA-1 is its one value (crypto/keyed_hash.h).
  HashAlgorithm hash = HashAlgorithm::kSha1;
  /// Weighted per-level voting (Sec. 5.3: "the copy from a higher level is
  /// more reliable than that from a lower level"). When false, all levels
  /// vote equally.
  bool weighted_voting = false;
  /// With weighted voting, a level's weight is decay^(distance from the
  /// maximal node); decay in (0, 1] — 1.0 degenerates to plain voting.
  double level_weight_decay = 0.5;
  /// Worker threads for embed/detect/bandwidth row scans. 1 = serial (the
  /// default), 0 = hardware concurrency, N = exactly N workers. Embedded
  /// tables, reports, and vote margins are byte-identical for every value:
  /// rows shard contiguously, each shard owns its writes and its own
  /// WatermarkHasher, and per-shard tallies (integer counters and sums of
  /// whole-valued vote weights) merge in shard order (common/parallel.h).
  size_t num_threads = 1;
  /// Optional caller-owned worker pool. When set it wins over num_threads
  /// (its worker count governs) and the watermarker constructs no pool per
  /// Embed/Detect/EstimateBandwidth call — a long-lived caller (the
  /// protection session, a service front-end) pays thread spawn/join once
  /// instead of per run. Must outlive every call using these options. Not
  /// serialized state: a borrowed execution resource.
  ThreadPool* pool = nullptr;
};

/// \brief Eq. (5)'s test "h mod eta == 0", precomputed per key so a scan
/// pays a multiply and a rotate per hash instead of a 64-bit divide.
///
/// With eta = odd * 2^s (odd odd, s = trailing zero bits of eta), h is a
/// multiple of eta exactly when rotr(h * odd^-1 mod 2^64, s) <=
/// floor((2^64 - 1) / eta). Multiplying by the inverse permutes the
/// multiples of odd onto [0, floor((2^64 - 1) / odd)]; the rotate moves
/// the product's low s bits, which are all zero exactly when 2^s divides
/// h, to the top, where any set bit lies past the bound.
class SelectionRule {
 public:
  /// `eta` must be positive (ValidateEta refuses 0 before any scan).
  explicit SelectionRule(uint64_t eta);

  bool Selects(uint64_t h) const {
    const uint64_t x = h * inverse_;
    // The mask keeps the left shift below 64 when shift_ is 0.
    const uint64_t rotated = (x >> shift_) | (x << ((64 - shift_) & 63));
    return rotated <= limit_;
  }

 private:
  uint64_t inverse_ = 1;  // odd^-1 mod 2^64
  unsigned shift_ = 0;    // s
  uint64_t limit_ = 0;    // floor((2^64 - 1) / eta)
};

/// \brief Eq. (5): true iff the tuple with this (encrypted) identifier is
/// chosen for embedding.
bool IsTupleSelected(const WatermarkKey& key, HashAlgorithm algo,
                     std::string_view ident);

/// \brief Position of this tuple/column slot's bit within wmd:
/// H(k2, "pos:" ident ":" column) mod wmd_size.
///
/// The paper uses H(ti.ident, k2) mod |wmd| for a single column; the
/// purpose-prefix and column name extend it to multi-column embedding while
/// keeping positions independent of the permutation hashes below.
size_t WmdPosition(const WatermarkKey& key, HashAlgorithm algo,
                   std::string_view ident, std::string_view column,
                   size_t wmd_size);

/// \brief Pseudo-random index for the permutation at one tree level:
/// H(k2, "perm:" ident ":" column ":" depth) mod set_size.
size_t PermutationIndex(const WatermarkKey& key, HashAlgorithm algo,
                        std::string_view ident, std::string_view column,
                        int depth, size_t set_size);

/// \brief Hot-loop façade over the three functions above.
///
/// Produces bit-identical values, but (a) hashes whole row blocks of
/// Eq. (5) selections and position messages through the multi-buffer
/// kernel, and (b) assembles each permutation message in one reused buffer
/// instead of a fresh string concatenation per slot.
class WatermarkHasher {
 public:
  /// Row-block granularity the batched callers below are designed around:
  /// a multiple of every multi-buffer lane width (4, 8 and 16), small
  /// enough that per-block gather state lives on the stack.
  static constexpr size_t kBlockRows = 64;

  WatermarkHasher(const WatermarkKey& key, HashAlgorithm algo)
      : key_(&key), algo_(algo), selection_(key.eta) {}

  /// \brief Batched Eq. (5): selected[i] = IsTupleSelected(key, algo,
  /// idents[i]) for a whole block at once (`n` <= kBlockRows). The
  /// selection hashes flow through the multi-buffer SHA-1 kernel, so a row
  /// scan pays a fraction of the per-tuple hash cost.
  void SelectBlock(const std::string_view* idents, size_t n,
                   uint8_t* selected);

  /// \brief Batched WmdPosition over pre-assembled "pos:..." messages
  /// (see AppendPositionMessage); any `n`. out[i] is the wmd position for
  /// messages[i], value-identical to the free WmdPosition that would
  /// have assembled the same message.
  void PositionBlock(const std::string_view* messages, size_t n,
                     size_t wmd_size, size_t* out);

  /// \brief Appends the exact bytes the free WmdPosition hashes — "pos:"
  /// ident ":" column — to `arena` without clearing it. Callers batch
  /// slots by appending each slot's message and recording [start, end)
  /// offsets, then hand views into the arena to PositionBlock once the
  /// arena stops growing.
  static void AppendPositionMessage(std::string_view ident,
                                    std::string_view column,
                                    std::string* arena);

  /// \brief Same as the free PermutationIndex, reusing the message buffer.
  size_t PermutationIndex(std::string_view ident, std::string_view column,
                          int depth, size_t set_size);

 private:
  const WatermarkKey* key_;
  HashAlgorithm algo_;
  SelectionRule selection_;
  std::string buf_;  // reused message assembly buffer
};

}  // namespace privmark

#endif  // PRIVMARK_WATERMARK_WATERMARK_KEY_H_
