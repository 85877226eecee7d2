// Keyed hashing used by the watermarking algorithm.
//
// The paper (Eq. 5 and Fig. 9) computes H(ti.ident, k1) and H(ti.ident, k2)
// where H is "a cryptographic hash function e.g., MD5 or SHA1" and k1/k2 are
// elements of the secret watermarking key. H is realized as SHA-1: H(m, k)
// is SHA1(k || 0x00 || m) truncated to a uint64 (big-endian leading bytes);
// the 0x00 separator prevents key/message boundary ambiguity.

#ifndef PRIVMARK_CRYPTO_KEYED_HASH_H_
#define PRIVMARK_CRYPTO_KEYED_HASH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace privmark {

/// \brief The hash the watermarking pipeline uses: SHA-1, the one value.
/// Manifests and journal configs record it as `hash = SHA1`.
enum class HashAlgorithm {
  kSha1,
};

const char* HashAlgorithmToString(HashAlgorithm algo);

/// \brief Full 20-byte SHA-1 digest of key || 0x00 || message, streamed
/// through Sha1 (the reference the padded batch path is tested against).
std::vector<uint8_t> KeyedDigest(HashAlgorithm algo, std::string_view key,
                                 std::string_view message);

/// \brief First 8 digest bytes as a big-endian uint64.
///
/// This is the quantity the paper reduces mod eta (selection) or mod |S| /
/// |wmd| (permutation and position choice). Allocation-free for every
/// input the watermarking pipeline produces, so the hot loops can call it
/// per tuple/slot without touching the heap. A KeyedHash64Batch of one.
uint64_t KeyedHash64(HashAlgorithm algo, std::string_view key,
                     std::string_view message);

/// \brief Batched KeyedHash64 under one key: outs[i] = KeyedHash64(algo,
/// key, messages[i]), value-identical to the scalar call. The one batch
/// entry point.
///
/// The call writes key || 0x00 once into a zeroed template of 4
/// blocks. Each 16-message chunk is padded straight into one block-major
/// lane array (block b of message i at 64 * (b * chunk + i)): every lane
/// block starts as a fixed-size 64-byte copy of its template block, and
/// only the message, 0x80 and the bit length are written per lane. The
/// array is hashed by Sha1MultiBuffer::HashPaddedBlocks64 (4–16
/// interleaved lanes, see crypto/sha1_multibuffer.h), whatever each
/// message's block count, and the result is read from the chaining state.
/// Padding stops at a fixed cap of 4 blocks (key + 1 + message <= 247
/// bytes); a longer input streams through Sha1, and a key with key + 1 >
/// 247 streams the whole call. The watermark embed/detect loops hand
/// whole row blocks (and multi-key detection one call per key) to this
/// entry point instead of hashing one tuple at a time.
void KeyedHash64Batch(HashAlgorithm algo, std::string_view key,
                      const std::string_view* messages, size_t n,
                      uint64_t* outs);

}  // namespace privmark

#endif  // PRIVMARK_CRYPTO_KEYED_HASH_H_
