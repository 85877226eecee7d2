// Keyed hashing used by the watermarking algorithm.
//
// The paper (Eq. 5 and Fig. 9) computes H(ti.ident, k1) and H(ti.ident, k2)
// where H is "a cryptographic hash function e.g., MD5 or SHA1" and k1/k2 are
// elements of the secret watermarking key. We realize H(m, k) as
// Hash(k || 0x00 || m) truncated to a uint64 (big-endian leading bytes);
// the 0x00 separator prevents key/message boundary ambiguity.

#ifndef PRIVMARK_CRYPTO_KEYED_HASH_H_
#define PRIVMARK_CRYPTO_KEYED_HASH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace privmark {

/// \brief Which underlying hash the watermarking pipeline uses.
enum class HashAlgorithm {
  kSha1,
  kMd5,
};

const char* HashAlgorithmToString(HashAlgorithm algo);

/// \brief Full digest of key || 0x00 || message.
std::vector<uint8_t> KeyedDigest(HashAlgorithm algo, std::string_view key,
                                 std::string_view message);

/// \brief First 8 digest bytes as a big-endian uint64.
///
/// This is the quantity the paper reduces mod eta (selection) or mod |S| /
/// |wmd| (permutation and position choice). Streams key, separator and
/// message into the hasher directly — no concatenation buffer, no digest
/// allocation — so the watermarking hot loops can call it per tuple/slot
/// without touching the heap.
uint64_t KeyedHash64(HashAlgorithm algo, std::string_view key,
                     std::string_view message);

/// \brief One (key, message) pair for batched keyed hashing. Views must
/// outlive the KeyedHash64Batch call.
struct KeyedHashInput {
  std::string_view key;
  std::string_view message;
};

/// \brief Batched KeyedHash64: outs[i] = KeyedHash64(algo, inputs[i].key,
/// inputs[i].message), value-identical to the scalar call.
///
/// SHA-1 batches flow through the multi-buffer kernel (4–16 interleaved
/// lanes, see crypto/sha1_multibuffer.h), so cost per hash drops several-
/// fold when `n` covers at least one full lane group. Each 16-input chunk
/// whose keyed inputs all fit one padded block (key + 1 + message <= 55
/// bytes) skips digest bytes altogether: its blocks are padded in place
/// and the result read from the chaining state. MD5 falls back to the
/// scalar path per element. The watermark embed/detect loops hand whole
/// blocks of tuples (and multi-key detection whole key groups) to this
/// entry point instead of hashing one tuple at a time.
void KeyedHash64Batch(HashAlgorithm algo, const KeyedHashInput* inputs,
                      size_t n, uint64_t* outs);

/// \brief Single-key convenience overload: outs[i] = KeyedHash64(algo, key,
/// messages[i]).
void KeyedHash64Batch(HashAlgorithm algo, std::string_view key,
                      const std::string_view* messages, size_t n,
                      uint64_t* outs);

}  // namespace privmark

#endif  // PRIVMARK_CRYPTO_KEYED_HASH_H_
