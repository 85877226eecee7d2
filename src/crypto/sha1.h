// SHA-1 (FIPS 180-1), implemented from scratch.
//
// The paper's watermarking algorithm keys all tuple-selection and
// index-permutation decisions on "a cryptographic hash function e.g., MD5 or
// SHA1" (Eq. 5 and Fig. 9). SHA-1 is that hash (crypto/keyed_hash.h).
//
// SHA-1 is not collision resistant by modern standards; it is used here as a
// keyed PRF-style selector exactly as in the 2005 paper, not for signatures.

#ifndef PRIVMARK_CRYPTO_SHA1_H_
#define PRIVMARK_CRYPTO_SHA1_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace privmark {

/// \brief Incremental SHA-1 hasher.
class Sha1 {
 public:
  static constexpr size_t kDigestSize = 20;

  Sha1();

  /// \brief Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);
  /// \brief string_view overload: accepts std::string, literals, and
  /// substrings alike without materializing a temporary string.
  void Update(std::string_view data);

  /// \brief Finishes and returns the 20-byte digest. The hasher must not be
  /// reused after Finish() without Reset().
  std::vector<uint8_t> Finish();

  /// \brief Allocation-free Finish(): writes the digest into `out`
  /// (kDigestSize bytes). Same reuse rule as Finish().
  void FinishInto(uint8_t* out);

  /// \brief Restores the initial state.
  void Reset();

  /// \brief One-shot convenience.
  static std::vector<uint8_t> Hash(std::string_view data);

 private:
  uint32_t h_[5];
  uint64_t total_len_ = 0;
  uint8_t buffer_[64];
  size_t buffer_len_ = 0;
};

}  // namespace privmark

#endif  // PRIVMARK_CRYPTO_SHA1_H_
