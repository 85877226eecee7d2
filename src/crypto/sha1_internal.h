// Shared internals of the SHA-1 implementations. Not part of the public
// crypto API: the multi-buffer kernel (sha1_multibuffer.cc and its SIMD
// translation units) borrows the scalar compression function for a lone
// message and for the last lane still running when block counts are mixed
// in one lane group, and both sides must agree on the exact FIPS 180-1
// compression the test vectors pin down.

#ifndef PRIVMARK_CRYPTO_SHA1_INTERNAL_H_
#define PRIVMARK_CRYPTO_SHA1_INTERNAL_H_

#include <cstdint>

namespace privmark {
namespace crypto_internal {

/// \brief The SHA-1 initial chaining values H0..H4 (FIPS 180-1 Sec. 7).
inline constexpr uint32_t kSha1Init[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE,
                                          0x10325476, 0xC3D2E1F0};

/// \brief One FIPS 180-1 compression of `block` into chaining state `h`.
/// Defined in sha1.cc (the same code Sha1 itself runs).
void Sha1Compress(uint32_t h[5], const uint8_t block[64]);

}  // namespace crypto_internal
}  // namespace privmark

#endif  // PRIVMARK_CRYPTO_SHA1_INTERNAL_H_
