// Internal seam between sha1_multibuffer.cc (dispatch + block scheduling)
// and the wide kernels, sha1_multibuffer_avx2.cc (8 lanes) and
// sha1_multibuffer_avx512.cc (16 lanes). Each kernel must live in its own
// translation unit compiled with its ISA flags: only that TU may contain
// those intrinsics, and the dispatcher itself must stay runnable on
// SSE2-only CPUs. Not part of the public crypto API.
//
// Every kernel takes its lanes' blocks back to back: lane l's 64-byte
// block starts at blocks + 64 * l. Sha1MultiBuffer::HashPaddedBlocks64
// keeps its messages block-major (message i's block b at
// blocks + 64 * (b * n + i)), so each row of a full lane group is handed
// to the kernel in place, one compress per block index.

#ifndef PRIVMARK_CRYPTO_SHA1_MULTIBUFFER_INTERNAL_H_
#define PRIVMARK_CRYPTO_SHA1_MULTIBUFFER_INTERNAL_H_

#include <cstdint>

namespace privmark {
namespace crypto_internal {

#if defined(__x86_64__) || defined(_M_X64)
/// \brief True when the binary carries a real AVX2 kernel (the AVX2 TU was
/// compiled with -mavx2). Callers must still check the CPU at runtime.
bool Sha1Avx2Compiled();

/// \brief Eight-lane SHA-1 compression. `h` is word-major chaining state
/// (h[word * 8 + lane]); lane l's block is blocks[64 * l, 64 * l + 64).
/// Must only be called when Sha1Avx2Compiled() and the CPU supports AVX2.
void Sha1CompressLanes8Avx2(uint32_t* h, const uint8_t* blocks);

/// \brief True when the binary carries a real AVX-512 kernel (the AVX-512
/// TU was compiled with -mavx512f -mavx512bw). Callers must still check
/// the CPU at runtime.
bool Sha1Avx512Compiled();

/// \brief Sixteen-lane SHA-1 compression, same layout as the AVX2 kernel
/// (h[word * 16 + lane], lane l's block at blocks + 64 * l). Must only be
/// called when Sha1Avx512Compiled() and the CPU supports AVX-512F and
/// AVX-512BW.
void Sha1CompressLanes16Avx512(uint32_t* h, const uint8_t* blocks);
#endif

}  // namespace crypto_internal
}  // namespace privmark

#endif  // PRIVMARK_CRYPTO_SHA1_MULTIBUFFER_INTERNAL_H_
