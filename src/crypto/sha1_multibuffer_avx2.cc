// Eight-lane AVX2 SHA-1 kernel. This translation unit is the only one
// compiled with -mavx2 (see src/CMakeLists.txt); the dispatcher in
// sha1_multibuffer.cc only calls in here after checking
// __builtin_cpu_supports("avx2"), so the rest of the binary stays runnable
// on SSE2-only CPUs. When the build doesn't enable AVX2 (non-GCC-style
// toolchain or non-x86 target) the stub below reports the kernel absent and
// the dispatcher never selects it.

#include "crypto/sha1_multibuffer_internal.h"

#if defined(__x86_64__) || defined(_M_X64)

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace privmark {
namespace crypto_internal {

#if defined(__AVX2__)

namespace {

inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline __m256i RotlV(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi32(x, k),
                         _mm256_srli_epi32(x, 32 - k));
}

}  // namespace

bool Sha1Avx2Compiled() { return true; }

void Sha1CompressLanes8Avx2(uint32_t* h, const uint8_t* blocks) {
  __m256i w[16];
  for (int i = 0; i < 16; ++i) {
    const uint8_t* p = blocks + 4 * i;
    w[i] = _mm256_set_epi32(static_cast<int>(LoadBe32(p + 7 * 64)),
                            static_cast<int>(LoadBe32(p + 6 * 64)),
                            static_cast<int>(LoadBe32(p + 5 * 64)),
                            static_cast<int>(LoadBe32(p + 4 * 64)),
                            static_cast<int>(LoadBe32(p + 3 * 64)),
                            static_cast<int>(LoadBe32(p + 2 * 64)),
                            static_cast<int>(LoadBe32(p + 1 * 64)),
                            static_cast<int>(LoadBe32(p)));
  }
  __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + 0));
  __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + 8));
  __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + 16));
  __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + 24));
  __m256i e = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + 32));
  const __m256i a0 = a, b0 = b, c0 = c, d0 = d, e0 = e;

  auto schedule = [&w](int i) {
    const __m256i next = RotlV(
        _mm256_xor_si256(
            _mm256_xor_si256(w[(i + 13) & 15], w[(i + 8) & 15]),
            _mm256_xor_si256(w[(i + 2) & 15], w[i & 15])),
        1);
    w[i & 15] = next;
    return next;
  };
  auto round = [&](__m256i f, uint32_t k, __m256i wi) {
    const __m256i tmp = _mm256_add_epi32(
        _mm256_add_epi32(RotlV(a, 5), f),
        _mm256_add_epi32(_mm256_add_epi32(e, wi),
                         _mm256_set1_epi32(static_cast<int>(k))));
    e = d;
    d = c;
    c = RotlV(b, 30);
    b = a;
    a = tmp;
  };
  auto ch = [&] {
    return _mm256_xor_si256(d, _mm256_and_si256(b, _mm256_xor_si256(c, d)));
  };
  auto parity = [&] { return _mm256_xor_si256(b, _mm256_xor_si256(c, d)); };
  auto maj = [&] {
    return _mm256_or_si256(_mm256_and_si256(b, c),
                           _mm256_and_si256(d, _mm256_or_si256(b, c)));
  };
  for (int i = 0; i < 16; ++i) round(ch(), 0x5A827999, w[i]);
  for (int i = 16; i < 20; ++i) round(ch(), 0x5A827999, schedule(i));
  for (int i = 20; i < 40; ++i) round(parity(), 0x6ED9EBA1, schedule(i));
  for (int i = 40; i < 60; ++i) round(maj(), 0x8F1BBCDC, schedule(i));
  for (int i = 60; i < 80; ++i) round(parity(), 0xCA62C1D6, schedule(i));

  _mm256_storeu_si256(reinterpret_cast<__m256i*>(h + 0),
                      _mm256_add_epi32(a0, a));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(h + 8),
                      _mm256_add_epi32(b0, b));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(h + 16),
                      _mm256_add_epi32(c0, c));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(h + 24),
                      _mm256_add_epi32(d0, d));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(h + 32),
                      _mm256_add_epi32(e0, e));
}

#else  // !__AVX2__

bool Sha1Avx2Compiled() { return false; }

void Sha1CompressLanes8Avx2(uint32_t*, const uint8_t*) {}

#endif  // __AVX2__

}  // namespace crypto_internal
}  // namespace privmark

#endif  // x86-64
