// Sixteen-lane AVX-512 SHA-1 kernel. This translation unit is the only one
// compiled with -mavx512f -mavx512bw (see src/CMakeLists.txt); the
// dispatcher in sha1_multibuffer.cc only calls in here after checking
// __builtin_cpu_supports for both, so the rest of the binary stays runnable
// on CPUs without AVX-512. When the build doesn't enable AVX-512 the stub
// below reports the kernel absent and the dispatcher never selects it.
//
// Each round function is one vpternlogd (Ch 0xCA, parity 0x96, Maj 0xE8)
// and every rotate one vprold. The lane blocks sit at a fixed 64-byte
// stride, so each message word of all 16 lanes is one gather plus one
// in-lane byte shuffle (the big-endian swap).

#include "crypto/sha1_multibuffer_internal.h"

#if defined(__x86_64__) || defined(_M_X64)

#if defined(__AVX512F__) && defined(__AVX512BW__)
#include <immintrin.h>
#endif

namespace privmark {
namespace crypto_internal {

#if defined(__AVX512F__) && defined(__AVX512BW__)

namespace {

// The plain _mm512_rol_epi32 / _mm512_i32gather_epi32 forms trip a false
// -Wuninitialized in GCC 12 (their undefined pass-through operand); the
// all-lanes masked forms compile to the same instructions without it.
template <int K>
inline __m512i Rotl(__m512i x) {
  return _mm512_maskz_rol_epi32(0xFFFF, x, K);
}

}  // namespace

bool Sha1Avx512Compiled() { return true; }

void Sha1CompressLanes16Avx512(uint32_t* h, const uint8_t* blocks) {
  // Lane l's word i sits at blocks + 64 * l + 4 * i: dword index 16 * l
  // from the word's base address.
  const __m512i stride = _mm512_setr_epi32(0, 16, 32, 48, 64, 80, 96, 112,
                                           128, 144, 160, 176, 192, 208, 224,
                                           240);
  // Byte order 3 2 1 0, 7 6 5 4, ... in each 128-bit lane.
  const __m512i bswap = _mm512_set4_epi32(0x0C0D0E0F, 0x08090A0B, 0x04050607,
                                          0x00010203);
  const __m512i zero = _mm512_setzero_si512();
  __m512i w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = _mm512_shuffle_epi8(
        _mm512_mask_i32gather_epi32(zero, 0xFFFF, stride, blocks + 4 * i, 4),
        bswap);
  }
  __m512i a = _mm512_loadu_si512(h + 0);
  __m512i b = _mm512_loadu_si512(h + 16);
  __m512i c = _mm512_loadu_si512(h + 32);
  __m512i d = _mm512_loadu_si512(h + 48);
  __m512i e = _mm512_loadu_si512(h + 64);
  const __m512i a0 = a, b0 = b, c0 = c, d0 = d, e0 = e;

  auto schedule = [&w](int i) {
    const __m512i next = Rotl<1>(_mm512_xor_si512(
        _mm512_ternarylogic_epi32(w[(i + 13) & 15], w[(i + 8) & 15],
                                  w[(i + 2) & 15], 0x96),
        w[i & 15]));
    w[i & 15] = next;
    return next;
  };
  auto round = [&](__m512i f, uint32_t k, __m512i wi) {
    const __m512i tmp = _mm512_add_epi32(
        _mm512_add_epi32(Rotl<5>(a), f),
        _mm512_add_epi32(_mm512_add_epi32(e, wi),
                         _mm512_set1_epi32(static_cast<int>(k))));
    e = d;
    d = c;
    c = Rotl<30>(b);
    b = a;
    a = tmp;
  };
  auto ch = [&] { return _mm512_ternarylogic_epi32(b, c, d, 0xCA); };
  auto parity = [&] { return _mm512_ternarylogic_epi32(b, c, d, 0x96); };
  auto maj = [&] { return _mm512_ternarylogic_epi32(b, c, d, 0xE8); };
  for (int i = 0; i < 16; ++i) round(ch(), 0x5A827999, w[i]);
  for (int i = 16; i < 20; ++i) round(ch(), 0x5A827999, schedule(i));
  for (int i = 20; i < 40; ++i) round(parity(), 0x6ED9EBA1, schedule(i));
  for (int i = 40; i < 60; ++i) round(maj(), 0x8F1BBCDC, schedule(i));
  for (int i = 60; i < 80; ++i) round(parity(), 0xCA62C1D6, schedule(i));

  _mm512_storeu_si512(h + 0, _mm512_add_epi32(a0, a));
  _mm512_storeu_si512(h + 16, _mm512_add_epi32(b0, b));
  _mm512_storeu_si512(h + 32, _mm512_add_epi32(c0, c));
  _mm512_storeu_si512(h + 48, _mm512_add_epi32(d0, d));
  _mm512_storeu_si512(h + 64, _mm512_add_epi32(e0, e));
}

#else  // !(__AVX512F__ && __AVX512BW__)

bool Sha1Avx512Compiled() { return false; }

void Sha1CompressLanes16Avx512(uint32_t*, const uint8_t*) {}

#endif  // __AVX512F__ && __AVX512BW__

}  // namespace crypto_internal
}  // namespace privmark

#endif  // x86-64
