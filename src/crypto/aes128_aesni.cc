// AES-NI block kernels. This translation unit is the only one compiled with
// -maes (see src/CMakeLists.txt); Aes128::EncryptBlock/DecryptBlock only
// call in here after checking __builtin_cpu_supports("aes"), so the rest of
// the binary stays runnable on x86-64 CPUs without AES-NI. When the build
// doesn't enable AES-NI (non-GCC-style toolchain) the stub below reports
// the kernels absent and the dispatcher never selects them; non-x86
// targets compile this file empty.
//
// The FIPS-197 round keys are exactly the AESENC schedule, so encryption
// loads them as-is. Decryption runs the equivalent inverse cipher
// (FIPS-197 Sec. 5.3.5), whose middle round keys are InvMixColumns of the
// encryption ones — one AESIMC each, computed per block.

#include "crypto/aes128_internal.h"

#if defined(__x86_64__) || defined(_M_X64)

#if defined(__AES__)
#include <wmmintrin.h>
#endif

namespace privmark {
namespace crypto_internal {

#if defined(__AES__)

namespace {

constexpr int kRounds = 10;

inline __m128i LoadBlock(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline __m128i RoundKey(const uint8_t* round_keys, int round) {
  return LoadBlock(round_keys + 16 * round);
}

}  // namespace

bool AesNiCompiled() { return true; }

void Aes128EncryptBlockAesNi(const uint8_t* round_keys, uint8_t* block) {
  __m128i state =
      _mm_xor_si128(LoadBlock(block), RoundKey(round_keys, 0));
  for (int round = 1; round < kRounds; ++round) {
    state = _mm_aesenc_si128(state, RoundKey(round_keys, round));
  }
  state = _mm_aesenclast_si128(state, RoundKey(round_keys, kRounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(block), state);
}

void Aes128DecryptBlockAesNi(const uint8_t* round_keys, uint8_t* block) {
  __m128i state =
      _mm_xor_si128(LoadBlock(block), RoundKey(round_keys, kRounds));
  for (int round = kRounds - 1; round >= 1; --round) {
    state = _mm_aesdec_si128(
        state, _mm_aesimc_si128(RoundKey(round_keys, round)));
  }
  state = _mm_aesdeclast_si128(state, RoundKey(round_keys, 0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(block), state);
}

#else  // !__AES__

bool AesNiCompiled() { return false; }

void Aes128EncryptBlockAesNi(const uint8_t*, uint8_t*) {}

void Aes128DecryptBlockAesNi(const uint8_t*, uint8_t*) {}

#endif  // __AES__

}  // namespace crypto_internal
}  // namespace privmark

#endif  // x86-64
