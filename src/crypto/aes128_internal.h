// Internal seam between aes128.cc (key schedule, portable block kernels,
// backend dispatch) and aes128_aesni.cc (the AES-NI kernels, which must
// live in their own translation unit compiled with -maes: only that TU may
// contain AES-NI intrinsics, and the dispatcher itself must stay runnable
// on x86-64 CPUs without AES-NI). Tests reach both kernels through here to
// hold them byte-identical. Not part of the public crypto API.
//
// Every kernel takes the FIPS-197 expanded key: 11 round keys of 16 bytes,
// round 0 first, in the byte order of Aes128ExpandKey.

#ifndef PRIVMARK_CRYPTO_AES128_INTERNAL_H_
#define PRIVMARK_CRYPTO_AES128_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace privmark {
namespace crypto_internal {

constexpr size_t kAes128RoundKeyBytes = 11 * 16;

/// \brief FIPS-197 Sec. 5.2 key expansion of a 16-byte key.
void Aes128ExpandKey(const uint8_t key[16],
                     uint8_t round_keys[kAes128RoundKeyBytes]);

/// \brief Byte-wise FIPS-197 cipher / inverse cipher on one block in place.
/// The fallback backend and the oracle the AES-NI kernels are tested
/// against.
void Aes128EncryptBlockPortable(const uint8_t* round_keys, uint8_t* block);
void Aes128DecryptBlockPortable(const uint8_t* round_keys, uint8_t* block);

/// \brief The dispatch predicate of Aes128::EncryptBlock/DecryptBlock: true
/// when the AES-NI kernels were compiled in and this CPU has AES-NI.
/// Resolved on first call. Always false off x86-64.
bool AesNiActive();

#if defined(__x86_64__) || defined(_M_X64)
/// \brief True when the binary carries real AES-NI kernels (the AES-NI TU
/// was compiled with -maes). Callers must still check the CPU at runtime.
bool AesNiCompiled();

/// \brief AES-NI cipher / inverse cipher on one block in place. Must only be
/// called when AesNiActive(). Decryption derives the equivalent-inverse
/// round keys (AESIMC) from the encryption schedule on the fly.
void Aes128EncryptBlockAesNi(const uint8_t* round_keys, uint8_t* block);
void Aes128DecryptBlockAesNi(const uint8_t* round_keys, uint8_t* block);
#endif

}  // namespace crypto_internal
}  // namespace privmark

#endif  // PRIVMARK_CRYPTO_AES128_INTERNAL_H_
