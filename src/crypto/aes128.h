// AES-128 (FIPS 197), implemented from scratch.
//
// The paper's binning algorithm (Fig. 8) replaces each identifying value by
// its encryption under "an encryption function E() e.g., DES or AES"; the
// mapping must be one-to-one so the data holder can later decrypt the
// identifiers during an ownership dispute (Sec. 5.4). We implement AES-128
// and apply it per-value in ECB mode over length-prefixed padded input —
// deterministic and injective, exactly the property the paper relies on.
//
// Two block backends, chosen per process on first use:
//   - AES-NI (x86-64, when the build compiled the kernels in and the CPU
//     reports AES-NI): one AESENC/AESDEC instruction per round. It does no
//     table lookups, so its timing does not depend on the data or the key.
//   - portable: byte-wise FIPS-197 rounds (xtime MixColumns, no T-tables).
//     It still indexes an S-box with secret bytes, so it is not hardened
//     against cache-timing side channels.
// Both backends produce byte-identical ciphertexts and round-trip each
// other's output: a table protected on one machine decrypts on any other.
// There is no way to choose a backend; tests hold the two equal through
// crypto/aes128_internal.h.

#ifndef PRIVMARK_CRYPTO_AES128_H_
#define PRIVMARK_CRYPTO_AES128_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace privmark {

/// \brief AES-128 block cipher with per-value string encryption helpers.
class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;

  /// \brief Expands the 16-byte key schedule.
  explicit Aes128(const std::array<uint8_t, kKeySize>& key);

  /// \brief Builds a key by hashing an arbitrary passphrase (SHA-1 truncated
  /// to 16 bytes), so callers can use human-readable secrets.
  static Aes128 FromPassphrase(const std::string& passphrase);

  /// \brief Encrypts one 16-byte block in place.
  void EncryptBlock(uint8_t block[kBlockSize]) const;

  /// \brief Decrypts one 16-byte block in place.
  void DecryptBlock(uint8_t block[kBlockSize]) const;

  /// \brief Deterministically encrypts a value string to lowercase hex.
  ///
  /// The plaintext is encoded as [1-byte length]... per 15-byte chunk, so
  /// distinct inputs yield distinct outputs (injective) and EncryptValue /
  /// DecryptValue round-trip for values up to 255 bytes.
  Result<std::string> EncryptValue(const std::string& value) const;

  /// \brief Inverse of EncryptValue.
  Result<std::string> DecryptValue(const std::string& hex_ciphertext) const;

 private:
  static constexpr int kRounds = 10;
  // Round keys: (kRounds + 1) * 16 bytes.
  std::array<uint8_t, (kRounds + 1) * kBlockSize> round_keys_;
};

}  // namespace privmark

#endif  // PRIVMARK_CRYPTO_AES128_H_
