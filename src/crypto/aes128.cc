#include "crypto/aes128.h"

#include <cstring>

#include "common/strings.h"
#include "crypto/aes128_internal.h"
#include "crypto/sha1.h"

namespace privmark {

namespace {

// Forward S-box (FIPS 197 Fig. 7).
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

// Inverse S-box.
constexpr uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

// Multiplication by x in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1
// (the "xtime" primitive). Branch-free; all MixColumns coefficients (2, 3,
// 9, 11, 13, 14) decompose into xtime chains, so no generic GF multiplier
// is needed.
inline uint8_t XTime(uint8_t a) {
  return static_cast<uint8_t>((a << 1) ^ ((a >> 7) * 0x1b));
}

// The block kernels below are free functions; these mirror Aes128's
// constants for them.
constexpr size_t kBlockSize = Aes128::kBlockSize;
constexpr int kRounds = 10;
constexpr size_t kChunk = 15;  // plaintext bytes per block (1 byte header)

}  // namespace

namespace crypto_internal {

void Aes128ExpandKey(const uint8_t key[16],
                     uint8_t round_keys[kAes128RoundKeyBytes]) {
  // Key expansion (FIPS 197 Sec. 5.2), word-oriented.
  std::memcpy(round_keys, key, 16);
  for (int i = 4; i < 4 * (kRounds + 1); ++i) {
    uint8_t temp[4];
    std::memcpy(temp, round_keys + 4 * (i - 1), 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const uint8_t t0 = temp[0];
      temp[0] = static_cast<uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (int b = 0; b < 4; ++b) {
      round_keys[4 * i + b] = round_keys[4 * (i - 4) + b] ^ temp[b];
    }
  }
}

void Aes128EncryptBlockPortable(const uint8_t* round_keys, uint8_t* block) {
  auto add_round_key = [&](int round) {
    for (size_t i = 0; i < kBlockSize; ++i) {
      block[i] ^= round_keys[round * kBlockSize + i];
    }
  };
  auto sub_bytes = [&] {
    for (size_t i = 0; i < kBlockSize; ++i) block[i] = kSbox[block[i]];
  };
  auto shift_rows = [&] {
    // State is column-major: byte (r, c) = block[4*c + r].
    uint8_t tmp[kBlockSize];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        tmp[4 * c + r] = block[4 * ((c + r) % 4) + r];
      }
    }
    std::memcpy(block, tmp, kBlockSize);
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = block + 4 * c;
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      // GfMul(a, 2) = XTime(a), GfMul(a, 3) = XTime(a) ^ a.
      col[0] = XTime(a0) ^ (XTime(a1) ^ a1) ^ a2 ^ a3;
      col[1] = a0 ^ XTime(a1) ^ (XTime(a2) ^ a2) ^ a3;
      col[2] = a0 ^ a1 ^ XTime(a2) ^ (XTime(a3) ^ a3);
      col[3] = (XTime(a0) ^ a0) ^ a1 ^ a2 ^ XTime(a3);
    }
  };

  add_round_key(0);
  for (int round = 1; round < kRounds; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(kRounds);
}

void Aes128DecryptBlockPortable(const uint8_t* round_keys, uint8_t* block) {
  auto add_round_key = [&](int round) {
    for (size_t i = 0; i < kBlockSize; ++i) {
      block[i] ^= round_keys[round * kBlockSize + i];
    }
  };
  auto inv_sub_bytes = [&] {
    for (size_t i = 0; i < kBlockSize; ++i) block[i] = kInvSbox[block[i]];
  };
  auto inv_shift_rows = [&] {
    uint8_t tmp[kBlockSize];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        tmp[4 * ((c + r) % 4) + r] = block[4 * c + r];
      }
    }
    std::memcpy(block, tmp, kBlockSize);
  };
  auto inv_mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = block + 4 * c;
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      // x1 = 2a, x2 = 4a, x3 = 8a; 9 = 8+1, 11 = 8+2+1, 13 = 8+4+1,
      // 14 = 8+4+2 — the standard xtime decomposition of InvMixColumns.
      auto mul = [](uint8_t a, uint8_t* m9, uint8_t* m11, uint8_t* m13,
                    uint8_t* m14) {
        const uint8_t x1 = XTime(a);
        const uint8_t x2 = XTime(x1);
        const uint8_t x3 = XTime(x2);
        *m9 = x3 ^ a;
        *m11 = x3 ^ x1 ^ a;
        *m13 = x3 ^ x2 ^ a;
        *m14 = x3 ^ x2 ^ x1;
      };
      uint8_t a0_9, a0_11, a0_13, a0_14;
      uint8_t a1_9, a1_11, a1_13, a1_14;
      uint8_t a2_9, a2_11, a2_13, a2_14;
      uint8_t a3_9, a3_11, a3_13, a3_14;
      mul(a0, &a0_9, &a0_11, &a0_13, &a0_14);
      mul(a1, &a1_9, &a1_11, &a1_13, &a1_14);
      mul(a2, &a2_9, &a2_11, &a2_13, &a2_14);
      mul(a3, &a3_9, &a3_11, &a3_13, &a3_14);
      col[0] = a0_14 ^ a1_11 ^ a2_13 ^ a3_9;
      col[1] = a0_9 ^ a1_14 ^ a2_11 ^ a3_13;
      col[2] = a0_13 ^ a1_9 ^ a2_14 ^ a3_11;
      col[3] = a0_11 ^ a1_13 ^ a2_9 ^ a3_14;
    }
  };

  add_round_key(kRounds);
  for (int round = kRounds - 1; round >= 1; --round) {
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(round);
    inv_mix_columns();
  }
  inv_shift_rows();
  inv_sub_bytes();
  add_round_key(0);
}

bool AesNiActive() {
#if defined(__x86_64__) || defined(_M_X64)
  // A function-local static: resolved on first use, after the runtime has
  // initialised the CPU model __builtin_cpu_supports reads.
  static const bool active =
      AesNiCompiled() && __builtin_cpu_supports("aes");
  return active;
#else
  return false;
#endif
}

}  // namespace crypto_internal

Aes128::Aes128(const std::array<uint8_t, kKeySize>& key) {
  static_assert(sizeof(round_keys_) == crypto_internal::kAes128RoundKeyBytes);
  crypto_internal::Aes128ExpandKey(key.data(), round_keys_.data());
}

Aes128 Aes128::FromPassphrase(const std::string& passphrase) {
  const std::vector<uint8_t> digest = Sha1::Hash("privmark-aes:" + passphrase);
  std::array<uint8_t, kKeySize> key;
  std::memcpy(key.data(), digest.data(), kKeySize);
  return Aes128(key);
}

void Aes128::EncryptBlock(uint8_t block[kBlockSize]) const {
#if defined(__x86_64__) || defined(_M_X64)
  if (crypto_internal::AesNiActive()) {
    crypto_internal::Aes128EncryptBlockAesNi(round_keys_.data(), block);
    return;
  }
#endif
  crypto_internal::Aes128EncryptBlockPortable(round_keys_.data(), block);
}

void Aes128::DecryptBlock(uint8_t block[kBlockSize]) const {
#if defined(__x86_64__) || defined(_M_X64)
  if (crypto_internal::AesNiActive()) {
    crypto_internal::Aes128DecryptBlockAesNi(round_keys_.data(), block);
    return;
  }
#endif
  crypto_internal::Aes128DecryptBlockPortable(round_keys_.data(), block);
}

Result<std::string> Aes128::EncryptValue(const std::string& value) const {
  if (value.size() > 255) {
    return Status::InvalidArgument(
        "EncryptValue: value longer than 255 bytes");
  }
  // Chunk the plaintext into 15-byte pieces; each block stores
  // [remaining-length byte][15 bytes of payload, zero padded]. The length
  // byte makes the overall mapping injective. Hex digits are written
  // straight into the output string (same encoding as HexEncode) — one
  // allocation per value instead of three.
  static constexpr char kHex[] = "0123456789abcdef";
  const size_t blocks = value.size() / kChunk + 1;
  std::string out;
  out.reserve(blocks * kBlockSize * 2);
  size_t offset = 0;
  size_t remaining = value.size();
  do {
    uint8_t block[kBlockSize] = {0};
    block[0] = static_cast<uint8_t>(remaining);
    const size_t take = std::min(kChunk, value.size() - offset);
    std::memcpy(block + 1, value.data() + offset, take);
    EncryptBlock(block);
    for (size_t i = 0; i < kBlockSize; ++i) {
      out.push_back(kHex[block[i] >> 4]);
      out.push_back(kHex[block[i] & 0xF]);
    }
    offset += take;
    remaining = (remaining > kChunk) ? remaining - kChunk : 0;
  } while (remaining > 0);
  return out;
}

Result<std::string> Aes128::DecryptValue(
    const std::string& hex_ciphertext) const {
  PRIVMARK_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                            HexDecode(hex_ciphertext));
  if (bytes.empty() || bytes.size() % kBlockSize != 0) {
    return Status::InvalidArgument(
        "DecryptValue: ciphertext length not a positive multiple of 16");
  }
  std::string value;
  size_t expected_remaining = 0;
  for (size_t b = 0; b < bytes.size(); b += kBlockSize) {
    uint8_t block[kBlockSize];
    std::memcpy(block, bytes.data() + b, kBlockSize);
    DecryptBlock(block);
    const size_t remaining = block[0];
    if (b == 0) {
      expected_remaining = remaining;
    } else if (remaining != expected_remaining) {
      return Status::VerificationFailed(
          "DecryptValue: inconsistent chunk headers (wrong key?)");
    }
    const size_t take = std::min(kChunk, remaining);
    value.append(reinterpret_cast<char*>(block + 1), take);
    expected_remaining = (remaining > kChunk) ? remaining - kChunk : 0;
  }
  if (expected_remaining != 0) {
    return Status::VerificationFailed(
        "DecryptValue: truncated ciphertext (wrong key?)");
  }
  return value;
}

}  // namespace privmark
