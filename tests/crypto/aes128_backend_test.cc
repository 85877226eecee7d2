// The AES-128 block backends must be interchangeable byte for byte: the
// portable kernel is the oracle, the AES-NI kernel (when the build and CPU
// have it) must match it in both directions, and Aes128's dispatched
// EncryptValue/DecryptValue must agree with a value encoding built from
// the portable kernel alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "crypto/aes128.h"
#include "crypto/aes128_internal.h"

namespace privmark {
namespace {

using RoundKeys = std::array<uint8_t, crypto_internal::kAes128RoundKeyBytes>;
using Block = std::array<uint8_t, Aes128::kBlockSize>;

std::array<uint8_t, Aes128::kKeySize> RandomKey(Random* rng) {
  std::array<uint8_t, Aes128::kKeySize> key;
  for (uint8_t& b : key) b = static_cast<uint8_t>(rng->Uniform(256));
  return key;
}

Block RandomBlock(Random* rng) {
  Block block;
  for (uint8_t& b : block) b = static_cast<uint8_t>(rng->Uniform(256));
  return block;
}

RoundKeys Expand(const std::array<uint8_t, Aes128::kKeySize>& key) {
  RoundKeys round_keys;
  crypto_internal::Aes128ExpandKey(key.data(), round_keys.data());
  return round_keys;
}

std::string RandomValue(Random* rng, size_t length) {
  std::string value(length, '\0');
  for (char& ch : value) ch = static_cast<char>(rng->Uniform(256));
  return value;
}

// EncryptValue's wire format rebuilt on the portable kernel: per 15-byte
// chunk one block [remaining length][payload, zero padded], hex encoded.
std::string PortableEncryptValue(const RoundKeys& round_keys,
                                 const std::string& value) {
  std::string hex;
  size_t offset = 0;
  size_t remaining = value.size();
  do {
    Block block{};
    block[0] = static_cast<uint8_t>(remaining);
    const size_t take = std::min<size_t>(15, remaining);
    std::memcpy(block.data() + 1, value.data() + offset, take);
    crypto_internal::Aes128EncryptBlockPortable(round_keys.data(),
                                                block.data());
    hex += HexEncode(std::vector<uint8_t>(block.begin(), block.end()));
    offset += take;
    remaining -= take;
  } while (remaining > 0);
  return hex;
}

TEST(Aes128BackendTest, PortableKernelMatchesFips197KnownAnswer) {
  // FIPS-197 Appendix C.1.
  std::array<uint8_t, Aes128::kKeySize> key;
  const std::vector<uint8_t> key_bytes =
      HexDecode("000102030405060708090a0b0c0d0e0f").ValueOrDie();
  std::memcpy(key.data(), key_bytes.data(), key.size());
  const RoundKeys round_keys = Expand(key);
  Block block;
  const std::vector<uint8_t> plain =
      HexDecode("00112233445566778899aabbccddeeff").ValueOrDie();
  std::memcpy(block.data(), plain.data(), block.size());
  crypto_internal::Aes128EncryptBlockPortable(round_keys.data(), block.data());
  EXPECT_EQ(HexEncode(std::vector<uint8_t>(block.begin(), block.end())),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
  crypto_internal::Aes128DecryptBlockPortable(round_keys.data(), block.data());
  EXPECT_EQ(HexEncode(std::vector<uint8_t>(block.begin(), block.end())),
            "00112233445566778899aabbccddeeff");
}

TEST(Aes128BackendTest, DispatchedBlocksEqualPortableKernel) {
  Random rng(20050405);
  for (int trial = 0; trial < 200; ++trial) {
    const auto key = RandomKey(&rng);
    const Aes128 cipher(key);
    const RoundKeys round_keys = Expand(key);
    const Block plain = RandomBlock(&rng);

    Block dispatched = plain;
    Block portable = plain;
    cipher.EncryptBlock(dispatched.data());
    crypto_internal::Aes128EncryptBlockPortable(round_keys.data(),
                                                portable.data());
    ASSERT_EQ(dispatched, portable) << "trial " << trial;

    cipher.DecryptBlock(dispatched.data());
    crypto_internal::Aes128DecryptBlockPortable(round_keys.data(),
                                                portable.data());
    ASSERT_EQ(dispatched, plain) << "trial " << trial;
    ASSERT_EQ(portable, plain) << "trial " << trial;
  }
}

#if defined(__x86_64__) || defined(_M_X64)

TEST(Aes128BackendTest, AesNiEncryptEqualsPortable) {
  if (!crypto_internal::AesNiActive()) {
    GTEST_SKIP() << "AES-NI kernels not compiled in or CPU lacks AES-NI";
  }
  Random rng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    const RoundKeys round_keys = Expand(RandomKey(&rng));
    const Block plain = RandomBlock(&rng);
    Block aesni = plain;
    Block portable = plain;
    crypto_internal::Aes128EncryptBlockAesNi(round_keys.data(), aesni.data());
    crypto_internal::Aes128EncryptBlockPortable(round_keys.data(),
                                                portable.data());
    ASSERT_EQ(aesni, portable) << "trial " << trial;
  }
}

TEST(Aes128BackendTest, AesNiDecryptEqualsPortable) {
  if (!crypto_internal::AesNiActive()) {
    GTEST_SKIP() << "AES-NI kernels not compiled in or CPU lacks AES-NI";
  }
  Random rng(2);
  for (int trial = 0; trial < 2000; ++trial) {
    const RoundKeys round_keys = Expand(RandomKey(&rng));
    // Arbitrary ciphertext blocks, not only ones the kernels produced.
    const Block cipher_block = RandomBlock(&rng);
    Block aesni = cipher_block;
    Block portable = cipher_block;
    crypto_internal::Aes128DecryptBlockAesNi(round_keys.data(), aesni.data());
    crypto_internal::Aes128DecryptBlockPortable(round_keys.data(),
                                                portable.data());
    ASSERT_EQ(aesni, portable) << "trial " << trial;
  }
}

TEST(Aes128BackendTest, AesNiAndPortableInvertEachOther) {
  if (!crypto_internal::AesNiActive()) {
    GTEST_SKIP() << "AES-NI kernels not compiled in or CPU lacks AES-NI";
  }
  Random rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    const RoundKeys round_keys = Expand(RandomKey(&rng));
    const Block plain = RandomBlock(&rng);
    Block block = plain;
    crypto_internal::Aes128EncryptBlockAesNi(round_keys.data(), block.data());
    crypto_internal::Aes128DecryptBlockPortable(round_keys.data(),
                                                block.data());
    ASSERT_EQ(block, plain) << "trial " << trial;
    crypto_internal::Aes128EncryptBlockPortable(round_keys.data(),
                                                block.data());
    crypto_internal::Aes128DecryptBlockAesNi(round_keys.data(), block.data());
    ASSERT_EQ(block, plain) << "trial " << trial;
  }
}

#endif  // x86-64

TEST(Aes128BackendTest, ValuesOfEveryLengthMatchPortableEncoding) {
  // Lengths 0..255 cover every chunk count, including the 14/15/16 and
  // 30/31 edges where a value fills or just spills a 15-byte chunk.
  Random rng(4);
  for (size_t length = 0; length <= 255; ++length) {
    const auto key = RandomKey(&rng);
    const Aes128 cipher(key);
    const RoundKeys round_keys = Expand(key);
    const std::string value = RandomValue(&rng, length);
    const std::string expected = PortableEncryptValue(round_keys, value);

    auto encrypted = cipher.EncryptValue(value);
    ASSERT_TRUE(encrypted.ok()) << encrypted.status().ToString();
    ASSERT_EQ(*encrypted, expected) << "length " << length;
    const size_t blocks = length == 0 ? 1 : (length + 14) / 15;
    EXPECT_EQ(encrypted->size(), blocks * 32) << "length " << length;

    auto decrypted = cipher.DecryptValue(expected);
    ASSERT_TRUE(decrypted.ok()) << decrypted.status().ToString();
    ASSERT_EQ(*decrypted, value) << "length " << length;
  }
}

TEST(Aes128BackendTest, ChunkEdgeValuesDecryptBlockByBlockOnPortable) {
  // The dispatched ciphertext, taken apart with the portable inverse
  // cipher, shows EncryptValue's chunk headers and payload.
  Random rng(5);
  const auto key = RandomKey(&rng);
  const Aes128 cipher(key);
  const RoundKeys round_keys = Expand(key);
  for (size_t length : {0, 1, 14, 15, 16, 29, 30, 31, 45, 254, 255}) {
    const std::string value = RandomValue(&rng, length);
    auto encrypted = cipher.EncryptValue(value);
    ASSERT_TRUE(encrypted.ok());
    const std::vector<uint8_t> bytes = HexDecode(*encrypted).ValueOrDie();
    std::string recovered;
    size_t remaining = length;
    for (size_t b = 0; b < bytes.size(); b += Aes128::kBlockSize) {
      Block block;
      std::memcpy(block.data(), bytes.data() + b, block.size());
      crypto_internal::Aes128DecryptBlockPortable(round_keys.data(),
                                                  block.data());
      ASSERT_EQ(block[0], remaining) << "length " << length;
      const size_t take = std::min<size_t>(15, remaining);
      recovered.append(reinterpret_cast<const char*>(block.data() + 1), take);
      for (size_t pad = 1 + take; pad < block.size(); ++pad) {
        ASSERT_EQ(block[pad], 0) << "length " << length;
      }
      remaining -= take;
    }
    EXPECT_EQ(recovered, value) << "length " << length;
  }
}

}  // namespace
}  // namespace privmark
