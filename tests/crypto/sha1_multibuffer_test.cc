// Boundary suite for the multi-buffer SHA-1 kernel: every compiled backend
// must be byte-identical to the scalar Sha1 for every lane count and every
// padding-relevant message length, including lanes with mixed block counts
// (where some lanes fall out of lock-step and finish scalarly).

#include "crypto/sha1_multibuffer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/sha1.h"

namespace privmark {
namespace {

// Padding boundaries: 55 is the most that fits one padded block, 56 is the
// first length needing a second block, 64 is exactly one data block, 65
// starts a second data block, 119/120 repeat the padding boundary in the
// second block, 128 is two full data blocks.
const size_t kBoundaryLengths[] = {0, 1, 3, 55, 56, 57, 63, 64, 65, 119, 120, 128};

std::string MessageOfLength(size_t len, size_t salt) {
  std::string msg;
  msg.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    msg.push_back(static_cast<char>('a' + (i + 7 * salt) % 26));
  }
  return msg;
}

std::vector<uint8_t> ScalarDigest(std::string_view msg) {
  return Sha1::Hash(msg);
}

class Sha1MultiBufferBackendTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(Sha1MultiBuffer::ForceBackend(GetParam()))
        << "backend unavailable: " << GetParam();
  }
  void TearDown() override { Sha1MultiBuffer::ForceBackend("auto"); }
};

TEST_P(Sha1MultiBufferBackendTest, LaneCountsTimesBoundaryLengths) {
  // Every lane count 1..kMaxLanes with every uniform boundary length.
  for (size_t lanes = 1; lanes <= Sha1MultiBuffer::kMaxLanes; ++lanes) {
    for (size_t len : kBoundaryLengths) {
      std::vector<std::string> storage;
      std::vector<std::string_view> views;
      for (size_t l = 0; l < lanes; ++l) {
        storage.push_back(MessageOfLength(len, l));
      }
      for (const std::string& s : storage) views.push_back(s);
      std::vector<uint8_t> out(lanes * Sha1MultiBuffer::kDigestSize);
      Sha1MultiBuffer::Hash(views.data(), lanes, out.data());
      for (size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(0, std::memcmp(
                         ScalarDigest(views[l]).data(),
                         out.data() + l * Sha1MultiBuffer::kDigestSize,
                         Sha1MultiBuffer::kDigestSize))
            << "backend=" << GetParam() << " lanes=" << lanes
            << " len=" << len << " lane=" << l;
      }
    }
  }
}

TEST_P(Sha1MultiBufferBackendTest, MixedLengthsFallOutOfLockStep) {
  // Rotate the boundary lengths through the lanes so every group mixes
  // one-block and multi-block messages — the stragglers exercise the
  // scalar strided-state fallback.
  const size_t num_lens = sizeof(kBoundaryLengths) / sizeof(size_t);
  for (size_t lanes = 1; lanes <= Sha1MultiBuffer::kMaxLanes; ++lanes) {
    for (size_t rot = 0; rot < num_lens; ++rot) {
      std::vector<std::string> storage;
      std::vector<std::string_view> views;
      for (size_t l = 0; l < lanes; ++l) {
        storage.push_back(
            MessageOfLength(kBoundaryLengths[(rot + l) % num_lens], l));
      }
      for (const std::string& s : storage) views.push_back(s);
      std::vector<uint8_t> out(lanes * Sha1MultiBuffer::kDigestSize);
      Sha1MultiBuffer::Hash(views.data(), lanes, out.data());
      for (size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(0, std::memcmp(
                         ScalarDigest(views[l]).data(),
                         out.data() + l * Sha1MultiBuffer::kDigestSize,
                         Sha1MultiBuffer::kDigestSize))
            << "backend=" << GetParam() << " lanes=" << lanes
            << " rot=" << rot << " lane=" << l;
      }
    }
  }
}

TEST_P(Sha1MultiBufferBackendTest, LargeBatchWithRaggedTail) {
  // Batches far past one lane group, with sizes that leave every possible
  // tail remainder (0..kMaxLanes-1 messages after the full groups).
  for (size_t n = 17; n <= 17 + Sha1MultiBuffer::kMaxLanes; ++n) {
    std::vector<std::string> storage;
    std::vector<std::string_view> views;
    for (size_t i = 0; i < n; ++i) {
      storage.push_back(MessageOfLength(i % 70, i));
    }
    for (const std::string& s : storage) views.push_back(s);
    std::vector<uint8_t> out(n * Sha1MultiBuffer::kDigestSize);
    Sha1MultiBuffer::Hash(views.data(), n, out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(0, std::memcmp(ScalarDigest(views[i]).data(),
                               out.data() + i * Sha1MultiBuffer::kDigestSize,
                               Sha1MultiBuffer::kDigestSize))
          << "backend=" << GetParam() << " n=" << n << " i=" << i;
    }
  }
}

TEST_P(Sha1MultiBufferBackendTest, PaddedBlocksMatchDigestPrefix) {
  // The single-block fast path over every batch size up to two widest
  // groups plus one: full groups, every partial tail, and a lone block.
  for (size_t n = 0; n <= 2 * Sha1MultiBuffer::kMaxLanes + 1; ++n) {
    std::vector<std::string> storage;
    std::vector<uint8_t> blocks(n * Sha1MultiBuffer::kBlockSize, 0);
    for (size_t i = 0; i < n; ++i) {
      storage.push_back(MessageOfLength(
          (i * 7) % (Sha1MultiBuffer::kMaxSingleBlockMessage + 1), i));
      const std::string& m = storage.back();
      uint8_t* block = blocks.data() + i * Sha1MultiBuffer::kBlockSize;
      std::memcpy(block, m.data(), m.size());
      block[m.size()] = 0x80;
      block[62] = static_cast<uint8_t>((m.size() * 8) >> 8);
      block[63] = static_cast<uint8_t>(m.size() * 8);
    }
    std::vector<uint64_t> outs(n, 0);
    Sha1MultiBuffer::HashPaddedBlocks64(blocks.data(), n, outs.data());
    for (size_t i = 0; i < n; ++i) {
      const std::vector<uint8_t> digest = ScalarDigest(storage[i]);
      uint64_t expected = 0;
      for (int b = 0; b < 8; ++b) expected = (expected << 8) | digest[b];
      EXPECT_EQ(outs[i], expected)
          << "backend=" << GetParam() << " n=" << n << " i=" << i;
    }
  }
}

TEST(Sha1MultiBufferTest, ZeroMessagesIsANoOp) {
  uint8_t sentinel[Sha1MultiBuffer::kDigestSize];
  std::memset(sentinel, 0xAB, sizeof(sentinel));
  Sha1MultiBuffer::Hash(nullptr, 0, sentinel);
  for (uint8_t byte : sentinel) EXPECT_EQ(byte, 0xAB);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, Sha1MultiBufferBackendTest,
                         ::testing::ValuesIn(
                             Sha1MultiBuffer::AvailableBackends()),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(Sha1MultiBufferTest, PortableBackendAlwaysAvailable) {
  const std::vector<const char*> backends =
      Sha1MultiBuffer::AvailableBackends();
  ASSERT_FALSE(backends.empty());
  bool has_portable = false;
  for (const char* name : backends) {
    has_portable = has_portable || std::strcmp(name, "portable") == 0;
  }
  EXPECT_TRUE(has_portable);
  // The auto-selected backend is the first (most preferred) available one.
  ASSERT_TRUE(Sha1MultiBuffer::ForceBackend("auto"));
  EXPECT_STREQ(Sha1MultiBuffer::Backend(), backends.front());
}

TEST(Sha1MultiBufferTest, ForceBackendRejectsUnknownNames) {
  const char* before = Sha1MultiBuffer::Backend();
  EXPECT_FALSE(Sha1MultiBuffer::ForceBackend("sha512-quantum"));
  EXPECT_STREQ(Sha1MultiBuffer::Backend(), before);
}

TEST(Sha1MultiBufferTest, ForceBackendAcceptsAvx512OnlyWhenAvailable) {
  // "avx512" is a known name, but a CPU (or build) without it must refuse
  // it like an unknown one: false, and the active backend unchanged.
  bool available = false;
  for (const char* name : Sha1MultiBuffer::AvailableBackends()) {
    available = available || std::strcmp(name, "avx512") == 0;
  }
  ASSERT_TRUE(Sha1MultiBuffer::ForceBackend("portable"));
  EXPECT_EQ(Sha1MultiBuffer::ForceBackend("avx512"), available);
  EXPECT_STREQ(Sha1MultiBuffer::Backend(), available ? "avx512" : "portable");
  Sha1MultiBuffer::ForceBackend("auto");
}

TEST(Sha1MultiBufferTest, PreferredLanesMatchesBackendWidth) {
  const size_t lanes = Sha1MultiBuffer::PreferredLanes();
  EXPECT_TRUE(lanes == 4 || lanes == 8 || lanes == 16);
  EXPECT_LE(lanes, Sha1MultiBuffer::kMaxLanes);
  EXPECT_EQ(lanes == 16,
            std::strcmp(Sha1MultiBuffer::Backend(), "avx512") == 0);
}

}  // namespace
}  // namespace privmark
