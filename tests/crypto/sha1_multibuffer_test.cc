// Boundary suite for the multi-buffer SHA-1 kernel: for every compiled
// backend, HashPaddedBlocks64 must equal the leading 8 bytes of the scalar
// Sha1 for every lane count and every padding-relevant message length,
// including lanes with mixed block counts (where finished lanes ride along
// and a last straggler finishes scalarly). The blocks come from a padder
// local to this file, so a padding bug in the keyed-hash padder cannot
// hide here.

#include "crypto/sha1_multibuffer.h"

#include <gtest/gtest.h>

#include <algorithm>
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

// First 8 bytes of the streaming Sha1 digest as a big-endian uint64.
uint64_t ScalarPrefix(std::string_view msg) {
  const std::vector<uint8_t> digest = Sha1::Hash(msg);
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out = (out << 8) | digest[i];
  return out;
}

// Pads each message on its own (bytes, 0x80, zeros, big-endian bit length)
// and scatters its blocks into the block-major layout HashPaddedBlocks64
// takes: message i's block b at kBlockSize * (b * n + i). Slots past a
// message's last block stay zero. Returns outs[i] for messages[i].
std::vector<uint64_t> HashPadded(const std::vector<std::string>& messages) {
  constexpr size_t kBlock = Sha1MultiBuffer::kBlockSize;
  const size_t n = messages.size();
  std::vector<size_t> num_blocks;
  size_t rows = 0;
  for (const std::string& m : messages) {
    num_blocks.push_back((m.size() + 8) / kBlock + 1);
    rows = std::max(rows, num_blocks.back());
  }
  std::vector<uint8_t> blocks(rows * n * kBlock, 0);
  for (size_t i = 0; i < n; ++i) {
    const std::string& m = messages[i];
    std::vector<uint8_t> padded(num_blocks[i] * kBlock, 0);
    std::memcpy(padded.data(), m.data(), m.size());
    padded[m.size()] = 0x80;
    const uint64_t bit_len = static_cast<uint64_t>(m.size()) * 8;
    for (int b = 0; b < 8; ++b) {
      padded[padded.size() - 1 - b] = static_cast<uint8_t>(bit_len >> (8 * b));
    }
    for (size_t b = 0; b < num_blocks[i]; ++b) {
      std::memcpy(blocks.data() + kBlock * (b * n + i),
                  padded.data() + kBlock * b, kBlock);
    }
  }
  std::vector<uint64_t> outs(n, 0);
  Sha1MultiBuffer::HashPaddedBlocks64(blocks.data(), num_blocks.data(), n,
                                      outs.data());
  return outs;
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
      std::vector<std::string> messages;
      for (size_t l = 0; l < lanes; ++l) {
        messages.push_back(MessageOfLength(len, l));
      }
      const std::vector<uint64_t> outs = HashPadded(messages);
      for (size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(outs[l], ScalarPrefix(messages[l]))
            << "backend=" << GetParam() << " lanes=" << lanes
            << " len=" << len << " lane=" << l;
      }
    }
  }
}

TEST_P(Sha1MultiBufferBackendTest, MixedLengthsFallOutOfLockStep) {
  // Rotate the boundary lengths through the lanes so every group mixes
  // one-, two- and three-block messages: finished lanes ride along, and
  // the stragglers exercise the scalar strided-state fallback.
  const size_t num_lens = sizeof(kBoundaryLengths) / sizeof(size_t);
  for (size_t lanes = 1; lanes <= Sha1MultiBuffer::kMaxLanes; ++lanes) {
    for (size_t rot = 0; rot < num_lens; ++rot) {
      std::vector<std::string> messages;
      for (size_t l = 0; l < lanes; ++l) {
        messages.push_back(
            MessageOfLength(kBoundaryLengths[(rot + l) % num_lens], l));
      }
      const std::vector<uint64_t> outs = HashPadded(messages);
      for (size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(outs[l], ScalarPrefix(messages[l]))
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
    std::vector<std::string> messages;
    for (size_t i = 0; i < n; ++i) {
      messages.push_back(MessageOfLength(i % 70, i));
    }
    const std::vector<uint64_t> outs = HashPadded(messages);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(outs[i], ScalarPrefix(messages[i]))
          << "backend=" << GetParam() << " n=" << n << " i=" << i;
    }
  }
}

TEST_P(Sha1MultiBufferBackendTest, PaddedBlocksMatchDigestPrefix) {
  // One-block messages (0..55 bytes) over every batch size up to two
  // widest groups plus one: full groups, every partial tail, and a lone
  // block.
  for (size_t n = 0; n <= 2 * Sha1MultiBuffer::kMaxLanes + 1; ++n) {
    std::vector<std::string> messages;
    for (size_t i = 0; i < n; ++i) {
      messages.push_back(MessageOfLength((i * 7) % 56, i));
    }
    const std::vector<uint64_t> outs = HashPadded(messages);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(outs[i], ScalarPrefix(messages[i]))
          << "backend=" << GetParam() << " n=" << n << " i=" << i;
    }
  }
}

TEST(Sha1MultiBufferTest, ZeroMessagesIsANoOp) {
  uint64_t sentinel[4];
  for (uint64_t& word : sentinel) word = 0xABABABABABABABABull;
  Sha1MultiBuffer::HashPaddedBlocks64(nullptr, nullptr, 0, sentinel);
  for (uint64_t word : sentinel) EXPECT_EQ(word, 0xABABABABABABABABull);
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
