#include "crypto/keyed_hash.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "crypto/sha1.h"
#include "crypto/sha1_multibuffer.h"

namespace privmark {
namespace {

TEST(KeyedHashTest, Deterministic) {
  EXPECT_EQ(KeyedHash64(HashAlgorithm::kSha1, "k", "m"),
            KeyedHash64(HashAlgorithm::kSha1, "k", "m"));
}

TEST(KeyedHashTest, KeySeparation) {
  EXPECT_NE(KeyedHash64(HashAlgorithm::kSha1, "k1", "m"),
            KeyedHash64(HashAlgorithm::kSha1, "k2", "m"));
}

TEST(KeyedHashTest, MessageSeparation) {
  EXPECT_NE(KeyedHash64(HashAlgorithm::kSha1, "k", "m1"),
            KeyedHash64(HashAlgorithm::kSha1, "k", "m2"));
}

TEST(KeyedHashTest, BoundarySeparator) {
  // ("ab", "c") and ("a", "bc") must hash differently thanks to the \0
  // separator between key and message.
  EXPECT_NE(KeyedHash64(HashAlgorithm::kSha1, "ab", "c"),
            KeyedHash64(HashAlgorithm::kSha1, "a", "bc"));
}

TEST(KeyedHashTest, DigestIsSha1OfKeySeparatorMessage) {
  // H(m, k) is SHA-1 over key || 0x00 || message, nothing more.
  EXPECT_EQ(KeyedDigest(HashAlgorithm::kSha1, "k", "m"),
            Sha1::Hash(std::string_view("k\0m", 3)));
  EXPECT_NE(KeyedDigest(HashAlgorithm::kSha1, "k", "m"), Sha1::Hash("km"));
}

TEST(KeyedHashTest, DigestSizesMatchAlgorithm) {
  EXPECT_EQ(KeyedDigest(HashAlgorithm::kSha1, "k", "m").size(), 20u);
}

TEST(KeyedHashTest, Hash64UsesLeadingDigestBytes) {
  const auto digest = KeyedDigest(HashAlgorithm::kSha1, "k", "m");
  uint64_t expected = 0;
  for (int i = 0; i < 8; ++i) expected = (expected << 8) | digest[i];
  EXPECT_EQ(KeyedHash64(HashAlgorithm::kSha1, "k", "m"), expected);
}

TEST(KeyedHashTest, ModuloSelectionRateApproximatesOneOverEta) {
  // Eq. (5)'s selection rate over many identifiers should be ~1/eta.
  constexpr uint64_t kEta = 50;
  size_t selected = 0;
  constexpr size_t kIdents = 20000;
  for (size_t i = 0; i < kIdents; ++i) {
    const std::string ident = "ident-" + std::to_string(i);
    if (KeyedHash64(HashAlgorithm::kSha1, "secret", ident) % kEta == 0) {
      ++selected;
    }
  }
  const double rate = static_cast<double>(selected) / kIdents;
  EXPECT_NEAR(rate, 1.0 / kEta, 0.006);
}

TEST(KeyedHashTest, OutputsSpreadAcrossRange) {
  // Sanity check against gross bias: bucket the top byte.
  std::set<uint8_t> top_bytes;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t h =
        KeyedHash64(HashAlgorithm::kSha1, "k", "msg" + std::to_string(i));
    top_bytes.insert(static_cast<uint8_t>(h >> 56));
  }
  EXPECT_GT(top_bytes.size(), 200u);
}

// --- KeyedHash64Batch equivalence -----------------------------------------
//
// The batch entry points pad every keyed input straight into the
// multi-buffer lane array, and the scalar SHA-1 KeyedHash64 is a batch of
// one through the same padder, so comparing the two could not catch a
// padding bug. Every test here takes its reference from the leading 8
// bytes of KeyedDigest, which streams through the incremental Sha1
// instead: for every batch size (full lane groups plus every tail
// remainder), every block count, and inputs past the 4-block cap.

// First 8 bytes of KeyedDigest as a big-endian uint64.
uint64_t ReferenceHash64(HashAlgorithm algo, std::string_view key,
                         std::string_view message) {
  const std::vector<uint8_t> digest = KeyedDigest(algo, key, message);
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out = (out << 8) | digest[i];
  return out;
}

std::string BatchMessage(size_t i, size_t len) {
  std::string msg = "msg-" + std::to_string(i) + "-";
  while (msg.size() < len) {
    msg.push_back(static_cast<char>('A' + (msg.size() + i) % 26));
  }
  msg.resize(len);
  return msg;
}

TEST(KeyedHashBatchTest, SingleKeyMatchesScalarAcrossBatchSizes) {
  // 0..40 covers the empty batch, partial groups, full 8/16-lane groups,
  // and every tail remainder past them.
  for (size_t n = 0; n <= 40; ++n) {
    std::vector<std::string> storage;
    std::vector<std::string_view> messages;
    for (size_t i = 0; i < n; ++i) {
      storage.push_back(BatchMessage(i, 8 + (i * 13) % 48));
    }
    for (const std::string& s : storage) messages.push_back(s);
    std::vector<uint64_t> out(n, 0);
    KeyedHash64Batch(HashAlgorithm::kSha1, "batch-key", messages.data(), n,
                     out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], ReferenceHash64(HashAlgorithm::kSha1, "batch-key",
                                        messages[i]))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KeyedHashBatchTest, KeysChangeBetweenCallsMatchScalar) {
  // Each call writes its key into a fresh template. Back-to-back calls
  // under five keys of different lengths (including two past one block),
  // longest first and then shortest first, would show a stale template
  // head left over from the previous key.
  const std::string keys[] = {std::string(130, 'q'), std::string(70, 'r'),
                              "key-forty-bytes-long-0123456789abcdefghi",
                              "key-nine!", "k"};
  constexpr size_t kN = 37;
  std::vector<std::string> msgs;
  for (size_t i = 0; i < kN; ++i) msgs.push_back(BatchMessage(i, 4 + i * 3));
  const std::vector<std::string_view> messages(msgs.begin(), msgs.end());
  const size_t order[] = {0, 1, 2, 3, 4, 4, 3, 2, 1, 0};
  for (size_t k : order) {
    std::vector<uint64_t> out(kN, 0);
    KeyedHash64Batch(HashAlgorithm::kSha1, keys[k], messages.data(), kN,
                     out.data());
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(out[i],
                ReferenceHash64(HashAlgorithm::kSha1, keys[k], messages[i]))
          << "key length " << keys[k].size() << " i=" << i;
    }
  }
}

TEST(KeyedHashBatchTest, EmptyAndStreamingKeysAcrossBatchSizes) {
  // An empty key (the separator opens the message), a key whose prefix
  // fills the 4-block cap so only an empty message pads, and keys with
  // key + 1 > 247 bytes, for which the whole call streams; each over the
  // batch sizes around the 16-lane chunk.
  const std::string keys[] = {"", std::string(246, 'p'),
                              std::string(247, 's'), std::string(300, 't')};
  for (const std::string& key : keys) {
    for (size_t n : {0, 1, 15, 16, 17, 33}) {
      std::vector<std::string> storage;
      for (size_t i = 0; i < n; ++i) {
        storage.push_back(BatchMessage(i, (i * 11) % 70));
      }
      storage.resize(n);
      if (n > 0) storage[0].clear();
      const std::vector<std::string_view> messages(storage.begin(),
                                                   storage.end());
      // One guard slot past the batch: the call writes outs[0, n) only.
      std::vector<uint64_t> out(n + 1, 0x5a5a5a5a5a5a5a5aull);
      KeyedHash64Batch(HashAlgorithm::kSha1, key, messages.data(), n,
                       out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i],
                  ReferenceHash64(HashAlgorithm::kSha1, key, messages[i]))
            << "key length " << key.size() << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(out[n], 0x5a5a5a5a5a5a5a5aull)
          << "key length " << key.size() << " n=" << n;
    }
  }
}

TEST(KeyedHashBatchTest, LongMessagesUseHeapAssemblyAndStillMatch) {
  // Three- and four-block inputs, then key + separator + message past the
  // 4-block cap (247 bytes: message 238 with this 8-byte key), which
  // streams through Sha1 beside the padded lanes of the same batch.
  const size_t lengths[] = {150, 191, 192, 193, 238, 239, 400, 5000};
  constexpr size_t kN = sizeof(lengths) / sizeof(lengths[0]);
  std::vector<std::string> storage;
  std::vector<std::string_view> messages;
  for (size_t i = 0; i < kN; ++i) {
    storage.push_back(BatchMessage(i, lengths[i]));
  }
  for (const std::string& s : storage) messages.push_back(s);
  std::vector<uint64_t> out(kN, 0);
  KeyedHash64Batch(HashAlgorithm::kSha1, "long-key", messages.data(), kN,
                   out.data());
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(out[i],
              ReferenceHash64(HashAlgorithm::kSha1, "long-key", messages[i]))
        << "len=" << lengths[i];
  }
}

TEST(KeyedHashBatchTest, IdenticalAcrossBackends) {
  // Forcing each compiled SHA-1 backend must not change a single value.
  std::vector<std::string> storage;
  std::vector<std::string_view> messages;
  for (size_t i = 0; i < 23; ++i) {
    storage.push_back(BatchMessage(i, 10 + (i * 17) % 220));
  }
  for (const std::string& s : storage) messages.push_back(s);
  std::vector<uint64_t> reference(23, 0);
  for (size_t i = 0; i < 23; ++i) {
    reference[i] = ReferenceHash64(HashAlgorithm::kSha1, "bk", messages[i]);
  }
  for (const char* backend : Sha1MultiBuffer::AvailableBackends()) {
    ASSERT_TRUE(Sha1MultiBuffer::ForceBackend(backend));
    std::vector<uint64_t> out(23, 0);
    KeyedHash64Batch(HashAlgorithm::kSha1, "bk", messages.data(), 23,
                     out.data());
    EXPECT_EQ(out, reference) << "backend=" << backend;
  }
  Sha1MultiBuffer::ForceBackend("auto");
}

TEST(KeyedHashBatchTest, SixteenLaneGroupsStraddleTheSingleBlockLimit) {
  // key + 0x00 + message totals of 54 and 55 bytes pad to one block; 56,
  // 63 and 64 need a second. Per backend, each total runs
  // as a uniform group of 16, then with a 100-byte two-block input in the
  // middle of the group, then all five totals rotate through one group.
  const std::string key = "straddle-key";
  const size_t totals[] = {54, 55, 56, 63, 64};
  auto message_for_total = [&key](size_t total, size_t i) {
    return BatchMessage(i, total - key.size() - 1);
  };
  std::vector<std::vector<std::string>> groups;
  for (size_t total : totals) {
    std::vector<std::string> group;
    for (size_t i = 0; i < 16; ++i) {
      group.push_back(message_for_total(total, i));
    }
    groups.push_back(group);
    group[8] = message_for_total(100, 8);
    groups.push_back(group);
  }
  std::vector<std::string> rotated;
  for (size_t i = 0; i < 16; ++i) {
    rotated.push_back(message_for_total(totals[i % 5], i));
  }
  groups.push_back(rotated);
  for (const char* backend : Sha1MultiBuffer::AvailableBackends()) {
    ASSERT_TRUE(Sha1MultiBuffer::ForceBackend(backend));
    for (size_t g = 0; g < groups.size(); ++g) {
      const std::vector<std::string_view> messages(groups[g].begin(),
                                                   groups[g].end());
      std::vector<uint64_t> out(16, 0);
      KeyedHash64Batch(HashAlgorithm::kSha1, key, messages.data(), 16,
                       out.data());
      for (size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(out[i],
                  ReferenceHash64(HashAlgorithm::kSha1, key, messages[i]))
            << "backend=" << backend << " group=" << g << " i=" << i
            << " total=" << key.size() + 1 + messages[i].size();
      }
    }
  }
  Sha1MultiBuffer::ForceBackend("auto");
}

TEST(KeyedHashBatchTest, BlockCountsMixWithinOneGroup) {
  // key + 0x00 + message totals on both sides of every block boundary up
  // to the cap: 55/56 (one/two blocks), 119/120 (two/three), 183/184
  // (three/four) and 247/248 (four blocks / the first total over the cap,
  // which streams). Per backend, each total runs as a uniform group of 16,
  // then all eight rotate through one group; the scalar KeyedHash64 (a
  // batch of one) must agree too.
  const std::string key = "block-count-key";
  const size_t totals[] = {55, 56, 119, 120, 183, 184, 247, 248};
  constexpr size_t kTotals = sizeof(totals) / sizeof(totals[0]);
  auto message_for_total = [&key](size_t total, size_t i) {
    return BatchMessage(i, total - key.size() - 1);
  };
  std::vector<std::vector<std::string>> groups;
  for (size_t total : totals) {
    std::vector<std::string> group;
    for (size_t i = 0; i < 16; ++i) {
      group.push_back(message_for_total(total, i));
    }
    groups.push_back(group);
  }
  std::vector<std::string> rotated;
  for (size_t i = 0; i < 16; ++i) {
    rotated.push_back(message_for_total(totals[i % kTotals], i));
  }
  groups.push_back(rotated);
  for (const char* backend : Sha1MultiBuffer::AvailableBackends()) {
    ASSERT_TRUE(Sha1MultiBuffer::ForceBackend(backend));
    for (size_t g = 0; g < groups.size(); ++g) {
      const std::vector<std::string_view> messages(groups[g].begin(),
                                                   groups[g].end());
      std::vector<uint64_t> out(16, 0);
      KeyedHash64Batch(HashAlgorithm::kSha1, key, messages.data(), 16,
                       out.data());
      for (size_t i = 0; i < 16; ++i) {
        const uint64_t expected =
            ReferenceHash64(HashAlgorithm::kSha1, key, messages[i]);
        EXPECT_EQ(out[i], expected)
            << "backend=" << backend << " group=" << g << " i=" << i
            << " total=" << key.size() + 1 + messages[i].size();
        EXPECT_EQ(KeyedHash64(HashAlgorithm::kSha1, key, messages[i]),
                  expected)
            << "backend=" << backend << " scalar, total="
            << key.size() + 1 + messages[i].size();
      }
    }
  }
  Sha1MultiBuffer::ForceBackend("auto");
}

TEST(HashAlgorithmTest, Names) {
  EXPECT_STREQ(HashAlgorithmToString(HashAlgorithm::kSha1), "SHA1");
}

}  // namespace
}  // namespace privmark
