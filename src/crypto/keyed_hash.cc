#include "crypto/keyed_hash.h"

#include <cstring>

#include <string>

#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "crypto/sha1_multibuffer.h"

namespace privmark {

namespace {

// Keyed inputs up to this long are assembled as key || 0x00 || message in
// one stack buffer (single Update / single batch lane) instead of streamed
// in three Update calls. Covers every message the watermarking pipeline
// produces — idents, "pos:<ident>:<column>" and "perm:..." strings — with
// ample slack; longer inputs take the streaming path.
constexpr size_t kAssembleMax = 192;

// Assembles key || 0x00 || message into `buf` (>= kAssembleMax bytes).
// Caller guarantees it fits.
inline size_t AssembleKeyed(std::string_view key, std::string_view message,
                            uint8_t* buf) {
  std::memcpy(buf, key.data(), key.size());
  buf[key.size()] = 0x00;
  std::memcpy(buf + key.size() + 1, message.data(), message.size());
  return key.size() + 1 + message.size();
}

// Writes the one padded SHA-1 block of key || 0x00 || message to `block`
// (kBlockSize bytes). Caller guarantees the keyed input is at most
// Sha1MultiBuffer::kMaxSingleBlockMessage bytes.
inline void PadKeyedBlock(std::string_view key, std::string_view message,
                          uint8_t* block) {
  std::memset(block, 0, Sha1MultiBuffer::kBlockSize);
  const size_t len = AssembleKeyed(key, message, block);
  block[len] = 0x80;
  const uint64_t bit_len = static_cast<uint64_t>(len) * 8;
  for (int i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
}

inline uint64_t TruncateBe64(const uint8_t* digest) {
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out = (out << 8) | digest[i];
  }
  return out;
}

// Streams key || 0x00 || message into `hasher` and finishes into `out`
// (which must hold the algorithm's digest size). No heap allocation.
template <typename Hasher>
void StreamKeyedDigest(Hasher& hasher, std::string_view key,
                       std::string_view message, uint8_t* out) {
  hasher.Update(reinterpret_cast<const uint8_t*>(key.data()), key.size());
  const uint8_t sep = 0x00;
  hasher.Update(&sep, 1);
  hasher.Update(reinterpret_cast<const uint8_t*>(message.data()),
                message.size());
  hasher.FinishInto(out);
}

}  // namespace

const char* HashAlgorithmToString(HashAlgorithm algo) {
  switch (algo) {
    case HashAlgorithm::kSha1:
      return "SHA1";
    case HashAlgorithm::kMd5:
      return "MD5";
  }
  return "Unknown";
}

std::vector<uint8_t> KeyedDigest(HashAlgorithm algo, std::string_view key,
                                 std::string_view message) {
  switch (algo) {
    case HashAlgorithm::kSha1: {
      std::vector<uint8_t> digest(Sha1::kDigestSize);
      Sha1 hasher;
      StreamKeyedDigest(hasher, key, message, digest.data());
      return digest;
    }
    case HashAlgorithm::kMd5: {
      std::vector<uint8_t> digest(Md5::kDigestSize);
      Md5 hasher;
      StreamKeyedDigest(hasher, key, message, digest.data());
      return digest;
    }
  }
  return {};
}

uint64_t KeyedHash64(HashAlgorithm algo, std::string_view key,
                     std::string_view message) {
  // Both digests are >= 8 bytes; a stack buffer sized for the larger one
  // keeps this allocation-free.
  uint8_t digest[Sha1::kDigestSize];
  const size_t total = key.size() + 1 + message.size();
  switch (algo) {
    case HashAlgorithm::kSha1: {
      if (total <= 55) {
        // Keyed inputs are tiny (key, separator, short message): assemble
        // the padded block on the stack and compress exactly once.
        uint8_t buf[55];
        Sha1::HashSingleBlock(buf, AssembleKeyed(key, message, buf), digest);
        break;
      }
      if (total <= kAssembleMax) {
        // Still stack-assembled: one Update over the joined bytes beats
        // three small Updates through the 64-byte block buffer.
        uint8_t buf[kAssembleMax];
        Sha1 hasher;
        hasher.Update(buf, AssembleKeyed(key, message, buf));
        hasher.FinishInto(digest);
        break;
      }
      Sha1 hasher;
      StreamKeyedDigest(hasher, key, message, digest);
      break;
    }
    case HashAlgorithm::kMd5: {
      if (total <= kAssembleMax) {
        uint8_t buf[kAssembleMax];
        Md5 hasher;
        hasher.Update(buf, AssembleKeyed(key, message, buf));
        hasher.FinishInto(digest);
        break;
      }
      Md5 hasher;
      StreamKeyedDigest(hasher, key, message, digest);
      break;
    }
  }
  return TruncateBe64(digest);
}

void KeyedHash64Batch(HashAlgorithm algo, const KeyedHashInput* inputs,
                      size_t n, uint64_t* outs) {
  if (algo != HashAlgorithm::kSha1) {
    // MD5 has no multi-buffer kernel; values still match the scalar call.
    for (size_t i = 0; i < n; ++i) {
      outs[i] = KeyedHash64(algo, inputs[i].key, inputs[i].message);
    }
    return;
  }
  // Inputs go to the kernel in chunks of one widest lane group. A chunk
  // whose keyed inputs all fit one padded block (every Eq. (5) selection
  // hash) is padded straight into contiguous blocks for the single-block
  // fast path. Any other chunk is assembled as key || 0x00 || message per
  // lane on the stack (~3 KiB) and hashed by the general multi-block path.
  constexpr size_t kChunk = Sha1MultiBuffer::kMaxLanes;
  uint8_t blocks[kChunk * Sha1MultiBuffer::kBlockSize];
  uint8_t bufs[kChunk][kAssembleMax];
  std::string overflow[kChunk];  // rare: inputs longer than kAssembleMax
  std::string_view views[kChunk];
  uint8_t digests[kChunk * Sha1MultiBuffer::kDigestSize];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = n - base < kChunk ? n - base : kChunk;
    bool single_block = true;
    for (size_t i = 0; i < m && single_block; ++i) {
      const KeyedHashInput& in = inputs[base + i];
      single_block = in.key.size() + 1 + in.message.size() <=
                     Sha1MultiBuffer::kMaxSingleBlockMessage;
    }
    if (single_block) {
      for (size_t i = 0; i < m; ++i) {
        PadKeyedBlock(inputs[base + i].key, inputs[base + i].message,
                      blocks + Sha1MultiBuffer::kBlockSize * i);
      }
      Sha1MultiBuffer::HashPaddedBlocks64(blocks, m, outs + base);
      continue;
    }
    for (size_t i = 0; i < m; ++i) {
      const KeyedHashInput& in = inputs[base + i];
      const size_t total = in.key.size() + 1 + in.message.size();
      if (total <= kAssembleMax) {
        views[i] = std::string_view(reinterpret_cast<const char*>(bufs[i]),
                                    AssembleKeyed(in.key, in.message, bufs[i]));
      } else {
        overflow[i].clear();
        overflow[i].reserve(total);
        overflow[i].append(in.key);
        overflow[i].push_back('\0');
        overflow[i].append(in.message);
        views[i] = overflow[i];
      }
    }
    Sha1MultiBuffer::Hash(views, m, digests);
    for (size_t i = 0; i < m; ++i) {
      outs[base + i] =
          TruncateBe64(digests + i * Sha1MultiBuffer::kDigestSize);
    }
  }
}

void KeyedHash64Batch(HashAlgorithm algo, std::string_view key,
                      const std::string_view* messages, size_t n,
                      uint64_t* outs) {
  constexpr size_t kChunk = 2 * Sha1MultiBuffer::kMaxLanes;
  KeyedHashInput inputs[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = n - base < kChunk ? n - base : kChunk;
    for (size_t i = 0; i < m; ++i) {
      inputs[i] = {key, messages[base + i]};
    }
    KeyedHash64Batch(algo, inputs, m, outs + base);
  }
}

}  // namespace privmark
