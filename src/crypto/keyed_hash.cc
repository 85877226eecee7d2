#include "crypto/keyed_hash.h"

#include <cstring>

#include "crypto/sha1.h"
#include "crypto/sha1_multibuffer.h"

namespace privmark {

namespace {

constexpr size_t kBlockSize = Sha1MultiBuffer::kBlockSize;

// SHA-1 keyed inputs pad straight into the lane array up to this many
// blocks: key + 1 + message <= kMaxKeyedTotal bytes, which covers every
// message the watermarking pipeline produces (idents,
// "pos:<ident>:<column>" and "perm:..." strings) with ample slack. Longer
// inputs stream through Sha1.
constexpr size_t kMaxKeyedBlocks = 4;
constexpr size_t kMaxKeyedTotal = kMaxKeyedBlocks * kBlockSize - 9;

// Padded SHA-1 blocks of a `total`-byte message: the 0x80 terminator plus
// the 8-byte bit length must fit after it.
inline size_t NumKeyedBlocks(size_t total) {
  return (total + 8) / kBlockSize + 1;
}

// Copies `len` bytes to byte `pos` of a padded message whose block b
// starts at out + row * b.
inline void PutBytes(const char* src, size_t len, size_t pos, uint8_t* out,
                     size_t row) {
  while (len > 0) {
    const size_t in_block = pos % kBlockSize;
    uint8_t* dst = out + row * (pos / kBlockSize) + in_block;
    if (in_block + len <= kBlockSize) {
      std::memcpy(dst, src, len);
      return;
    }
    const size_t take = kBlockSize - in_block;
    std::memcpy(dst, src, take);
    src += take;
    pos += take;
    len -= take;
  }
}

// Pads key || 0x00 || message (at most kMaxKeyedTotal bytes) into the
// blocks at out + row * b. `head` is the call's template: key || 0x00,
// then zeros through kMaxKeyedBlocks blocks. Each block starts as a
// fixed-size copy of its template block, so per lane only the message,
// 0x80 and the big-endian bit length are written. Returns the block count.
// Runs once per lane: kept inline in KeyedHash64Batch and in the n = 1
// copy of it that the compiler makes for KeyedHash64, where a call per
// lane measurably slows the keyed-hash loop.
[[gnu::always_inline]] inline size_t PadFromTemplate(
    const uint8_t* head, size_t prefix, std::string_view message,
    uint8_t* out, size_t row) {
  const size_t total = prefix + message.size();
  const size_t num_blocks = NumKeyedBlocks(total);
  for (size_t b = 0; b < num_blocks; ++b) {
    std::memcpy(out + row * b, head + kBlockSize * b, kBlockSize);
  }
  PutBytes(message.data(), message.size(), prefix, out, row);
  out[row * (total / kBlockSize) + total % kBlockSize] = 0x80;
  // One 8-byte store: the kernels read the length back as two 4-byte
  // words, and a word assembled from several narrower stores cannot be
  // forwarded from the store buffer.
  const uint64_t bit_len = static_cast<uint64_t>(total) * 8;
  uint8_t length[8];
  for (int i = 0; i < 8; ++i) {
    length[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  std::memcpy(out + row * (num_blocks - 1) + 56, length, 8);
  return num_blocks;
}

inline uint64_t TruncateBe64(const uint8_t* digest) {
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out = (out << 8) | digest[i];
  }
  return out;
}

// Streams key || 0x00 || message through Sha1 into `out` (Sha1::kDigestSize
// bytes). No heap allocation.
void StreamKeyedDigest(std::string_view key, std::string_view message,
                       uint8_t* out) {
  Sha1 hasher;
  hasher.Update(key);
  hasher.Update(std::string_view("\0", 1));
  hasher.Update(message);
  hasher.FinishInto(out);
}

}  // namespace

const char* HashAlgorithmToString(HashAlgorithm algo) {
  switch (algo) {
    case HashAlgorithm::kSha1:
      return "SHA1";
  }
  return "Unknown";
}

std::vector<uint8_t> KeyedDigest(HashAlgorithm /*algo*/, std::string_view key,
                                 std::string_view message) {
  std::vector<uint8_t> digest(Sha1::kDigestSize);
  StreamKeyedDigest(key, message, digest.data());
  return digest;
}

uint64_t KeyedHash64(HashAlgorithm algo, std::string_view key,
                     std::string_view message) {
  uint64_t out = 0;
  KeyedHash64Batch(algo, key, &message, 1, &out);
  return out;
}

void KeyedHash64Batch(HashAlgorithm /*algo*/, std::string_view key,
                      const std::string_view* messages, size_t n,
                      uint64_t* outs) {
  auto streamed = [key](std::string_view message) {
    uint8_t digest[Sha1::kDigestSize];
    StreamKeyedDigest(key, message, digest);
    return TruncateBe64(digest);
  };
  const size_t prefix = key.size() + 1;
  if (prefix > kMaxKeyedTotal) {
    for (size_t i = 0; i < n; ++i) outs[i] = streamed(messages[i]);
    return;
  }
  // The key and its separator are written once, into the template every
  // lane's blocks are copied from.
  uint8_t head[kMaxKeyedBlocks * kBlockSize] = {};
  std::memcpy(head, key.data(), key.size());
  // Messages go to the kernel in chunks of one widest lane group, each
  // padded straight into a block-major lane array (~4 KiB on the stack):
  // message i's block b at kBlockSize * (b * m + i). A message over
  // kMaxKeyedTotal holds a zero one-block lane and streams instead.
  constexpr size_t kChunk = Sha1MultiBuffer::kMaxLanes;
  uint8_t blocks[kMaxKeyedBlocks * kChunk * kBlockSize];
  size_t num_blocks[kChunk];
  const size_t max_message = kMaxKeyedTotal - prefix;
  for (size_t base = 0; base < n; base += kChunk) {
    const std::string_view* in = messages + base;
    const size_t m = n - base < kChunk ? n - base : kChunk;
    const size_t row = kBlockSize * m;
    size_t rows = 1;
    bool streams = false;
    for (size_t i = 0; i < m; ++i) {
      uint8_t* lane = blocks + kBlockSize * i;
      if (in[i].size() <= max_message) {
        num_blocks[i] = PadFromTemplate(head, prefix, in[i], lane, row);
        if (num_blocks[i] > rows) rows = num_blocks[i];
      } else {
        streams = true;
        num_blocks[i] = 1;
        std::memset(lane, 0, kBlockSize);
      }
    }
    // Lanes whose message has ended ride along on these slots.
    for (size_t i = 0; rows > 1 && i < m; ++i) {
      for (size_t b = num_blocks[i]; b < rows; ++b) {
        std::memset(blocks + row * b + kBlockSize * i, 0, kBlockSize);
      }
    }
    Sha1MultiBuffer::HashPaddedBlocks64(blocks, num_blocks, m, outs + base);
    for (size_t i = 0; streams && i < m; ++i) {
      if (in[i].size() > max_message) outs[base + i] = streamed(in[i]);
    }
  }
}

}  // namespace privmark
