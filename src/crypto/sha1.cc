#include "crypto/sha1.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha1_internal.h"

namespace privmark {

namespace {
uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }
}  // namespace

Sha1::Sha1() { Reset(); }

void Sha1::Reset() {
  std::memcpy(h_, crypto_internal::kSha1Init, sizeof(h_));
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha1::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  while (len > 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      crypto_internal::Sha1Compress(h_, buffer_);
      buffer_len_ = 0;
    }
  }
}

void Sha1::Update(std::string_view data) {
  Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
}

void Sha1::FinishInto(uint8_t* out) {
  // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit bit length.
  // Padding is written straight into the block buffer (buffer_len_ < 64
  // after any Update) instead of byte-wise Update calls — finalization is
  // half the work for the short keyed messages the watermark hashes.
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    crypto_internal::Sha1Compress(h_, buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  crypto_internal::Sha1Compress(h_, buffer_);
  buffer_len_ = 0;
  total_len_ = 0;

  for (int i = 0; i < 5; ++i) {
    out[4 * i + 0] = static_cast<uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
}

std::vector<uint8_t> Sha1::Finish() {
  std::vector<uint8_t> digest(kDigestSize);
  FinishInto(digest.data());
  return digest;
}

std::vector<uint8_t> Sha1::Hash(std::string_view data) {
  Sha1 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

namespace crypto_internal {

void Sha1Compress(uint32_t h[5], const uint8_t block[64]) {
  // Message schedule kept as a 16-word ring buffer and fused into the
  // rounds; the rounds split into their four fixed-(f, k) phases so the
  // round body carries no per-iteration branching. Both transformations
  // preserve FIPS 180-1 bit for bit (the vector tests pin that down) and
  // together roughly halve the cost of this dependency-bound compress.
  uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }

  uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  auto schedule = [&w](int i) {
    const uint32_t next = Rotl32(w[(i + 13) & 15] ^ w[(i + 8) & 15] ^
                                     w[(i + 2) & 15] ^ w[i & 15],
                                 1);
    w[i & 15] = next;
    return next;
  };
  auto round = [&](uint32_t f, uint32_t k, uint32_t wi) {
    const uint32_t tmp = Rotl32(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = Rotl32(b, 30);
    b = a;
    a = tmp;
  };
  for (int i = 0; i < 16; ++i) {
    round((b & c) | (~b & d), 0x5A827999, w[i]);
  }
  for (int i = 16; i < 20; ++i) {
    round((b & c) | (~b & d), 0x5A827999, schedule(i));
  }
  for (int i = 20; i < 40; ++i) {
    round(b ^ c ^ d, 0x6ED9EBA1, schedule(i));
  }
  for (int i = 40; i < 60; ++i) {
    round((b & c) | (b & d) | (c & d), 0x8F1BBCDC, schedule(i));
  }
  for (int i = 60; i < 80; ++i) {
    round(b ^ c ^ d, 0xCA62C1D6, schedule(i));
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

}  // namespace crypto_internal

}  // namespace privmark
