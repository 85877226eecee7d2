#include "crypto/sha1_multibuffer.h"

#include <atomic>
#include <cstring>

#include "crypto/sha1.h"
#include "crypto/sha1_internal.h"
#include "crypto/sha1_multibuffer_internal.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace privmark {

namespace {

// Big-endian word load, byte by byte: alignment-clean under UBSan on every
// target, and compilers turn the idiom into a single bswap'd load anyway.
inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

// ---------------------------------------------------------------------------
// Portable lane kernel: word-major state h[word * L + lane], elementwise
// lane loops in every round. The L-wide inner loops carry no cross-lane
// dependency, so the compiler either autovectorizes them or at least keeps
// L independent dependency chains in flight — that ILP, not vector width,
// is where most of the win over one-message-at-a-time hashing comes from.
// ---------------------------------------------------------------------------

template <size_t L>
void CompressLanesPortable(uint32_t* h, const uint8_t* blocks) {
  uint32_t w[16][L];
  for (size_t i = 0; i < 16; ++i) {
    for (size_t l = 0; l < L; ++l) {
      w[i][l] = LoadBe32(blocks + 64 * l + 4 * i);
    }
  }
  uint32_t a[L], b[L], c[L], d[L], e[L];
  for (size_t l = 0; l < L; ++l) {
    a[l] = h[0 * L + l];
    b[l] = h[1 * L + l];
    c[l] = h[2 * L + l];
    d[l] = h[3 * L + l];
    e[l] = h[4 * L + l];
  }
  uint32_t wi[L];
  uint32_t f[L];
  auto take = [&](size_t i) {
    for (size_t l = 0; l < L; ++l) wi[l] = w[i & 15][l];
  };
  auto schedule = [&](size_t i) {
    for (size_t l = 0; l < L; ++l) {
      const uint32_t next = Rotl32(w[(i + 13) & 15][l] ^ w[(i + 8) & 15][l] ^
                                       w[(i + 2) & 15][l] ^ w[i & 15][l],
                                   1);
      w[i & 15][l] = next;
      wi[l] = next;
    }
  };
  auto round = [&](uint32_t k) {
    for (size_t l = 0; l < L; ++l) {
      const uint32_t tmp = Rotl32(a[l], 5) + f[l] + e[l] + k + wi[l];
      e[l] = d[l];
      d[l] = c[l];
      c[l] = Rotl32(b[l], 30);
      b[l] = a[l];
      a[l] = tmp;
    }
  };
  auto ch = [&] {
    for (size_t l = 0; l < L; ++l) f[l] = d[l] ^ (b[l] & (c[l] ^ d[l]));
  };
  auto parity = [&] {
    for (size_t l = 0; l < L; ++l) f[l] = b[l] ^ c[l] ^ d[l];
  };
  auto maj = [&] {
    for (size_t l = 0; l < L; ++l) {
      f[l] = (b[l] & c[l]) | (d[l] & (b[l] | c[l]));
    }
  };
  for (size_t i = 0; i < 16; ++i) {
    take(i);
    ch();
    round(0x5A827999);
  }
  for (size_t i = 16; i < 20; ++i) {
    schedule(i);
    ch();
    round(0x5A827999);
  }
  for (size_t i = 20; i < 40; ++i) {
    schedule(i);
    parity();
    round(0x6ED9EBA1);
  }
  for (size_t i = 40; i < 60; ++i) {
    schedule(i);
    maj();
    round(0x8F1BBCDC);
  }
  for (size_t i = 60; i < 80; ++i) {
    schedule(i);
    parity();
    round(0xCA62C1D6);
  }
  for (size_t l = 0; l < L; ++l) {
    h[0 * L + l] += a[l];
    h[1 * L + l] += b[l];
    h[2 * L + l] += c[l];
    h[3 * L + l] += d[l];
    h[4 * L + l] += e[l];
  }
}

// ---------------------------------------------------------------------------
// SSE2 4-lane kernel (x86-64 baseline, no extra compile flags needed).
// One 32-bit element per message; same phase structure as the scalar
// compress in sha1.cc.
// ---------------------------------------------------------------------------

#if defined(__x86_64__) || defined(_M_X64)

inline __m128i RotlV(__m128i x, int k) {
  return _mm_or_si128(_mm_slli_epi32(x, k), _mm_srli_epi32(x, 32 - k));
}

void CompressLanes4Sse2(uint32_t* h, const uint8_t* blocks) {
  __m128i w[16];
  for (int i = 0; i < 16; ++i) {
    const uint8_t* p = blocks + 4 * i;
    w[i] = _mm_set_epi32(static_cast<int>(LoadBe32(p + 3 * 64)),
                         static_cast<int>(LoadBe32(p + 2 * 64)),
                         static_cast<int>(LoadBe32(p + 1 * 64)),
                         static_cast<int>(LoadBe32(p)));
  }
  __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 0));
  __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 4));
  __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 8));
  __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 12));
  __m128i e = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 16));
  const __m128i a0 = a, b0 = b, c0 = c, d0 = d, e0 = e;

  auto schedule = [&w](int i) {
    const __m128i next =
        RotlV(_mm_xor_si128(_mm_xor_si128(w[(i + 13) & 15], w[(i + 8) & 15]),
                            _mm_xor_si128(w[(i + 2) & 15], w[i & 15])),
              1);
    w[i & 15] = next;
    return next;
  };
  auto round = [&](__m128i f, uint32_t k, __m128i wi) {
    const __m128i tmp = _mm_add_epi32(
        _mm_add_epi32(RotlV(a, 5), f),
        _mm_add_epi32(_mm_add_epi32(e, wi),
                      _mm_set1_epi32(static_cast<int>(k))));
    e = d;
    d = c;
    c = RotlV(b, 30);
    b = a;
    a = tmp;
  };
  auto ch = [&] { return _mm_xor_si128(d, _mm_and_si128(b, _mm_xor_si128(c, d))); };
  auto parity = [&] { return _mm_xor_si128(b, _mm_xor_si128(c, d)); };
  auto maj = [&] {
    return _mm_or_si128(_mm_and_si128(b, c),
                        _mm_and_si128(d, _mm_or_si128(b, c)));
  };
  for (int i = 0; i < 16; ++i) round(ch(), 0x5A827999, w[i]);
  for (int i = 16; i < 20; ++i) round(ch(), 0x5A827999, schedule(i));
  for (int i = 20; i < 40; ++i) round(parity(), 0x6ED9EBA1, schedule(i));
  for (int i = 40; i < 60; ++i) round(maj(), 0x8F1BBCDC, schedule(i));
  for (int i = 60; i < 80; ++i) round(parity(), 0xCA62C1D6, schedule(i));

  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 0), _mm_add_epi32(a0, a));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 4), _mm_add_epi32(b0, b));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 8), _mm_add_epi32(c0, c));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 12), _mm_add_epi32(d0, d));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 16), _mm_add_epi32(e0, e));
}

#endif  // x86-64

// ---------------------------------------------------------------------------
// NEON 4-lane kernel (AArch64 baseline).
// ---------------------------------------------------------------------------

#if defined(__aarch64__)

template <int K>
inline uint32x4_t RotlN(uint32x4_t x) {
  return vorrq_u32(vshlq_n_u32(x, K), vshrq_n_u32(x, 32 - K));
}

void CompressLanes4Neon(uint32_t* h, const uint8_t* blocks) {
  uint32x4_t w[16];
  for (int i = 0; i < 16; ++i) {
    const uint8_t* p = blocks + 4 * i;
    const uint32_t words[4] = {LoadBe32(p), LoadBe32(p + 64),
                               LoadBe32(p + 2 * 64), LoadBe32(p + 3 * 64)};
    w[i] = vld1q_u32(words);
  }
  uint32x4_t a = vld1q_u32(h + 0);
  uint32x4_t b = vld1q_u32(h + 4);
  uint32x4_t c = vld1q_u32(h + 8);
  uint32x4_t d = vld1q_u32(h + 12);
  uint32x4_t e = vld1q_u32(h + 16);
  const uint32x4_t a0 = a, b0 = b, c0 = c, d0 = d, e0 = e;

  auto schedule = [&w](int i) {
    const uint32x4_t next = RotlN<1>(
        veorq_u32(veorq_u32(w[(i + 13) & 15], w[(i + 8) & 15]),
                  veorq_u32(w[(i + 2) & 15], w[i & 15])));
    w[i & 15] = next;
    return next;
  };
  auto round = [&](uint32x4_t f, uint32_t k, uint32x4_t wi) {
    const uint32x4_t tmp = vaddq_u32(
        vaddq_u32(RotlN<5>(a), f),
        vaddq_u32(vaddq_u32(e, wi), vdupq_n_u32(k)));
    e = d;
    d = c;
    c = RotlN<30>(b);
    b = a;
    a = tmp;
  };
  auto ch = [&] { return veorq_u32(d, vandq_u32(b, veorq_u32(c, d))); };
  auto parity = [&] { return veorq_u32(b, veorq_u32(c, d)); };
  auto maj = [&] {
    return vorrq_u32(vandq_u32(b, c), vandq_u32(d, vorrq_u32(b, c)));
  };
  for (int i = 0; i < 16; ++i) round(ch(), 0x5A827999, w[i]);
  for (int i = 16; i < 20; ++i) round(ch(), 0x5A827999, schedule(i));
  for (int i = 20; i < 40; ++i) round(parity(), 0x6ED9EBA1, schedule(i));
  for (int i = 40; i < 60; ++i) round(maj(), 0x8F1BBCDC, schedule(i));
  for (int i = 60; i < 80; ++i) round(parity(), 0xCA62C1D6, schedule(i));

  vst1q_u32(h + 0, vaddq_u32(a0, a));
  vst1q_u32(h + 4, vaddq_u32(b0, b));
  vst1q_u32(h + 8, vaddq_u32(c0, c));
  vst1q_u32(h + 12, vaddq_u32(d0, d));
  vst1q_u32(h + 16, vaddq_u32(e0, e));
}

#endif  // __aarch64__

// ---------------------------------------------------------------------------
// Dispatch + mixed-length block scheduling.
// ---------------------------------------------------------------------------

// Every kernel reads its lanes' blocks back to back, lane l's 64-byte
// block at blocks + 64 * l, and keeps word-major state h[word * lanes + l].
struct BackendImpl {
  const char* name;
  size_t lanes;
  void (*compress)(uint32_t* h, const uint8_t* blocks);
  bool (*usable)();  // compiled into this binary and supported by this CPU
  // A narrower backend that runs partial groups of at most its lane count
  // in fewer lane-cycles, or nullptr. Usable whenever this one is.
  const BackendImpl* narrow;
};

bool AlwaysUsable() { return true; }

#if defined(__x86_64__) || defined(_M_X64)
bool Avx2Usable() {
  return crypto_internal::Sha1Avx2Compiled() && __builtin_cpu_supports("avx2");
}

bool Avx512Usable() {
  return crypto_internal::Sha1Avx512Compiled() &&
         __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") && Avx2Usable();
}

constexpr BackendImpl kAvx2 = {"avx2", 8,
                               &crypto_internal::Sha1CompressLanes8Avx2,
                               &Avx2Usable, nullptr};
// A 16-lane compress takes about as long as an 8-lane AVX2 one, so a
// partial group of up to 8 messages runs on the AVX2 kernel.
constexpr BackendImpl kAvx512 = {"avx512", 16,
                                 &crypto_internal::Sha1CompressLanes16Avx512,
                                 &Avx512Usable, &kAvx2};
constexpr BackendImpl kSse2 = {"sse2", 4, &CompressLanes4Sse2, &AlwaysUsable,
                               nullptr};
#endif
#if defined(__aarch64__)
constexpr BackendImpl kNeon = {"neon", 4, &CompressLanes4Neon, &AlwaysUsable,
                               nullptr};
#endif
constexpr BackendImpl kPortable = {"portable", 4, &CompressLanesPortable<4>,
                                   &AlwaysUsable, nullptr};

// Preference order: the first usable backend is the auto-selected one.
constexpr const BackendImpl* kBackends[] = {
#if defined(__x86_64__) || defined(_M_X64)
    &kAvx512, &kAvx2, &kSse2,
#endif
#if defined(__aarch64__)
    &kNeon,
#endif
    &kPortable,
};

const BackendImpl* DetectBackend() {
  for (const BackendImpl* impl : kBackends) {
    if (impl->usable()) return impl;
  }
  return &kPortable;
}

// The backend that hashes a group of `m` messages: `impl`'s narrow
// backend when they fit its lanes, else `impl`.
const BackendImpl& GroupImpl(const BackendImpl& impl, size_t m) {
  return impl.narrow != nullptr && m <= impl.narrow->lanes ? *impl.narrow
                                                           : impl;
}

std::atomic<const BackendImpl*> g_backend{nullptr};

const BackendImpl* ActiveImpl() {
  const BackendImpl* impl = g_backend.load(std::memory_order_acquire);
  if (impl == nullptr) {
    impl = DetectBackend();
    g_backend.store(impl, std::memory_order_release);
  }
  return impl;
}

// Fills word-major state for L lanes with the SHA-1 initial values.
void InitLanes(uint32_t* h, size_t L) {
  for (size_t word = 0; word < 5; ++word) {
    for (size_t l = 0; l < L; ++l) {
      h[word * L + l] = crypto_internal::kSha1Init[word];
    }
  }
}

// SHA-1 message occupies nblocks 64-byte blocks once padded: the 0x80
// terminator plus the 8-byte bit length must fit after the message.
inline size_t NumBlocks(size_t len) { return (len + 8) / 64 + 1; }

// Writes the b'th 64-byte block of m's padded form to `block`: message
// bytes, then the 0x80 terminator and zeros, and in the last block the
// big-endian bit length.
void PaddedBlock(std::string_view m, size_t b, size_t nblocks,
                 uint8_t* block) {
  const size_t off = b * 64;
  if (off + 64 <= m.size()) {
    std::memcpy(block, m.data() + off, 64);
    return;
  }
  std::memset(block, 0, 64);
  if (off < m.size()) {
    std::memcpy(block, m.data() + off, m.size() - off);
  }
  if (m.size() >= off && m.size() - off < 64) {
    block[m.size() - off] = 0x80;
  }
  if (b + 1 == nblocks) {
    const uint64_t bit_len = static_cast<uint64_t>(m.size()) * 8;
    for (int i = 0; i < 8; ++i) {
      block[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
    }
  }
}

// Hashes exactly `L` messages (L == impl.lanes) of arbitrary mixed lengths.
// Blocks advance in lock-step through the lane kernel while at least two
// lanes still have one: lanes whose shorter messages have run out ride
// along on their last block, and their state is restored afterwards. A
// single remaining lane takes the scalar compress on its strided slice of
// the state. Either way mixed lengths stay byte-identical to Sha1::Hash.
void HashGroup(const BackendImpl& impl, const std::string_view* msgs,
               uint8_t* out) {
  const size_t L = impl.lanes;
  size_t nblocks[Sha1MultiBuffer::kMaxLanes];
  size_t max_blocks = 0;
  for (size_t l = 0; l < L; ++l) {
    nblocks[l] = NumBlocks(msgs[l].size());
    if (nblocks[l] > max_blocks) max_blocks = nblocks[l];
  }
  uint32_t h[5 * Sha1MultiBuffer::kMaxLanes];
  InitLanes(h, L);
  uint8_t blocks[Sha1MultiBuffer::kMaxLanes * Sha1MultiBuffer::kBlockSize];
  for (size_t b = 0; b < max_blocks; ++b) {
    size_t active = 0;
    for (size_t l = 0; l < L; ++l) {
      if (nblocks[l] > b) ++active;
    }
    if (active >= 2) {
      // Block 0 fills every lane's slot, so finished lanes recompress a
      // stale but initialized block; `done` keeps their final state.
      uint32_t done[5 * Sha1MultiBuffer::kMaxLanes];
      std::memcpy(done, h, sizeof(uint32_t) * 5 * L);
      for (size_t l = 0; l < L; ++l) {
        if (nblocks[l] > b) {
          PaddedBlock(msgs[l], b, nblocks[l], blocks + 64 * l);
        }
      }
      impl.compress(h, blocks);
      for (size_t l = 0; l < L; ++l) {
        if (nblocks[l] > b) continue;
        for (size_t word = 0; word < 5; ++word) {
          h[word * L + l] = done[word * L + l];
        }
      }
    } else {
      for (size_t l = 0; l < L; ++l) {
        if (nblocks[l] <= b) continue;
        uint32_t lane_h[5];
        for (size_t word = 0; word < 5; ++word) lane_h[word] = h[word * L + l];
        PaddedBlock(msgs[l], b, nblocks[l], blocks);
        crypto_internal::Sha1Compress(lane_h, blocks);
        for (size_t word = 0; word < 5; ++word) h[word * L + l] = lane_h[word];
      }
    }
  }
  for (size_t l = 0; l < L; ++l) {
    uint8_t* digest = out + Sha1MultiBuffer::kDigestSize * l;
    for (size_t word = 0; word < 5; ++word) {
      const uint32_t v = h[word * L + l];
      digest[4 * word + 0] = static_cast<uint8_t>(v >> 24);
      digest[4 * word + 1] = static_cast<uint8_t>(v >> 16);
      digest[4 * word + 2] = static_cast<uint8_t>(v >> 8);
      digest[4 * word + 3] = static_cast<uint8_t>(v);
    }
  }
}

}  // namespace

const char* Sha1MultiBuffer::Backend() { return ActiveImpl()->name; }

size_t Sha1MultiBuffer::PreferredLanes() { return ActiveImpl()->lanes; }

void Sha1MultiBuffer::Hash(const std::string_view* messages, size_t n,
                           uint8_t* out) {
  const BackendImpl* impl = ActiveImpl();
  const size_t L = impl->lanes;
  size_t i = 0;
  for (; i + L <= n; i += L) {
    HashGroup(*impl, messages + i, out + kDigestSize * i);
  }
  const size_t tail = n - i;
  if (tail >= 2) {
    // A partial group still beats hashing its messages one by one: pad the
    // unused lanes with empty messages (one block each, riding along with
    // the real lanes) and discard their digests. Only a single-message
    // tail falls back to the scalar hasher.
    const BackendImpl& group_impl = GroupImpl(*impl, tail);
    std::string_view padded[kMaxLanes];
    for (size_t j = 0; j < tail; ++j) padded[j] = messages[i + j];
    for (size_t j = tail; j < group_impl.lanes; ++j) {
      padded[j] = std::string_view();
    }
    uint8_t digests[kMaxLanes * kDigestSize];
    HashGroup(group_impl, padded, digests);
    std::memcpy(out + kDigestSize * i, digests, tail * kDigestSize);
  } else if (tail == 1) {
    Sha1 hasher;
    hasher.Update(messages[i]);
    hasher.FinishInto(out + kDigestSize * i);
  }
}

void Sha1MultiBuffer::HashPaddedBlocks64(const uint8_t* blocks, size_t n,
                                         uint64_t* outs) {
  const BackendImpl* impl = ActiveImpl();
  uint32_t h[5 * kMaxLanes];
  uint8_t tail[kMaxLanes * kBlockSize];
  for (size_t i = 0; i < n;) {
    const uint8_t* group = blocks + kBlockSize * i;
    if (n - i == 1) {
      // As in Hash: a lone message is cheaper through the scalar compress.
      uint32_t lane_h[5];
      std::memcpy(lane_h, crypto_internal::kSha1Init, sizeof(lane_h));
      crypto_internal::Sha1Compress(lane_h, group);
      outs[i] = (static_cast<uint64_t>(lane_h[0]) << 32) | lane_h[1];
      break;
    }
    const BackendImpl& group_impl = GroupImpl(*impl, n - i);
    const size_t L = group_impl.lanes;
    const size_t m = n - i < L ? n - i : L;
    if (m < L) {
      // A partial group runs with zero blocks in its unused lanes; their
      // results are discarded.
      std::memcpy(tail, group, m * kBlockSize);
      std::memset(tail + m * kBlockSize, 0, (L - m) * kBlockSize);
      group = tail;
    }
    InitLanes(h, L);
    group_impl.compress(h, group);
    for (size_t l = 0; l < m; ++l) {
      outs[i + l] = (static_cast<uint64_t>(h[l]) << 32) | h[L + l];
    }
    i += m;
  }
}

std::vector<const char*> Sha1MultiBuffer::AvailableBackends() {
  std::vector<const char*> names;
  for (const BackendImpl* impl : kBackends) {
    if (impl->usable()) names.push_back(impl->name);
  }
  return names;
}

bool Sha1MultiBuffer::ForceBackend(const char* name) {
  if (name == nullptr || std::strcmp(name, "auto") == 0) {
    g_backend.store(DetectBackend(), std::memory_order_release);
    return true;
  }
  for (const BackendImpl* impl : kBackends) {
    if (std::strcmp(name, impl->name) == 0 && impl->usable()) {
      g_backend.store(impl, std::memory_order_release);
      return true;
    }
  }
  return false;
}

}  // namespace privmark
