#include "crypto/sha1_multibuffer.h"

#include <atomic>
#include <cstring>

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
// Dispatch + mixed-block-count scheduling.
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

// Hashes the m messages of one lane group (1 <= m <= impl.lanes) into
// outs. Message l's block b sits at blocks + row * b + kBlockSize * l.
// Blocks advance in lock-step through the lane kernel while at least two
// lanes still have one: lanes whose messages have ended ride along on
// their stale slot, and their state is restored afterwards. A partial
// group runs zero blocks in its unused lanes and discards their results.
// A lone straggler (or a lone message) finishes on the scalar compress,
// on its strided slice of the state. Either way mixed block counts stay
// byte-identical to Sha1::Hash.
void HashLaneGroup(const BackendImpl& impl, const uint8_t* blocks, size_t row,
                   const size_t* num_blocks, size_t m, uint64_t* outs) {
  constexpr size_t kBlockSize = Sha1MultiBuffer::kBlockSize;
  const size_t L = impl.lanes;
  // Every lane runs blocks [0, min_blocks) through the kernel.
  size_t min_blocks = num_blocks[0];
  size_t max_blocks = num_blocks[0];
  for (size_t l = 1; l < m; ++l) {
    min_blocks = num_blocks[l] < min_blocks ? num_blocks[l] : min_blocks;
    max_blocks = num_blocks[l] > max_blocks ? num_blocks[l] : max_blocks;
  }
  uint32_t h[5 * Sha1MultiBuffer::kMaxLanes];
  InitLanes(h, L);
  uint8_t partial[Sha1MultiBuffer::kMaxLanes * kBlockSize];
  if (m >= 2 && m < L) {
    std::memset(partial + m * kBlockSize, 0, (L - m) * kBlockSize);
  }
  size_t b = 0;
  for (; b < max_blocks; ++b) {
    size_t active = m;
    if (b >= min_blocks) {
      active = 0;
      for (size_t l = 0; l < m; ++l) active += num_blocks[l] > b ? 1 : 0;
    }
    if (active == 1) break;
    const uint8_t* lanes = blocks + row * b;
    if (m < L) {
      std::memcpy(partial, lanes, m * kBlockSize);
      lanes = partial;
    }
    uint32_t done[5 * Sha1MultiBuffer::kMaxLanes];
    if (active < m) std::memcpy(done, h, sizeof(uint32_t) * 5 * L);
    impl.compress(h, lanes);
    if (active == m) continue;
    for (size_t l = 0; l < m; ++l) {
      if (num_blocks[l] > b) continue;
      for (size_t word = 0; word < 5; ++word) {
        h[word * L + l] = done[word * L + l];
      }
    }
  }
  if (b < max_blocks) {
    size_t last = 0;  // the one lane left: the longest message
    while (num_blocks[last] != max_blocks) ++last;
    uint32_t lane_h[5];
    for (size_t word = 0; word < 5; ++word) lane_h[word] = h[word * L + last];
    for (; b < max_blocks; ++b) {
      crypto_internal::Sha1Compress(lane_h,
                                    blocks + row * b + kBlockSize * last);
    }
    for (size_t word = 0; word < 5; ++word) h[word * L + last] = lane_h[word];
  }
  for (size_t l = 0; l < m; ++l) {
    outs[l] = (static_cast<uint64_t>(h[l]) << 32) | h[L + l];
  }
}

}  // namespace

const char* Sha1MultiBuffer::Backend() { return ActiveImpl()->name; }

size_t Sha1MultiBuffer::PreferredLanes() { return ActiveImpl()->lanes; }

void Sha1MultiBuffer::HashPaddedBlocks64(const uint8_t* blocks,
                                         const size_t* num_blocks, size_t n,
                                         uint64_t* outs) {
  const BackendImpl* impl = ActiveImpl();
  for (size_t i = 0; i < n;) {
    const BackendImpl& group_impl = GroupImpl(*impl, n - i);
    const size_t m = n - i < group_impl.lanes ? n - i : group_impl.lanes;
    HashLaneGroup(group_impl, blocks + kBlockSize * i, kBlockSize * n,
                  num_blocks + i, m, outs + i);
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
