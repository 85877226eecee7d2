// Multi-buffer SHA-1: batched hashing of independent short messages.
//
// The watermarking hot loops (Eq. (5) tuple selection, Fig. 9 position
// hashing, registry-scale fingerprint tallies) hash millions of *independent*
// few-dozen-byte messages. A single SHA-1 compression is latency-bound — its
// 80 rounds form one dependency chain — so hashing messages one at a time
// leaves most of the core idle. This kernel compresses 4–16 messages in
// interleaved lanes instead: the portable backend is a plain ILP-friendly
// unrolled 4-lane loop (elementwise across lanes, autovectorizable), and on
// x86-64 runtime dispatch upgrades to explicit SSE2 4-lane, AVX2 8-lane or
// AVX-512 16-lane vector code (one 32-bit lane element per message); the
// AVX-512 backend hands partial groups of up to 8 messages to the AVX2
// kernel, which compresses them in about the same time.
// AArch64 gets a NEON 4-lane backend. Every kernel reads its lanes' blocks
// from one contiguous array at a fixed 64-byte stride, with byte loads or
// gathers — no type-punned casts — so it is exactly as alignment-clean as
// the scalar path (UBSan-checked in CI).
//
// HashPaddedBlocks64 is the one batch entry point. The caller pads every
// message itself, straight into one block-major array (message i's block b
// at blocks + kBlockSize * (b * n + i)), so each row of blocks is a
// contiguous run of lanes the kernels read at their 64-byte stride. The
// 64-bit result comes out of chaining words h0 and h1, with no digest
// bytes in between. Keyed hashing (crypto/keyed_hash.h) is its one caller.
//
// Results equal the leading 8 bytes of Sha1::Hash for every backend, lane
// count and block count, including lanes with mixed block counts: batching
// changes throughput only, never values. The boundary suite in
// tests/crypto/sha1_multibuffer_test.cc pins that down per backend.

#ifndef PRIVMARK_CRYPTO_SHA1_MULTIBUFFER_H_
#define PRIVMARK_CRYPTO_SHA1_MULTIBUFFER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace privmark {

/// \brief Batched SHA-1 over independent messages.
class Sha1MultiBuffer {
 public:
  /// Widest lane count any backend uses (AVX-512).
  static constexpr size_t kMaxLanes = 16;
  static constexpr size_t kBlockSize = 64;

  /// \brief Name of the active backend: "avx512", "avx2", "sse2", "neon",
  /// or "portable".
  static const char* Backend();

  /// \brief Lane width of the active backend (16 for AVX-512, 8 for AVX2,
  /// else 4).
  /// Callers that size their own batches get full lanes by using a
  /// multiple of this.
  static size_t PreferredLanes();

  /// \brief Hashes `n` padded SHA-1 messages. Message i fills
  /// num_blocks[i] >= 1 complete blocks: its bytes, 0x80, zeros, then its
  /// bit length as a big-endian uint64 in the last 8 bytes of its last
  /// block. `blocks` is block-major: message i's block b sits at
  /// blocks + kBlockSize * (b * n + i), for every b below the largest
  /// count. Slots past a message's last block are read but ignored; they
  /// must be initialized. Writes the first 8 digest bytes of message i as
  /// a big-endian uint64 to outs[i]. Lanes run in lock-step through the
  /// active backend; equal to the leading bytes of Sha1::Hash.
  static void HashPaddedBlocks64(const uint8_t* blocks,
                                 const size_t* num_blocks, size_t n,
                                 uint64_t* outs);

  /// \brief Backends compiled into this binary and usable on this CPU, in
  /// preference order (the first is the auto-selected one).
  static std::vector<const char*> AvailableBackends();

  /// \brief Test/bench hook: pins the backend by name until the next call.
  /// nullptr or "auto" restores automatic selection. Returns false (and
  /// changes nothing) for an unknown or unavailable name. Not meant for
  /// concurrent use with in-flight HashPaddedBlocks64() calls.
  static bool ForceBackend(const char* name);
};

}  // namespace privmark

#endif  // PRIVMARK_CRYPTO_SHA1_MULTIBUFFER_H_
