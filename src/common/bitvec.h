// Compact bit vector used to represent watermark bit strings.

#ifndef PRIVMARK_COMMON_BITVEC_H_
#define PRIVMARK_COMMON_BITVEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace privmark {

/// \brief Fixed-or-growable sequence of bits with value semantics.
///
/// Used for the watermark `wm`, its replicated form `wmd`, and recovered
/// marks. Bit i of the mark is Get(i); the textual form is e.g. "01011".
class BitVector {
 public:
  BitVector() = default;
  /// \brief `size` bits, all initialized to `value`.
  explicit BitVector(size_t size, bool value = false);

  /// \brief Parses a string of '0'/'1' characters.
  static Result<BitVector> FromString(const std::string& bits);

  /// \brief Derives `size` bits from a byte digest (e.g. SHA-1 output),
  /// taking bits MSB-first. Requires size <= 8 * digest.size().
  static Result<BitVector> FromDigest(const std::vector<uint8_t>& digest,
                                      size_t size);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Get(size_t i) const;
  void Set(size_t i, bool value);

  /// \brief Concatenates `copies` copies of this vector (the paper's
  /// Duplicate(wm) used for multiple embedding).
  BitVector Duplicate(size_t copies) const;

  /// \brief Number of positions where the two vectors differ.
  /// Requires equal sizes.
  Result<size_t> HammingDistance(const BitVector& other) const;

  /// \brief Fraction of differing bits in [0,1]; 0 for two empty vectors.
  Result<double> LossFraction(const BitVector& other) const;

  /// \brief '0'/'1' string, MSB of the logical mark first.
  std::string ToString() const;

  bool operator==(const BitVector& other) const;

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

}  // namespace privmark

#endif  // PRIVMARK_COMMON_BITVEC_H_
