#include "common/bitvec.h"

#include <cassert>

namespace privmark {

BitVector::BitVector(size_t size, bool value) : size_(size) {
  words_.assign((size + 63) / 64, value ? ~uint64_t{0} : 0);
  if (value && size % 64 != 0 && !words_.empty()) {
    // Keep unused high bits zero so operator== can compare words directly.
    words_.back() &= (uint64_t{1} << (size % 64)) - 1;
  }
}

Result<BitVector> BitVector::FromString(const std::string& bits) {
  BitVector out(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') {
      out.Set(i, true);
    } else if (bits[i] != '0') {
      return Status::InvalidArgument("BitVector::FromString: character '" +
                                     std::string(1, bits[i]) +
                                     "' is not '0' or '1'");
    }
  }
  return out;
}

Result<BitVector> BitVector::FromDigest(const std::vector<uint8_t>& digest,
                                        size_t size) {
  if (size > digest.size() * 8) {
    return Status::InvalidArgument(
        "BitVector::FromDigest: requested " + std::to_string(size) +
        " bits from a " + std::to_string(digest.size()) + "-byte digest");
  }
  BitVector out(size);
  for (size_t i = 0; i < size; ++i) {
    const uint8_t byte = digest[i / 8];
    const bool bit = (byte >> (7 - i % 8)) & 1;
    out.Set(i, bit);
  }
  return out;
}

bool BitVector::Get(size_t i) const {
  assert(i < size_);
  return (words_[i / 64] >> (i % 64)) & 1;
}

void BitVector::Set(size_t i, bool value) {
  assert(i < size_);
  const uint64_t mask = uint64_t{1} << (i % 64);
  if (value) {
    words_[i / 64] |= mask;
  } else {
    words_[i / 64] &= ~mask;
  }
}

BitVector BitVector::Duplicate(size_t copies) const {
  BitVector out(size_ * copies);
  for (size_t c = 0; c < copies; ++c) {
    for (size_t i = 0; i < size_; ++i) {
      out.Set(c * size_ + i, Get(i));
    }
  }
  return out;
}

Result<size_t> BitVector::HammingDistance(const BitVector& other) const {
  if (size_ != other.size_) {
    return Status::InvalidArgument(
        "HammingDistance: size mismatch (" + std::to_string(size_) + " vs " +
        std::to_string(other.size_) + ")");
  }
  size_t dist = 0;
  for (size_t w = 0; w < words_.size(); ++w) {
    dist += static_cast<size_t>(__builtin_popcountll(words_[w] ^
                                                     other.words_[w]));
  }
  return dist;
}

Result<double> BitVector::LossFraction(const BitVector& other) const {
  PRIVMARK_ASSIGN_OR_RETURN(size_t dist, HammingDistance(other));
  if (size_ == 0) return 0.0;
  return static_cast<double>(dist) / static_cast<double>(size_);
}

std::string BitVector::ToString() const {
  std::string out(size_, '0');
  for (size_t i = 0; i < size_; ++i) {
    if (Get(i)) out[i] = '1';
  }
  return out;
}

bool BitVector::operator==(const BitVector& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

}  // namespace privmark
