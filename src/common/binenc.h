// Little-endian binary encoding primitives shared by every on-disk and
// on-wire codec (the session journal, the daemon wire protocol). All
// integers are encoded little-endian regardless of host order, so a
// journal or a socket stream written on one machine decodes on any
// other.
//
// BinReader is the decode side: a bounds-checked cursor over an
// immutable byte buffer. Every Read* checks the remaining length first
// and fails the reader permanently on underrun — codecs test ok() (or
// the per-call return) once instead of guarding every field, and a
// truncated input can never read past the buffer.

#ifndef PRIVMARK_COMMON_BINENC_H_
#define PRIVMARK_COMMON_BINENC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace privmark {

inline void AppendLe32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

/// \brief Writes v little-endian into p[0..4): the in-place twin of
/// AppendLe32, for a region the caller has already sized.
inline void StoreLe32(char* p, uint32_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
  p[2] = static_cast<char>((v >> 16) & 0xff);
  p[3] = static_cast<char>((v >> 24) & 0xff);
}

inline void StoreLe64(char* p, uint64_t v) {
  StoreLe32(p, static_cast<uint32_t>(v & 0xffffffffu));
  StoreLe32(p + 4, static_cast<uint32_t>(v >> 32));
}

inline uint32_t ReadLe32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

inline void AppendLe64(std::string* out, uint64_t v) {
  AppendLe32(out, static_cast<uint32_t>(v & 0xffffffffu));
  AppendLe32(out, static_cast<uint32_t>(v >> 32));
}

inline uint64_t ReadLe64(const char* p) {
  return static_cast<uint64_t>(ReadLe32(p)) |
         (static_cast<uint64_t>(ReadLe32(p + 4)) << 32);
}

/// \brief Appends a double as its 64-bit IEEE bit pattern — decode
/// rebuilds the exact value (sign of zero, subnormals, NaN payloads),
/// which decimal text cannot guarantee.
inline void AppendDoubleBits(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  AppendLe64(out, bits);
}

/// \brief Appends a u32 length prefix then the bytes (NUL-safe).
inline void AppendLengthPrefixed(std::string* out, const std::string& s) {
  AppendLe32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// \brief Bounds-checked forward-only cursor over a byte buffer. Any
/// underrun sets a sticky failure; reads after a failure return zeroes
/// / empty strings and leave the cursor untouched.
class BinReader {
 public:
  BinReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit BinReader(const std::string& bytes)
      : BinReader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }
  /// True iff no failure occurred and every byte was consumed — codecs
  /// reject trailing bytes with this.
  bool Exhausted() const { return ok_ && pos_ == size_; }

  bool ReadU8(uint8_t* v) {
    if (!Require(1)) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (!Require(4)) return false;
    *v = ReadLe32(data_ + pos_);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (!Require(8)) return false;
    *v = ReadLe64(data_ + pos_);
    pos_ += 8;
    return true;
  }

  bool ReadDoubleBits(double* v) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  /// Reads a u32 length prefix then that many raw bytes. `max_bytes`
  /// caps the length *before* any allocation, so a corrupt prefix can
  /// never drive a huge reserve.
  bool ReadLengthPrefixed(std::string* out, size_t max_bytes) {
    uint32_t length = 0;
    if (!ReadU32(&length)) return false;
    if (length > max_bytes || !Require(length)) {
      ok_ = false;
      return false;
    }
    out->assign(data_ + pos_, length);
    pos_ += length;
    return true;
  }

 private:
  bool Require(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace privmark

#endif  // PRIVMARK_COMMON_BINENC_H_
