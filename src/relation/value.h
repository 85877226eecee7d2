// Dynamically typed cell value for the relational substrate.

#ifndef PRIVMARK_RELATION_VALUE_H_
#define PRIVMARK_RELATION_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace privmark {

class BinReader;

/// \brief Runtime type of a Value.
enum class ValueType {
  kNull,
  kInt64,
  kDouble,
  kString,
};

const char* ValueTypeToString(ValueType type);

/// \brief One relational cell: null, 64-bit integer, double, or string.
///
/// Cells start out typed per the schema (e.g. age is kInt64); after binning a
/// quasi-identifying cell holds the *label* of its generalization node (a
/// string such as "[25,50)" or "Paramedic"), which is how the paper's
/// transformed tables represent generalized data.
class Value {
 public:
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value String(std::string v) { return Value(std::move(v)); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// \brief The integer payload; requires type() == kInt64.
  int64_t AsInt64() const;
  /// \brief Numeric payload widened to double; requires kInt64 or kDouble.
  double AsDouble() const;
  /// \brief The string payload; requires type() == kString.
  const std::string& AsString() const;

  /// \brief Render for display/CSV. Null renders as empty string.
  std::string ToString() const;

  /// \brief Parses a cell of the expected type from text. Empty text parses
  /// as Null. Returns InvalidArgument if the text does not parse.
  static Result<Value> Parse(const std::string& text, ValueType expected);

  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// \brief Total order usable as a grouping/sorting key (orders first by
  /// type, then by payload).
  bool operator<(const Value& other) const;

 private:
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}

  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// \brief The binary cell codec shared by the session journal and the wire
/// table codec: a one-byte ValueType tag, then the payload — nothing for
/// null, a little-endian int64, the double's IEEE bit pattern (exact
/// replay: sign of zero, subnormals, NaN payloads), or a u32
/// length-prefixed string.
void AppendCell(const Value& cell, std::string* out);

/// \brief Decodes one AppendCell encoding into *cell. Returns false on a
/// truncated payload or a string longer than `max_string_bytes` (the
/// reader fails) and on an unknown tag (the reader stays ok and *tag holds
/// it); callers word their own errors.
bool ReadCell(BinReader* reader, size_t max_string_bytes, uint8_t* tag,
              Value* cell);

}  // namespace privmark

#endif  // PRIVMARK_RELATION_VALUE_H_
