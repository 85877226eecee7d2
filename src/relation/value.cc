#include "relation/value.h"

#include <cassert>
#include <cerrno>
#include <cstdlib>

#include "common/binenc.h"
#include "common/strings.h"

namespace privmark {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

ValueType Value::type() const {
  switch (data_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kInt64;
    case 2:
      return ValueType::kDouble;
    default:
      return ValueType::kString;
  }
}

int64_t Value::AsInt64() const {
  assert(type() == ValueType::kInt64);
  return std::get<int64_t>(data_);
}

double Value::AsDouble() const {
  if (type() == ValueType::kInt64) {
    return static_cast<double>(std::get<int64_t>(data_));
  }
  assert(type() == ValueType::kDouble);
  return std::get<double>(data_);
}

const std::string& Value::AsString() const {
  assert(type() == ValueType::kString);
  return std::get<std::string>(data_);
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt64:
      return std::to_string(std::get<int64_t>(data_));
    case ValueType::kDouble:
      return FormatDouble(std::get<double>(data_), 6);
    case ValueType::kString:
      return std::get<std::string>(data_);
  }
  return "";
}

Result<Value> Value::Parse(const std::string& text, ValueType expected) {
  if (text.empty() && expected != ValueType::kString) return Value::Null();
  switch (expected) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt64: {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("cannot parse '" + text +
                                       "' as int64");
      }
      return Value::Int64(v);
    }
    case ValueType::kDouble: {
      errno = 0;
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("cannot parse '" + text +
                                       "' as double");
      }
      return Value::Double(v);
    }
    case ValueType::kString:
      return Value::String(text);
  }
  return Status::InvalidArgument("unknown expected type");
}

bool Value::operator<(const Value& other) const {
  if (data_.index() != other.data_.index()) {
    return data_.index() < other.data_.index();
  }
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt64:
      return std::get<int64_t>(data_) < std::get<int64_t>(other.data_);
    case ValueType::kDouble:
      return std::get<double>(data_) < std::get<double>(other.data_);
    case ValueType::kString:
      return std::get<std::string>(data_) < std::get<std::string>(other.data_);
  }
  return false;
}

void AppendCell(const Value& cell, std::string* out) {
  out->push_back(static_cast<char>(cell.type()));
  switch (cell.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      AppendLe64(out, static_cast<uint64_t>(cell.AsInt64()));
      break;
    case ValueType::kDouble:
      AppendDoubleBits(out, cell.AsDouble());
      break;
    case ValueType::kString:
      AppendLengthPrefixed(out, cell.AsString());
      break;
  }
}

bool ReadCell(BinReader* reader, size_t max_string_bytes, uint8_t* tag,
              Value* cell) {
  if (!reader->ReadU8(tag)) return false;
  switch (static_cast<ValueType>(*tag)) {
    case ValueType::kNull:
      *cell = Value::Null();
      return true;
    case ValueType::kInt64: {
      uint64_t bits = 0;
      if (!reader->ReadU64(&bits)) return false;
      *cell = Value::Int64(static_cast<int64_t>(bits));
      return true;
    }
    case ValueType::kDouble: {
      double v = 0;
      if (!reader->ReadDoubleBits(&v)) return false;
      *cell = Value::Double(v);
      return true;
    }
    case ValueType::kString: {
      std::string s;
      if (!reader->ReadLengthPrefixed(&s, max_string_bytes)) return false;
      *cell = Value::String(std::move(s));
      return true;
    }
  }
  return false;  // unknown tag; the reader is still ok
}

}  // namespace privmark
