// Small string utilities shared across modules.

#ifndef PRIVMARK_COMMON_STRINGS_H_
#define PRIVMARK_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace privmark {

/// \brief Lower-case hex encoding of a byte buffer.
std::string HexEncode(const std::vector<uint8_t>& bytes);

/// \brief Inverse of HexEncode; rejects odd lengths and non-hex characters.
Result<std::vector<uint8_t>> HexDecode(const std::string& hex);

/// \brief Splits on a delimiter; keeps empty fields ("a,,b" -> 3 fields).
std::vector<std::string> Split(const std::string& s, char delim);

/// \brief Joins with a delimiter.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& delim);

/// \brief Strips ASCII whitespace from both ends.
std::string Trim(const std::string& s);

/// \brief True if `s` begins with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// \brief Strict unsigned decimal: ASCII digits only — no sign, spaces
/// or overflow past 2^64-1. Errors are InvalidArgument naming `what`
/// ("<what> is empty", "<what> is not a number: <text>", "<what>
/// overflows: <text>"), never an exception.
Result<uint64_t> ParseDecimalU64(const std::string& text,
                                 const std::string& what);

/// \brief Formats a double with fixed precision (e.g. FormatDouble(3.14159,2)
/// == "3.14"); used by bench output so tables align.
std::string FormatDouble(double v, int precision);

}  // namespace privmark

#endif  // PRIVMARK_COMMON_STRINGS_H_
