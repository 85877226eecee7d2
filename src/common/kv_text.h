// The `key = value` text grammar shared by privmark's own files:
// protection manifests, key files and journal epoch seals. ParseKvText
// owns the line mechanics; each format keeps only its field table and
// value checks.
//
//   text    := { line '\n' }   each line trimmed of ASCII whitespace first
//   line    := ""               blank, skipped
//            | "[" name "]"     section header: opens a new scope
//            | key " = " value  field: split at the first " = "
//
// Fields before the first header form the top-level scope. A key repeated
// within one scope is an error ("duplicate key"), as is any other line
// ("malformed line"); errors are InvalidArgument prefixed with `what`.
// Values are verbatim, so never empty and never ending in whitespace.
// Section names and keys are the caller's to check. A format with a bare
// magic line (key files) gets its first non-blank line back as `header`.

#ifndef PRIVMARK_COMMON_KV_TEXT_H_
#define PRIVMARK_COMMON_KV_TEXT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace privmark {

struct KvField {
  std::string key;
  std::string value;
};

/// \brief The top-level scope (empty name) or one `[name]` section.
struct KvSection {
  std::string name;
  std::vector<KvField> fields;  // file order, keys unique

  /// The value of `key`, or nullptr when the scope lacks it.
  const std::string* Find(std::string_view key) const;
};

struct KvText {
  std::string header;  // only with `header_line`; empty for blank text
  KvSection top;
  std::vector<KvSection> sections;  // file order
};

/// \brief Parses `text` per the grammar above; never throws.
Result<KvText> ParseKvText(const std::string& text, const std::string& what,
                           bool header_line = false);

/// \brief True when `value` reads back verbatim as a field value: non-empty,
/// no '\n', '\r' or NUL, and no leading or trailing ASCII whitespace (the
/// parser trims lines). A writer checks a caller's text with it before
/// accepting it.
bool IsKvTextValue(std::string_view value);

}  // namespace privmark

#endif  // PRIVMARK_COMMON_KV_TEXT_H_
