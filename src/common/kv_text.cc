#include "common/kv_text.h"

#include <cctype>
#include <set>

#include "common/strings.h"

namespace privmark {

const std::string* KvSection::Find(std::string_view key) const {
  for (const KvField& field : fields) {
    if (field.key == key) return &field.value;
  }
  return nullptr;
}

Result<KvText> ParseKvText(const std::string& text, const std::string& what,
                           bool header_line) {
  KvText parsed;
  KvSection* scope = &parsed.top;
  // Keys seen in `scope`: a repeat means a corrupted or spliced file, and
  // last-one-wins would silently parse a file the writer never produced.
  std::set<std::string> seen;
  for (const std::string& raw_line : Split(text, '\n')) {
    std::string line = Trim(raw_line);
    if (line.empty()) continue;
    if (header_line && parsed.header.empty()) {
      parsed.header = std::move(line);
      continue;
    }
    if (line.front() == '[' && line.back() == ']') {
      parsed.sections.push_back({line.substr(1, line.size() - 2), {}});
      scope = &parsed.sections.back();
      seen.clear();
      continue;
    }
    const size_t eq = line.find(" = ");
    if (eq == std::string::npos) {
      return Status::InvalidArgument(what + ": malformed line: " + line);
    }
    KvField field{line.substr(0, eq), line.substr(eq + 3)};
    if (!seen.insert(field.key).second) {
      return Status::InvalidArgument(
          what + ": duplicate key '" + field.key + "'" +
          (scope == &parsed.top ? std::string()
                                : " in a [" + scope->name + "] section"));
    }
    scope->fields.push_back(std::move(field));
  }
  return parsed;
}

bool IsKvTextValue(std::string_view value) {
  auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  return !value.empty() && !is_space(value.front()) &&
         !is_space(value.back()) &&
         value.find_first_of(std::string_view("\n\r\0", 3)) ==
             std::string_view::npos;
}

}  // namespace privmark
