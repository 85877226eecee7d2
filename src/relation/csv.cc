#include "relation/csv.h"

#include <cstdint>

#include "common/durable_file.h"
#include "common/strings.h"

namespace privmark {

namespace {

// Caps on untrusted CSV input. A single field larger than 16 MiB or a file
// larger than 1 GiB is not a data set this library targets — it is far more
// likely a corrupt or adversarial input, and slurping it would balloon
// memory before any schema check runs. Both caps fail with a clean
// InvalidArgument/IOError instead.
constexpr size_t kMaxCsvFieldBytes = 16ull << 20;
constexpr uint64_t kMaxCsvFileBytes = 1ull << 30;

bool NeedsQuoting(const std::string& cell) {
  return cell.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteCell(const std::string& cell) {
  if (!NeedsQuoting(cell)) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

// Parses one CSV record starting at `pos`; advances pos past the record's
// line terminator. Handles quoted fields with embedded commas/quotes.
Result<std::vector<std::string>> ParseRecord(const std::string& text,
                                             size_t* pos) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  size_t i = *pos;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\0') {
      // NUL never appears in well-formed CSV; accepting it would let a
      // binary blob masquerade as a short record when later passed through
      // C string handling.
      return Status::InvalidArgument("CSV: embedded NUL byte at offset " +
                                     std::to_string(i));
    }
    if (field.size() > kMaxCsvFieldBytes) {
      return Status::InvalidArgument(
          "CSV: field at offset " + std::to_string(*pos) + " exceeds " +
          std::to_string(kMaxCsvFieldBytes) + " bytes");
    }
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else {
      if (c == '"') {
        if (!field.empty()) {
          return Status::InvalidArgument(
              "CSV: quote inside unquoted field at offset " +
              std::to_string(i));
        }
        in_quotes = true;
      } else if (c == ',') {
        fields.push_back(std::move(field));
        field.clear();
      } else if (c == '\n' || c == '\r') {
        break;
      } else {
        field += c;
      }
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("CSV: unterminated quoted field");
  }
  fields.push_back(std::move(field));
  // Skip the line terminator (\n, \r, or \r\n).
  if (i < text.size() && text[i] == '\r') ++i;
  if (i < text.size() && text[i] == '\n') ++i;
  *pos = i;
  return fields;
}

}  // namespace

std::string TableToCsv(const Table& table) {
  std::string out;
  std::vector<std::string> names;
  names.reserve(table.num_columns());
  for (const auto& col : table.schema().columns()) {
    names.push_back(QuoteCell(col.name));
  }
  out += Join(names, ",");
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<std::string> cells;
    cells.reserve(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      cells.push_back(QuoteCell(table.at(r, c).ToString()));
    }
    out += Join(cells, ",");
    out += '\n';
  }
  return out;
}

Result<Table> TableFromCsv(const std::string& csv, const Schema& schema) {
  size_t pos = 0;
  PRIVMARK_ASSIGN_OR_RETURN(std::vector<std::string> header,
                            ParseRecord(csv, &pos));
  if (header.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "CSV header has " + std::to_string(header.size()) +
        " columns, schema has " + std::to_string(schema.num_columns()));
  }
  for (size_t c = 0; c < header.size(); ++c) {
    if (header[c] != schema.column(c).name) {
      return Status::InvalidArgument("CSV header column " + std::to_string(c) +
                                     " is '" + header[c] + "', expected '" +
                                     schema.column(c).name + "'");
    }
  }

  Table table(schema);
  while (pos < csv.size()) {
    // Allow (and stop at) a trailing newline.
    if (csv[pos] == '\n' || csv[pos] == '\r') {
      ++pos;
      continue;
    }
    PRIVMARK_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                              ParseRecord(csv, &pos));
    if (fields.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "CSV record has " + std::to_string(fields.size()) +
          " fields, expected " + std::to_string(schema.num_columns()));
    }
    Row row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      auto parsed = Value::Parse(fields[c], schema.column(c).type);
      if (parsed.ok()) {
        row.push_back(std::move(parsed).ValueOrDie());
      } else {
        // Generalized cells (e.g. "[25,50)" in a numeric column) stay as
        // string labels, mirroring how binned tables hold node labels.
        row.push_back(Value::String(fields[c]));
      }
    }
    PRIVMARK_RETURN_NOT_OK(table.AppendRow(std::move(row)));
  }
  return table;
}

Status WriteTableCsv(const Table& table, const std::string& path) {
  return WriteFileDurable(path, TableToCsv(table));
}

Result<Table> ReadTableCsv(const std::string& path, const Schema& schema) {
  PRIVMARK_ASSIGN_OR_RETURN(const std::string text,
                            ReadFileCapped(path, kMaxCsvFileBytes));
  return TableFromCsv(text, schema);
}

}  // namespace privmark
