// Minimal CSV import/export for tables (header row + quoted-field support).
//
// Used by examples to persist protected tables, and by tests to round-trip
// data sets; the algorithms never depend on it.

#ifndef PRIVMARK_RELATION_CSV_H_
#define PRIVMARK_RELATION_CSV_H_

#include <string>

#include "common/status.h"
#include "relation/table.h"

namespace privmark {

/// \brief Serializes a table to CSV text (header = column names).
std::string TableToCsv(const Table& table);

/// \brief Parses CSV text into a table with the given schema.
///
/// The header row must match the schema's column names in order; each cell is
/// parsed to the declared column type, with non-parsing cells for int64 and
/// double columns kept as strings (generalized labels like "[25,50)" survive
/// a round trip). Malformed input — embedded NUL bytes, unterminated quotes,
/// fields past the 16 MiB cap, record/header arity mismatches — fails with
/// InvalidArgument, never UB or unbounded allocation.
Result<Table> TableFromCsv(const std::string& csv, const Schema& schema);

/// \brief Writes a table to a CSV file durably: contents and directory
/// entry are fsynced before OK (common/durable_file.h).
Status WriteTableCsv(const Table& table, const std::string& path);

/// \brief Reads a table from a CSV file. Files past the 1 GiB cap are
/// rejected with IOError before any bytes are buffered.
Result<Table> ReadTableCsv(const std::string& path, const Schema& schema);

}  // namespace privmark

#endif  // PRIVMARK_RELATION_CSV_H_
