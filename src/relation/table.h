// In-memory row-store table.
//
// The paper operates on one clinical relation of ~20k tuples; a simple
// row-major store with value semantics is the right tool — binning and
// watermarking both take whole-table passes, and attacks clone tables freely.

#ifndef PRIVMARK_RELATION_TABLE_H_
#define PRIVMARK_RELATION_TABLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/schema.h"
#include "relation/value.h"

namespace privmark {

/// \brief One tuple.
using Row = std::vector<Value>;

/// \brief An equivalence class ("bin"): all rows sharing one generalized
/// quasi-identifier vector (paper Sec. 2: "records containing the same value
/// constitute a bin").
struct Bin {
  /// The shared quasi-identifier values, in the grouping columns' order.
  std::vector<Value> key;
  /// Indices of the member rows.
  std::vector<size_t> row_indices;

  size_t size() const { return row_indices.size(); }
};

/// \brief Mutable table: a Schema plus rows of Values.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return schema_.num_columns(); }

  /// \brief Appends a row after checking its arity.
  Status AppendRow(Row row);

  /// \brief Appends every row of `other`, in order, after checking that
  /// its arity matches. A table with no rows appends as a no-op whatever
  /// its schema (a default-constructed Table included). The rows are
  /// moved in, so pass an rvalue to append without copying.
  Status Append(Table other);

  const Row& row(size_t r) const { return rows_[r]; }
  const Value& at(size_t r, size_t c) const { return rows_[r][c]; }
  void Set(size_t r, size_t c, Value v) { rows_[r][c] = std::move(v); }

  /// \brief Removes the rows at the given indices (need not be sorted).
  void RemoveRows(std::vector<size_t> indices);

  /// \brief All values of one column, in row order.
  std::vector<Value> ColumnValues(size_t c) const;

  /// \brief Groups rows by their values in `columns`; bins are returned in
  /// ascending key order so output is deterministic.
  std::vector<Bin> GroupBy(const std::vector<size_t>& columns) const;

  /// \brief Smallest bin size when grouping by `columns`; 0 for an empty
  /// table. A table is k-anonymous w.r.t. those columns iff this is >= k.
  size_t MinBinSize(const std::vector<size_t>& columns) const;

  /// \brief True iff every bin under `columns` has at least k rows.
  bool IsKAnonymous(const std::vector<size_t>& columns, size_t k) const;

  /// \brief Deep copy.
  Table Clone() const;

  /// \brief Copy of rows [begin, min(end, num_rows())) as a new table
  /// with the same schema — the batch-slicing primitive for streaming
  /// replay (sessions ingest a table in Slice()d batches).
  Table Slice(size_t begin, size_t end) const;

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

}  // namespace privmark

#endif  // PRIVMARK_RELATION_TABLE_H_
