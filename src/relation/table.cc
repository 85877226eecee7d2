#include "relation/table.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace privmark {

Status Table::AppendRow(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "AppendRow: row has " + std::to_string(row.size()) +
        " cells, schema has " + std::to_string(schema_.num_columns()) +
        " columns");
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status Table::Append(Table other) {
  if (other.num_rows() > 0 && other.num_columns() != num_columns()) {
    return Status::InvalidArgument(
        "Append: table has " + std::to_string(other.num_columns()) +
        " columns, schema has " + std::to_string(num_columns()));
  }
  rows_.insert(rows_.end(), std::make_move_iterator(other.rows_.begin()),
               std::make_move_iterator(other.rows_.end()));
  return Status::OK();
}

void Table::RemoveRows(std::vector<size_t> indices) {
  if (indices.empty()) return;
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  std::vector<Row> kept;
  kept.reserve(rows_.size() - indices.size());
  size_t next_removed = 0;
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (next_removed < indices.size() && indices[next_removed] == r) {
      ++next_removed;
      continue;
    }
    kept.push_back(std::move(rows_[r]));
  }
  rows_ = std::move(kept);
}

std::vector<Value> Table::ColumnValues(size_t c) const {
  std::vector<Value> out;
  out.reserve(rows_.size());
  for (const auto& row : rows_) out.push_back(row[c]);
  return out;
}

std::vector<Bin> Table::GroupBy(const std::vector<size_t>& columns) const {
  std::map<std::vector<Value>, std::vector<size_t>> groups;
  std::vector<Value> key(columns.size());
  for (size_t r = 0; r < rows_.size(); ++r) {
    for (size_t i = 0; i < columns.size(); ++i) {
      key[i] = rows_[r][columns[i]];
    }
    groups[key].push_back(r);
  }
  std::vector<Bin> bins;
  bins.reserve(groups.size());
  for (auto& [k, members] : groups) {
    bins.push_back(Bin{k, std::move(members)});
  }
  return bins;
}

size_t Table::MinBinSize(const std::vector<size_t>& columns) const {
  if (rows_.empty()) return 0;
  size_t min_size = rows_.size();
  for (const Bin& bin : GroupBy(columns)) {
    min_size = std::min(min_size, bin.size());
  }
  return min_size;
}

bool Table::IsKAnonymous(const std::vector<size_t>& columns, size_t k) const {
  return MinBinSize(columns) >= k;
}

Table Table::Clone() const {
  Table copy(schema_);
  copy.rows_ = rows_;
  return copy;
}

Table Table::Slice(size_t begin, size_t end) const {
  Table slice(schema_);
  end = std::min(end, rows_.size());
  for (size_t r = begin; r < end; ++r) {
    slice.rows_.push_back(rows_[r]);
  }
  return slice;
}

}  // namespace privmark
