#include "hierarchy/encoded_view.h"

#include "common/parallel.h"

namespace privmark {

namespace {

Status CheckColumn(const Table& table, size_t column,
                   const DomainHierarchy* tree) {
  if (tree == nullptr) {
    return Status::InvalidArgument("EncodedColumn: null tree");
  }
  if (column >= table.num_columns()) {
    return Status::InvalidArgument(
        "EncodedColumn: column " + std::to_string(column) +
        " out of range for schema with " +
        std::to_string(table.num_columns()) + " columns");
  }
  return Status::OK();
}

}  // namespace

Result<EncodedColumn> EncodedColumn::Leaves(const Table& table, size_t column,
                                            const DomainHierarchy* tree,
                                            ThreadPool* pool) {
  PRIVMARK_RETURN_NOT_OK(CheckColumn(table, column, tree));
  std::vector<NodeId> ids(table.num_rows());
  PRIVMARK_RETURN_NOT_OK(ParallelFor(
      pool, table.num_rows(), [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t r = begin; r < end; ++r) {
          PRIVMARK_ASSIGN_OR_RETURN(ids[r],
                                    tree->LeafForValue(table.at(r, column)));
        }
        return Status::OK();
      }));
  return EncodedColumn(tree, std::move(ids), 0);
}

Result<EncodedColumn> EncodedColumn::Labels(const Table& table, size_t column,
                                            const DomainHierarchy* tree) {
  PRIVMARK_RETURN_NOT_OK(CheckColumn(table, column, tree));
  std::vector<NodeId> ids(table.num_rows());
  size_t unknown = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value& cell = table.at(r, column);
    NodeId id = kInvalidNode;
    if (cell.type() == ValueType::kString) {
      auto found = tree->FindByLabel(cell.AsString());
      if (found.ok()) id = *found;
    } else {
      auto found = tree->FindByLabel(cell.ToString());
      if (found.ok()) id = *found;
    }
    if (id == kInvalidNode) ++unknown;
    ids[r] = id;
  }
  return EncodedColumn(tree, std::move(ids), unknown);
}

Result<EncodedColumn> EncodedColumn::Filtered(
    const std::vector<char>& keep) const {
  // A mask built against a different table is a caller bug; fail fast in
  // every build type instead of silently truncating the view out of sync
  // with its table.
  if (keep.size() != ids_.size()) {
    return Status::InvalidArgument(
        "Filtered: keep mask covers " + std::to_string(keep.size()) +
        " rows, column has " + std::to_string(ids_.size()));
  }
  EncodedColumn out;
  out.tree_ = tree_;
  out.ids_.reserve(ids_.size());
  size_t unknown = 0;
  for (size_t r = 0; r < ids_.size(); ++r) {
    if (!keep[r]) continue;
    out.ids_.push_back(ids_[r]);
    if (ids_[r] == kInvalidNode) ++unknown;
  }
  out.unknown_cells_ = unknown;
  return out;
}

Status EncodedColumn::Append(const EncodedColumn& other) {
  if (tree_ != other.tree_) {
    return Status::InvalidArgument(
        "Append: columns resolve against different trees");
  }
  ids_.insert(ids_.end(), other.ids_.begin(), other.ids_.end());
  unknown_cells_ += other.unknown_cells_;
  return Status::OK();
}

Result<EncodedView> EncodedView::Filtered(const std::vector<char>& keep) const {
  std::vector<EncodedColumn> columns;
  columns.reserve(columns_.size());
  for (const EncodedColumn& column : columns_) {
    PRIVMARK_ASSIGN_OR_RETURN(EncodedColumn filtered, column.Filtered(keep));
    columns.push_back(std::move(filtered));
  }
  return EncodedView(std::move(columns));
}

Result<EncodedView> EncodedView::Leaves(
    const Table& table, const std::vector<size_t>& qi_columns,
    const std::vector<const DomainHierarchy*>& trees, ThreadPool* pool) {
  if (qi_columns.size() != trees.size()) {
    return Status::InvalidArgument(
        "EncodedView: " + std::to_string(qi_columns.size()) +
        " columns but " + std::to_string(trees.size()) + " trees");
  }
  std::vector<EncodedColumn> columns;
  columns.reserve(qi_columns.size());
  for (size_t c = 0; c < qi_columns.size(); ++c) {
    PRIVMARK_ASSIGN_OR_RETURN(
        EncodedColumn column,
        EncodedColumn::Leaves(table, qi_columns[c], trees[c], pool));
    columns.push_back(std::move(column));
  }
  return EncodedView(std::move(columns));
}

Status EncodedView::Append(const EncodedView& other) {
  if (columns_.empty()) {
    columns_ = other.columns_;
    return Status::OK();
  }
  if (columns_.size() != other.columns_.size()) {
    return Status::InvalidArgument(
        "Append: view covers " + std::to_string(columns_.size()) +
        " columns, batch covers " + std::to_string(other.columns_.size()));
  }
  // Validate every tree before mutating any column so a mismatched batch
  // leaves the view untouched.
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].tree() != other.columns_[c].tree()) {
      return Status::InvalidArgument(
          "Append: column " + std::to_string(c) +
          " resolves against a different tree");
    }
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    PRIVMARK_RETURN_NOT_OK(columns_[c].Append(other.columns_[c]));
  }
  return Status::OK();
}

}  // namespace privmark
