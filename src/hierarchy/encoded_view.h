// Dictionary-encoded columnar substrate over relational tables.
//
// Every stage of the pipeline — binning, watermark embed/detect, metrics,
// attacks — walks (row, quasi-identifier column) cells. The row store holds
// those cells as dynamically typed Values whose payload is a string label,
// so a naive pass re-materializes each cell as a std::string and resolves
// it through the tree's label index per row, per column, per stage. This
// header factors that resolution out: an EncodedColumn resolves one column
// against its DomainHierarchy *once*, yielding a flat std::vector<NodeId>
// the hot loops consume as plain integers; an EncodedView bundles one
// EncodedColumn per quasi-identifying column of a table. Labels are only
// rematerialized when a stage writes cells back, via the tree's
// NodeId -> label arena.
//
// Integer columns are also what later scaling work keys on: NodeId vectors
// shard, batch and vectorize; string maps do not.
//
// Two encodings exist because the pipeline sees two kinds of tables:
//  - Leaves(): original tables, whose cells are raw domain values (ints,
//    doubles, leaf labels). Unknown values are hard errors — binning must
//    not silently drop data.
//  - Labels(): binned/watermarked tables, whose cells are generalization
//    node labels. Cells may have been altered by an attacker beyond the
//    domain, so unknown labels encode as kInvalidNode and are counted
//    rather than rejected; detection-side code skips them.

#ifndef PRIVMARK_HIERARCHY_ENCODED_VIEW_H_
#define PRIVMARK_HIERARCHY_ENCODED_VIEW_H_

#include <vector>

#include "common/status.h"
#include "hierarchy/domain_hierarchy.h"
#include "relation/table.h"

namespace privmark {

class ThreadPool;

/// \brief One table column resolved to NodeIds of its DomainHierarchy.
class EncodedColumn {
 public:
  EncodedColumn() = default;

  /// \brief Encodes raw (leaf-level) cells of `table`'s column `column`:
  /// each cell maps to its leaf via DomainHierarchy::LeafForValue.
  /// KeyError / OutOfRange on a value outside the domain; InvalidArgument
  /// on a null tree or a column index outside the schema. With a pool,
  /// rows resolve in contiguous shards into disjoint slots of one
  /// pre-sized id vector — byte-identical to the serial pass (including
  /// which error surfaces) for any worker count.
  static Result<EncodedColumn> Leaves(const Table& table, size_t column,
                                      const DomainHierarchy* tree,
                                      ThreadPool* pool = nullptr);

  /// \brief Encodes generalized cells (node labels): each cell maps to the
  /// tree node carrying its label. Labels outside the domain — attacked
  /// cells — encode as kInvalidNode and are tallied in unknown_cells();
  /// they are not errors, mirroring detection's skip semantics.
  static Result<EncodedColumn> Labels(const Table& table, size_t column,
                                      const DomainHierarchy* tree);

  const DomainHierarchy* tree() const { return tree_; }
  const std::vector<NodeId>& ids() const { return ids_; }
  size_t size() const { return ids_.size(); }
  NodeId id(size_t row) const { return ids_[row]; }

  /// \brief Cells whose label did not resolve (Labels() encoding only).
  size_t unknown_cells() const { return unknown_cells_; }

  /// \brief Copy keeping only rows with keep[r] != 0 (order preserved);
  /// the columnar analogue of Table::RemoveRows for suppression.
  /// InvalidArgument unless the mask covers exactly this column's rows —
  /// a mask built against a different table must not silently truncate.
  Result<EncodedColumn> Filtered(const std::vector<char>& keep) const;

  /// \brief Appends another column's rows (the columnar analogue of
  /// appending a batch of rows to a table — the streaming-ingest buffer
  /// concatenates per-batch encodings instead of re-resolving cells).
  /// InvalidArgument unless both columns resolve against the same tree.
  /// Encoded ids are per-row facts, so the concatenation is identical to
  /// encoding the concatenated rows in one pass.
  Status Append(const EncodedColumn& other);

 private:
  EncodedColumn(const DomainHierarchy* tree, std::vector<NodeId> ids,
                size_t unknown_cells)
      : tree_(tree), ids_(std::move(ids)), unknown_cells_(unknown_cells) {}

  const DomainHierarchy* tree_ = nullptr;
  std::vector<NodeId> ids_;
  size_t unknown_cells_ = 0;
};

/// \brief Per-table bundle: one EncodedColumn per quasi-identifying column,
/// parallel to `qi_columns`. Encodes each column exactly once; every stage
/// that used to re-resolve strings borrows the same view.
class EncodedView {
 public:
  EncodedView() = default;

  /// \brief Leaf-encodes the QI columns of `table` (original tables).
  /// InvalidArgument if `qi_columns` and `trees` sizes differ or a column
  /// index falls outside the schema; value errors propagate per column.
  /// (Per-column label encoding is EncodedColumn::Labels; a whole-view
  /// label form can join it once a stage consumes one.)
  static Result<EncodedView> Leaves(
      const Table& table, const std::vector<size_t>& qi_columns,
      const std::vector<const DomainHierarchy*>& trees,
      ThreadPool* pool = nullptr);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }

  /// \brief Encoded column `c` (position within qi_columns, not the schema).
  const EncodedColumn& column(size_t c) const { return columns_[c]; }

  /// \brief View keeping only rows with keep[r] != 0 in every column.
  Result<EncodedView> Filtered(const std::vector<char>& keep) const;

  /// \brief Appends another view's rows column by column. The views must
  /// cover the same number of columns with matching trees. An empty view
  /// (default-constructed) adopts `other`'s columns wholesale, so a
  /// streaming buffer can start from EncodedView() and Append every batch.
  Status Append(const EncodedView& other);

 private:
  explicit EncodedView(std::vector<EncodedColumn> columns)
      : columns_(std::move(columns)) {}

  std::vector<EncodedColumn> columns_;
};

}  // namespace privmark

#endif  // PRIVMARK_HIERARCHY_ENCODED_VIEW_H_
