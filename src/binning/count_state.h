// Per-column tuple-count state: the substrate of bin selection.
//
// CountPerNode produces, for one column, the full per-node histogram of a
// tree: direct counts at the leaves, subtree sums at interior nodes. Both
// layers are linear in the rows, so the counts of a concatenation of row
// batches equal the elementwise sum of the batches' counts — exactly, in
// integers. CountState packages one such histogram per quasi-identifying
// column together with that Merge.
//
// A flush counts its rows once: the binning agent builds the state with
// FromView over the encoded rows it is about to bin (a session's buffered
// view of its whole flush window), and recounts the kept rows after
// suppression. Merge and Zero remain for callers that fold counts batch
// by batch; the result equals one FromView over all the rows.
//
// Bin selection (MonoAttributeBinCounts, the downward GenMinNd search)
// consumes these vectors directly, so the search never touches rows.

#ifndef PRIVMARK_BINNING_COUNT_STATE_H_
#define PRIVMARK_BINNING_COUNT_STATE_H_

#include <vector>

#include "common/status.h"
#include "hierarchy/domain_hierarchy.h"
#include "hierarchy/encoded_view.h"

namespace privmark {

class ThreadPool;

/// \brief Per-column per-node tuple counts with an exact elementwise
/// Merge; one counts vector per quasi-identifying column, parallel to the
/// trees it was built from.
class CountState {
 public:
  CountState() = default;

  /// \brief All-zero state over `trees` (the start of a batch-by-batch
  /// fold).
  static Result<CountState> Zero(
      const std::vector<const DomainHierarchy*>& trees);

  /// \brief Counts of a set of rows: per column, the leaf histogram of the
  /// encoded ids plus the interior subtree roll-up (CountPerNode). The
  /// view must hold one column per tree, in the same order.
  static Result<CountState> FromView(
      const std::vector<const DomainHierarchy*>& trees,
      const EncodedView& view, ThreadPool* pool = nullptr);

  /// \brief Folds another state in: elementwise integer sums per column.
  /// InvalidArgument unless `other` covers the same trees. Exact for any
  /// merge order.
  Status Merge(const CountState& other);

  size_t num_columns() const { return counts_.size(); }

  /// \brief Total rows folded into this state.
  size_t num_rows() const { return num_rows_; }

  /// \brief Per-node counts of column `c` (position within the pipeline's
  /// quasi-identifier column list): counts[node] is the number of
  /// accumulated tuples whose leaf lies in the subtree rooted at `node`.
  const std::vector<size_t>& column(size_t c) const { return counts_[c]; }

  const std::vector<const DomainHierarchy*>& trees() const { return trees_; }

 private:
  CountState(std::vector<const DomainHierarchy*> trees,
             std::vector<std::vector<size_t>> counts, size_t num_rows)
      : trees_(std::move(trees)),
        counts_(std::move(counts)),
        num_rows_(num_rows) {}

  std::vector<const DomainHierarchy*> trees_;
  std::vector<std::vector<size_t>> counts_;
  size_t num_rows_ = 0;
};

}  // namespace privmark

#endif  // PRIVMARK_BINNING_COUNT_STATE_H_
