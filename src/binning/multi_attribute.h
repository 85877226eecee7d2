// Multi-attribute binning (paper Sec. 4.2.2, Fig. 7).
//
// Mono-attribute binning leaves every column individually k-anonymous, but
// their *combination* may not be (the paper's 36-people/8-doctors example).
// Multi-attribute binning searches the space of allowable generalizations —
// per column, the antichains between its minimal and maximal generalization
// nodes — for an "ultimate generalization" that is jointly k-anonymous with
// the least specificity loss (N - Ng) / N.
//
// The exhaustive search is the paper's GenUltiNd: enumerate all
// combinations (EnumGen), filter by k-anonymity, Select the cheapest. Its
// cost is the product of per-column option counts, so we also provide a
// greedy strategy for production-size tables: starting from the minimal
// nodes, repeatedly apply the single cheapest one-parent merge until the
// table is jointly k-anonymous.

#ifndef PRIVMARK_BINNING_MULTI_ATTRIBUTE_H_
#define PRIVMARK_BINNING_MULTI_ATTRIBUTE_H_

#include <vector>

#include "common/status.h"
#include "hierarchy/encoded_view.h"
#include "hierarchy/generalization.h"
#include "relation/table.h"

namespace privmark {

class ThreadPool;

/// \brief Search strategy for the ultimate generalization.
enum class SearchStrategy {
  /// Fig. 7 verbatim: enumerate every allowable combination. Exponential;
  /// guarded by max_enumerations.
  kExhaustive,
  /// Greedy bottom-up merging; near-minimal loss at O(rows * columns) per
  /// merge step.
  kGreedy,
};

struct MultiBinningOptions {
  size_t k = 2;
  SearchStrategy strategy = SearchStrategy::kGreedy;
  /// Cap on enumerated combinations (kExhaustive only).
  size_t max_enumerations = 100000;
};

struct MultiBinningResult {
  /// The ultimate generalization nodes, one set per column (parallel to the
  /// input column order).
  std::vector<GeneralizationSet> ultimate;
  /// How many complete candidate generalizations were evaluated.
  size_t candidates_considered = 0;
  /// True if the minimal nodes were already jointly k-anonymous.
  bool already_satisfied = false;
  /// Summed specificity loss of the chosen generalization.
  double total_specificity_loss = 0.0;
};

/// \brief Finds the ultimate generalization (Fig. 7's GenUltiNd).
///
/// \param table the original table (leaf-level quasi-identifier values)
/// \param qi_columns quasi-identifying column indices, parallel to
///        `minimal` / `maximal`
/// \param minimal per-column minimal generalization nodes (from
///        mono-attribute binning)
/// \param maximal per-column maximal generalization nodes (usage metrics)
///
/// Returns Unbinnable if even the all-maximal combination is not jointly
/// k-anonymous (the paper's notion of "binnable data" requires it).
///
/// \param view optional pre-encoded leaf view of the table's qi_columns
///        (parallel to them); when given, the search reuses it instead of
///        re-resolving every cell through the label index.
/// \param pool optional worker pool for kExhaustive, which shards the
///        enumeration index space and folds per-shard bests in shard
///        order; the chosen generalization, candidates_considered, and loss
///        are identical to the serial search for any worker count. kGreedy
///        ignores it: one merge step is too little work to fork-join.
///
/// InvalidArgument if `view` covers other columns or a different row count
/// than `table`.
Result<MultiBinningResult> MultiAttributeBin(
    const Table& table, const std::vector<size_t>& qi_columns,
    const std::vector<GeneralizationSet>& minimal,
    const std::vector<GeneralizationSet>& maximal,
    const MultiBinningOptions& options, const EncodedView* view = nullptr,
    ThreadPool* pool = nullptr);

/// \brief Checks whether a per-column generalization combination makes the
/// table jointly k-anonymous; exposed for tests and the framework report.
///
/// Rows are mapped through each column's generalization and grouped; every
/// group must have >= k rows. InvalidArgument unless `gens` is parallel to
/// `qi_columns`.
Result<bool> IsJointlyKAnonymous(const Table& table,
                                 const std::vector<size_t>& qi_columns,
                                 const std::vector<GeneralizationSet>& gens,
                                 size_t k);

}  // namespace privmark

#endif  // PRIVMARK_BINNING_MULTI_ATTRIBUTE_H_
