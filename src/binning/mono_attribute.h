// Mono-attribute binning (paper Sec. 4.2.1, Fig. 5).
//
// For one quasi-identifying attribute, binning starts at the maximal
// generalization nodes (the off-line usage-metric output) and searches
// *downward* for the lowest valid generalization satisfying k-anonymity:
// the minimal generalization nodes. The recursion mirrors the paper's
// GenMinNd / SubGMN / NumTuple exactly; deviations for degenerate inputs are
// documented on the options below.
//
// Hot path: the search itself only ever touches per-node tuple counts, so
// the Value-based entry points are thin wrappers that encode the column to
// leaf NodeIds once (or take pre-encoded leaf ids) and hand a flat counts
// vector to the integer-only kernel.

#ifndef PRIVMARK_BINNING_MONO_ATTRIBUTE_H_
#define PRIVMARK_BINNING_MONO_ATTRIBUTE_H_

#include <vector>

#include "common/status.h"
#include "hierarchy/generalization.h"
#include "relation/value.h"

namespace privmark {

class ThreadPool;

/// \brief What to do when a maximal-node subtree holds 0 < count < k tuples
/// (the data cannot be binned within the usage metrics).
enum class UnbinnablePolicy {
  /// Fail the whole binning run with Status::Unbinnable.
  kError,
  /// Suppress (drop) the offending tuples, the classical fallback the
  /// paper's generalization-and-suppression ancestry provides.
  kSuppress,
};

/// \brief Which minimality rationale to use (paper Sec. 4.2.1, last
/// paragraph).
enum class MinimalityStrategy {
  /// "A node is minimal if itself meets k-anonymity, but not all of its
  /// child nodes do." May over-generalize.
  kSimple,
  /// The paper's sketched aggressive variant: "a node is not minimal if any
  /// of its child nodes satisfies k-anonymity". We descend into satisfying
  /// children; empty children are kept as (vacuous) generalization nodes;
  /// children with 0 < count < k are suppressed per UnbinnablePolicy.
  kAggressive,
};

struct MonoBinningOptions {
  size_t k = 2;
  UnbinnablePolicy on_unbinnable = UnbinnablePolicy::kError;
  MinimalityStrategy strategy = MinimalityStrategy::kSimple;
};

struct MonoBinningResult {
  /// The minimal generalization nodes (a valid generalization).
  GeneralizationSet minimal;
  /// Leaves whose tuples must be suppressed (only under kSuppress); the
  /// corresponding nodes are still members of `minimal` so the cover stays
  /// valid — their bins are simply empty after suppression.
  std::vector<NodeId> suppressed_nodes;
  /// Number of tuples falling under suppressed_nodes.
  size_t suppressed_tuples = 0;
  /// Nodes whose tuple count the search inspected — the work metric behind
  /// the paper's claim that "downward binning may have efficiency
  /// advantage over previous work that bins upward" (compare with
  /// UpwardAttributeBin's figure in bench/ablation_binning_direction).
  size_t nodes_inspected = 0;
};

/// \brief Per-node tuple counts for the whole tree in O(nodes + rows):
/// leaves get direct counts, interior nodes subtree sums. Exposed so
/// callers can compute counts once and reuse them across NumTuple calls
/// and binning passes.
Result<std::vector<size_t>> CountPerNode(const DomainHierarchy& tree,
                                         const std::vector<Value>& values);

/// \brief Counts over a pre-encoded column of leaf ids (no string work).
/// OutOfRange if an id is not a valid node of `tree`. With a pool, leaf
/// counting runs as a per-shard reduction merged in shard order (integer
/// sums — byte-identical to serial for any worker count); the subtree
/// roll-up stays serial.
Result<std::vector<size_t>> CountPerNode(const DomainHierarchy& tree,
                                         const std::vector<NodeId>& leaf_ids,
                                         ThreadPool* pool = nullptr);

/// \brief Runs mono-attribute binning for one column.
///
/// \param maximal the column's maximal generalization nodes (usage metrics)
/// \param values the column's original (leaf-level) values
///
/// Degenerate-input handling beyond the paper's pseudocode:
///  - a maximal subtree with zero tuples keeps its maximal node (a valid
///    cover needs it; k-anonymity is vacuous for an empty bin);
///  - a maximal subtree with 0 < count < k triggers `on_unbinnable`;
///  - a leaf with count >= k is its own minimal node.
Result<MonoBinningResult> MonoAttributeBin(const GeneralizationSet& maximal,
                                           const std::vector<Value>& values,
                                           const MonoBinningOptions& options);

/// \brief Same over precomputed per-node counts (from CountPerNode).
Result<MonoBinningResult> MonoAttributeBinCounts(
    const GeneralizationSet& maximal, const std::vector<size_t>& counts,
    const MonoBinningOptions& options);

/// \brief The paper's NumTuple: tuples of `values` whose leaf lies in the
/// subtree rooted at `node`. Exposed for tests and diagnostics.
Result<size_t> NumTuple(const DomainHierarchy& tree, NodeId node,
                        const std::vector<Value>& values);

/// \brief Counts-reusing form: callers holding a CountPerNode result
/// answer NumTuple queries in O(1) instead of recounting the column.
/// (Distinct name: a brace-initialized empty argument would otherwise be
/// ambiguous against the Value form.)
Result<size_t> NumTupleFromCounts(const DomainHierarchy& tree, NodeId node,
                                  const std::vector<size_t>& counts);

}  // namespace privmark

#endif  // PRIVMARK_BINNING_MONO_ATTRIBUTE_H_
