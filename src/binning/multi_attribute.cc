#include "binning/multi_attribute.h"

#include <algorithm>
#include <limits>
#include <set>
#include <unordered_map>

#include "common/parallel.h"

namespace privmark {

namespace {

// Per-row leaf ids for one column (computed once; generalizations change,
// leaves do not). When the caller already holds an EncodedView, its column
// is borrowed instead of re-resolving cells.
Result<std::vector<NodeId>> RowLeaves(const Table& table, size_t column,
                                      const DomainHierarchy& tree) {
  std::vector<NodeId> leaves(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    PRIVMARK_ASSIGN_OR_RETURN(leaves[r], tree.LeafForValue(table.at(r, column)));
  }
  return leaves;
}

// Bins are only scanned for < k violations and point-queried, so hashed
// (unordered) grouping is free speed.
using BinSizeMap =
    std::unordered_map<std::vector<NodeId>, size_t, NodeVectorHash>;

// Groups rows by their generalization-node vector; returns bin sizes keyed
// by the node vector. Columns are borrowed (pointers), matching how the
// search holds a caller's EncodedView without copying it. With a pool the
// rows shard contiguously into per-shard maps folded in shard order —
// integer sums, so the merged map's contents equal the serial map's (and
// callers only point-query or scan it, never depend on bucket order).
Result<BinSizeMap> BinSizes(
    const std::vector<const std::vector<NodeId>*>& row_leaves,
    const std::vector<GeneralizationSet>& gens, ThreadPool* pool = nullptr) {
  if (row_leaves.empty()) return BinSizeMap{};
  const size_t num_rows = row_leaves[0]->size();
  return ParallelReduce<BinSizeMap>(
      pool, num_rows, BinSizeMap{},
      [&](size_t, size_t begin, size_t end) -> Result<BinSizeMap> {
        BinSizeMap local;
        std::vector<NodeId> key(gens.size());
        for (size_t r = begin; r < end; ++r) {
          for (size_t c = 0; c < gens.size(); ++c) {
            PRIVMARK_ASSIGN_OR_RETURN(key[c],
                                      gens[c].NodeForLeaf((*row_leaves[c])[r]));
          }
          ++local[key];
        }
        return local;
      },
      [](BinSizeMap* acc, BinSizeMap&& local) {
        for (auto& [key, count] : local) (*acc)[key] += count;
      });
}

double TotalSpecificityLoss(const std::vector<GeneralizationSet>& gens) {
  double total = 0;
  for (const auto& g : gens) total += g.SpecificityLoss();
  return total;
}

// One greedy merge step: replace all members under `parent` with `parent`.
struct MergeStep {
  size_t column;
  NodeId parent;
  size_t members_merged;   // how many current members the step removes
  double delta_loss;       // specificity-loss increase
  size_t violating_covered;  // rows in sub-k bins whose node is under parent
};

}  // namespace

Result<bool> IsJointlyKAnonymous(const Table& table,
                                 const std::vector<size_t>& qi_columns,
                                 const std::vector<GeneralizationSet>& gens,
                                 size_t k) {
  std::vector<std::vector<NodeId>> owned;
  owned.reserve(qi_columns.size());
  std::vector<const std::vector<NodeId>*> row_leaves;
  row_leaves.reserve(qi_columns.size());
  for (size_t c = 0; c < qi_columns.size(); ++c) {
    PRIVMARK_ASSIGN_OR_RETURN(
        std::vector<NodeId> leaves,
        RowLeaves(table, qi_columns[c], *gens[c].tree()));
    owned.push_back(std::move(leaves));
    row_leaves.push_back(&owned.back());
  }
  PRIVMARK_ASSIGN_OR_RETURN(auto bins, BinSizes(row_leaves, gens));
  for (const auto& [key, size] : bins) {
    if (size < k) return false;
  }
  return true;
}

Result<MultiBinningResult> MultiAttributeBin(
    const Table& table, const std::vector<size_t>& qi_columns,
    const std::vector<GeneralizationSet>& minimal,
    const std::vector<GeneralizationSet>& maximal,
    const MultiBinningOptions& options, const EncodedView* view,
    ThreadPool* pool) {
  const size_t num_cols = qi_columns.size();
  if (minimal.size() != num_cols || maximal.size() != num_cols) {
    return Status::InvalidArgument(
        "MultiAttributeBin: minimal/maximal size mismatch with qi_columns");
  }
  if (options.k < 1) {
    return Status::InvalidArgument("MultiAttributeBin: k must be >= 1");
  }
  for (size_t c = 0; c < num_cols; ++c) {
    if (!minimal[c].IsRefinementOf(maximal[c])) {
      return Status::InvalidArgument(
          "MultiAttributeBin: minimal nodes of column " + std::to_string(c) +
          " are not a refinement of its maximal nodes");
    }
  }

  if (view != nullptr && view->num_columns() != num_cols) {
    return Status::InvalidArgument(
        "MultiAttributeBin: encoded view covers " +
        std::to_string(view->num_columns()) + " columns, expected " +
        std::to_string(num_cols));
  }

  // Per-column row leaves: borrowed by pointer from the caller's encoded
  // view when available (no copies), resolved once into `owned` otherwise.
  std::vector<std::vector<NodeId>> owned;
  owned.reserve(num_cols);
  std::vector<const std::vector<NodeId>*> row_leaves;
  row_leaves.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    if (view != nullptr) {
      if (view->column(c).tree() != minimal[c].tree()) {
        return Status::InvalidArgument(
            "MultiAttributeBin: encoded view column " + std::to_string(c) +
            " uses a different tree than its minimal nodes");
      }
      row_leaves.push_back(&view->column(c).ids());
      continue;
    }
    PRIVMARK_ASSIGN_OR_RETURN(
        std::vector<NodeId> leaves,
        RowLeaves(table, qi_columns[c], *minimal[c].tree()));
    owned.push_back(std::move(leaves));
    row_leaves.push_back(&owned.back());
  }

  // Row-sharded variant for the top-level checks; candidate-sharded code
  // paths below pass no pool of their own (ThreadPool::Run is fork-join
  // and not reentrant), keeping exactly one parallel dimension per stage.
  auto jointly_k_anonymous_on =
      [&](const std::vector<GeneralizationSet>& gens,
          ThreadPool* check_pool) -> Result<bool> {
    PRIVMARK_ASSIGN_OR_RETURN(auto bins,
                              BinSizes(row_leaves, gens, check_pool));
    for (const auto& [key, size] : bins) {
      if (size < options.k) return false;
    }
    return true;
  };
  auto jointly_k_anonymous =
      [&](const std::vector<GeneralizationSet>& gens) -> Result<bool> {
    return jointly_k_anonymous_on(gens, pool);
  };

  MultiBinningResult result;

  // Fast path: the minimal nodes may already be jointly k-anonymous.
  PRIVMARK_ASSIGN_OR_RETURN(bool min_ok, jointly_k_anonymous(minimal));
  if (min_ok) {
    result.ultimate = minimal;
    result.candidates_considered = 1;
    result.already_satisfied = true;
    result.total_specificity_loss = TotalSpecificityLoss(minimal);
    return result;
  }

  // The data is binnable only if the all-maximal combination works.
  PRIVMARK_ASSIGN_OR_RETURN(bool max_ok, jointly_k_anonymous(maximal));
  if (!max_ok) {
    return Status::Unbinnable(
        "even the maximal generalization nodes are not jointly " +
        std::to_string(options.k) + "-anonymous; the data is not binnable "
        "within the usage metrics");
  }

  if (options.strategy == SearchStrategy::kExhaustive) {
    // Fig. 7: enumerate allowable generalizations per column, take the
    // cross product, keep valid ones, select the least specificity loss.
    std::vector<std::vector<GeneralizationSet>> allowable(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      PRIVMARK_ASSIGN_OR_RETURN(
          allowable[c],
          EnumerateBetween(minimal[c], maximal[c], options.max_enumerations));
    }
    size_t combo_count = 1;
    for (size_t c = 0; c < num_cols; ++c) {
      if (combo_count > options.max_enumerations / allowable[c].size() + 1) {
        return Status::CapacityExceeded(
            "exhaustive multi-attribute binning would evaluate more than " +
            std::to_string(options.max_enumerations) + " combinations");
      }
      combo_count *= allowable[c].size();
    }
    if (combo_count > options.max_enumerations) {
      return Status::CapacityExceeded(
          "exhaustive multi-attribute binning would evaluate " +
          std::to_string(combo_count) + " combinations (cap " +
          std::to_string(options.max_enumerations) + ")");
    }

    // Candidates are independent: shard the enumeration index space and
    // fold the per-shard winners in shard order. Each shard keeps the
    // serial pruning rule (k-check only on a strict loss improvement), so
    // its winner is the earliest minimal-loss valid candidate of its
    // range; strict-< folding then picks the earliest global one — the
    // exact candidate the serial odometer loop selects. The k-checks
    // inside a shard run serially (one parallel dimension: candidates).
    struct ShardBest {
      double loss = std::numeric_limits<double>::infinity();
      std::vector<GeneralizationSet> gens;
    };
    PRIVMARK_ASSIGN_OR_RETURN(
        ShardBest best,
        ParallelReduce<ShardBest>(
            pool, combo_count, ShardBest{},
            [&](size_t, size_t begin, size_t end) -> Result<ShardBest> {
              ShardBest local;
              // Mixed-radix decomposition of the start index (column 0 is
              // the fastest-advancing digit, as in the serial loop).
              std::vector<size_t> odometer(num_cols, 0);
              size_t index = begin;
              for (size_t c = 0; c < num_cols; ++c) {
                odometer[c] = index % allowable[c].size();
                index /= allowable[c].size();
              }
              std::vector<GeneralizationSet> candidate(num_cols);
              for (size_t iter = begin; iter < end; ++iter) {
                for (size_t c = 0; c < num_cols; ++c) {
                  candidate[c] = allowable[c][odometer[c]];
                }
                const double loss = TotalSpecificityLoss(candidate);
                if (loss < local.loss) {
                  PRIVMARK_ASSIGN_OR_RETURN(
                      bool ok, jointly_k_anonymous_on(candidate, nullptr));
                  if (ok) {
                    local.loss = loss;
                    local.gens = candidate;
                  }
                }
                for (size_t c = 0; c < num_cols; ++c) {
                  if (++odometer[c] < allowable[c].size()) break;
                  odometer[c] = 0;
                }
              }
              return local;
            },
            [](ShardBest* acc, ShardBest&& local) {
              if (local.loss < acc->loss) *acc = std::move(local);
            }));
    result.candidates_considered = combo_count;
    if (best.gens.empty()) {
      return Status::Unbinnable(
          "no allowable generalization combination is jointly k-anonymous");
    }
    result.ultimate = std::move(best.gens);
    result.total_specificity_loss = best.loss;
    return result;
  }

  // Greedy strategy: start at the minimal nodes; while some bin is smaller
  // than k, apply the parent-merge with the best
  // (violating-rows-covered / specificity-loss) ratio.
  std::vector<GeneralizationSet> current = minimal;
  for (;;) {
    PRIVMARK_ASSIGN_OR_RETURN(auto bins, BinSizes(row_leaves, current, pool));
    // Per-row current nodes and per-row violation flags. Rows shard
    // contiguously; every row's slots are written by exactly one shard.
    const size_t num_rows = table.num_rows();
    std::vector<std::vector<NodeId>> row_nodes(num_cols);
    for (size_t c = 0; c < num_cols; ++c) row_nodes[c].resize(num_rows);
    PRIVMARK_RETURN_NOT_OK(ParallelFor(
        pool, num_rows, [&](size_t, size_t begin, size_t end) -> Status {
          for (size_t c = 0; c < num_cols; ++c) {
            for (size_t r = begin; r < end; ++r) {
              PRIVMARK_ASSIGN_OR_RETURN(
                  row_nodes[c][r], current[c].NodeForLeaf((*row_leaves[c])[r]));
            }
          }
          return Status::OK();
        }));
    std::vector<char> violating(num_rows, 0);
    size_t num_violating = 0;
    {
      std::vector<NodeId> key(num_cols);
      for (size_t r = 0; r < num_rows; ++r) {
        for (size_t c = 0; c < num_cols; ++c) key[c] = row_nodes[c][r];
        if (bins.at(key) < options.k) {
          violating[r] = 1;
          ++num_violating;
        }
      }
    }
    if (num_violating == 0) break;

    // Enumerate candidate merge steps. Eligibility and the cheap
    // per-member counts stay serial; the expensive per-candidate
    // violating-row scans fan out over the candidates, each writing only
    // its own pre-sized slot, so the step list is identical to the serial
    // one in content and order.
    std::vector<MergeStep> steps;
    for (size_t c = 0; c < num_cols; ++c) {
      const DomainHierarchy& tree = *current[c].tree();
      std::set<NodeId> parents;
      for (NodeId member : current[c].nodes()) {
        const NodeId p = tree.Parent(member);
        if (p != kInvalidNode) parents.insert(p);
      }
      for (NodeId p : parents) {
        // Eligible iff p's leaves are currently covered strictly below p
        // (checking one leaf suffices for a valid antichain) and p stays at
        // or below the maximal nodes.
        const NodeId first_leaf = tree.FirstLeafUnder(p);
        PRIVMARK_ASSIGN_OR_RETURN(NodeId cover,
                                  current[c].NodeForLeaf(first_leaf));
        if (cover == p || !tree.IsAncestorOrSelf(p, cover)) continue;
        PRIVMARK_ASSIGN_OR_RETURN(NodeId max_cover,
                                  maximal[c].NodeForLeaf(first_leaf));
        if (!tree.IsAncestorOrSelf(max_cover, p)) continue;

        size_t members_merged = 0;
        for (NodeId member : current[c].nodes()) {
          if (tree.IsAncestorOrSelf(p, member)) ++members_merged;
        }
        const double n_leaves = static_cast<double>(tree.Leaves().size());
        steps.push_back(MergeStep{
            c, p, members_merged,
            static_cast<double>(members_merged - 1) / n_leaves, 0});
      }
    }
    PRIVMARK_RETURN_NOT_OK(ParallelFor(
        pool, steps.size(), [&](size_t, size_t begin, size_t end) -> Status {
          for (size_t s = begin; s < end; ++s) {
            MergeStep& step = steps[s];
            const DomainHierarchy& tree = *current[step.column].tree();
            size_t covered = 0;
            for (size_t r = 0; r < num_rows; ++r) {
              if (violating[r] &&
                  tree.IsAncestorOrSelf(step.parent,
                                        row_nodes[step.column][r])) {
                ++covered;
              }
            }
            step.violating_covered = covered;
          }
          return Status::OK();
        }));
    if (steps.empty()) {
      return Status::Unbinnable(
          "greedy multi-attribute binning ran out of merge steps before "
          "reaching joint k-anonymity");
    }
    // Best ratio of violating rows fixed per unit of specificity loss;
    // deterministic tie-breaks (smaller loss, then column, then node id).
    const MergeStep* best = &steps[0];
    auto better = [](const MergeStep& a, const MergeStep& b) {
      const double score_a =
          static_cast<double>(a.violating_covered) / (a.delta_loss + 1e-12);
      const double score_b =
          static_cast<double>(b.violating_covered) / (b.delta_loss + 1e-12);
      if (score_a != score_b) return score_a > score_b;
      if (a.delta_loss != b.delta_loss) return a.delta_loss < b.delta_loss;
      if (a.column != b.column) return a.column < b.column;
      return a.parent < b.parent;
    };
    for (const MergeStep& step : steps) {
      if (better(step, *best)) best = &step;
    }

    // Apply the step: members under `parent` are replaced by `parent`.
    const DomainHierarchy& tree = *current[best->column].tree();
    std::vector<NodeId> next_nodes;
    next_nodes.reserve(current[best->column].nodes().size());
    for (NodeId member : current[best->column].nodes()) {
      if (!tree.IsAncestorOrSelf(best->parent, member)) {
        next_nodes.push_back(member);
      }
    }
    next_nodes.push_back(best->parent);
    PRIVMARK_ASSIGN_OR_RETURN(
        current[best->column],
        GeneralizationSet::Create(&tree, std::move(next_nodes)));
    ++result.candidates_considered;
  }

  result.ultimate = std::move(current);
  result.total_specificity_loss = TotalSpecificityLoss(result.ultimate);
  return result;
}

}  // namespace privmark
