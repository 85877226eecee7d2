#include "binning/multi_attribute.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/parallel.h"

namespace privmark {

namespace {

// Resolves every row's node in one column: `gen` applied to its leaf.
Status ResolveColumn(const std::vector<NodeId>& leaves,
                     const GeneralizationSet& gen, std::vector<NodeId>* out) {
  out->resize(leaves.size());
  for (size_t r = 0; r < leaves.size(); ++r) {
    PRIVMARK_ASSIGN_OR_RETURN((*out)[r], gen.NodeForLeaf(leaves[r]));
  }
  return Status::OK();
}

// Groups rows into joint bins one column at a time. After column c a row's
// bin id is the dense id of the pair (its bin id after column c - 1, its
// node in column c), found in a flat open-addressing table keyed by
// (prefix id << 32) | node. Bin ids stay below the row count (< 2^32), so
// a key never outgrows 64 bits whatever the column count or tree depth. A
// reused counter keeps its buffers, so a search allocates them once.
class BinCounter {
 public:
  // Bins rows by their per-column nodes (row_nodes[c][r]). No columns
  // means no bins.
  void Count(const std::vector<std::vector<NodeId>>& row_nodes) {
    sizes_.clear();
    if (row_nodes.empty()) return;
    const size_t num_rows = row_nodes[0].size();
    size_t capacity = 16;
    int shift = 60;  // hash >> shift indexes `capacity` slots
    while (capacity < 2 * num_rows) {
      capacity *= 2;
      --shift;
    }
    slot_keys_.resize(capacity);
    slot_bins_.resize(capacity);
    bin_of_row_.assign(num_rows, 0);
    uint32_t num_bins = 0;
    for (const std::vector<NodeId>& nodes : row_nodes) {
      std::fill(slot_keys_.begin(), slot_keys_.end(), kEmptySlot);
      num_bins = 0;
      for (size_t r = 0; r < num_rows; ++r) {
        const uint64_t key = (uint64_t{bin_of_row_[r]} << 32) |
                             static_cast<uint32_t>(nodes[r]);
        size_t slot = (key * 0x9E3779B97F4A7C15ull) >> shift;
        while (slot_keys_[slot] != key && slot_keys_[slot] != kEmptySlot) {
          slot = (slot + 1) & (capacity - 1);
        }
        if (slot_keys_[slot] == kEmptySlot) {
          slot_keys_[slot] = key;
          slot_bins_[slot] = num_bins++;
        }
        bin_of_row_[r] = slot_bins_[slot];
      }
    }
    sizes_.assign(num_bins, 0);
    for (uint32_t bin : bin_of_row_) ++sizes_[bin];
  }

  // Bins rows by the nodes `gens` assign their leaves.
  Status Count(const EncodedView& leaves,
               const std::vector<GeneralizationSet>& gens) {
    nodes_.resize(gens.size());
    for (size_t c = 0; c < gens.size(); ++c) {
      PRIVMARK_RETURN_NOT_OK(
          ResolveColumn(leaves.column(c).ids(), gens[c], &nodes_[c]));
    }
    Count(nodes_);
    return Status::OK();
  }

  bool AllBinsAtLeast(size_t k) const {
    return std::all_of(sizes_.begin(), sizes_.end(),
                       [k](uint32_t size) { return size >= k; });
  }

  // Rows sharing row r's bin.
  size_t BinSizeOfRow(size_t r) const { return sizes_[bin_of_row_[r]]; }

 private:
  // Real keys carry a non-negative NodeId in their low half, never ~0u.
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};

  std::vector<std::vector<NodeId>> nodes_;  // scratch for the gens form
  std::vector<uint64_t> slot_keys_;
  std::vector<uint32_t> slot_bins_;
  std::vector<uint32_t> bin_of_row_;
  std::vector<uint32_t> sizes_;  // rows per bin id
};

double TotalSpecificityLoss(const std::vector<GeneralizationSet>& gens) {
  double total = 0;
  for (const auto& g : gens) total += g.SpecificityLoss();
  return total;
}

// One greedy merge step: replace all members under `parent` with `parent`.
struct MergeStep {
  size_t column;
  NodeId parent;
  double delta_loss;         // specificity-loss increase
  size_t violating_covered;  // rows in sub-k bins whose node is under parent
};

}  // namespace

Result<bool> IsJointlyKAnonymous(const Table& table,
                                 const std::vector<size_t>& qi_columns,
                                 const std::vector<GeneralizationSet>& gens,
                                 size_t k) {
  if (gens.size() != qi_columns.size()) {
    return Status::InvalidArgument(
        "IsJointlyKAnonymous: " + std::to_string(gens.size()) +
        " generalizations for " + std::to_string(qi_columns.size()) +
        " quasi-identifying columns");
  }
  std::vector<const DomainHierarchy*> trees;
  for (const GeneralizationSet& gen : gens) trees.push_back(gen.tree());
  PRIVMARK_ASSIGN_OR_RETURN(EncodedView leaves,
                            EncodedView::Leaves(table, qi_columns, trees));
  BinCounter bins;
  PRIVMARK_RETURN_NOT_OK(bins.Count(leaves, gens));
  return bins.AllBinsAtLeast(k);
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

  // Row leaves: the caller's encoded view when given (no copies),
  // resolved once otherwise.
  EncodedView owned;
  if (view != nullptr) {
    if (view->num_columns() != num_cols) {
      return Status::InvalidArgument(
          "MultiAttributeBin: encoded view covers " +
          std::to_string(view->num_columns()) + " columns, expected " +
          std::to_string(num_cols));
    }
    // A view of no columns reports no rows; there is nothing to misread.
    if (num_cols > 0 && view->num_rows() != table.num_rows()) {
      return Status::InvalidArgument(
          "MultiAttributeBin: encoded view covers " +
          std::to_string(view->num_rows()) + " rows, table has " +
          std::to_string(table.num_rows()));
    }
    for (size_t c = 0; c < num_cols; ++c) {
      if (view->column(c).tree() != minimal[c].tree()) {
        return Status::InvalidArgument(
            "MultiAttributeBin: encoded view column " + std::to_string(c) +
            " uses a different tree than its minimal nodes");
      }
    }
  } else {
    std::vector<const DomainHierarchy*> trees;
    for (const GeneralizationSet& gen : minimal) trees.push_back(gen.tree());
    PRIVMARK_ASSIGN_OR_RETURN(owned,
                              EncodedView::Leaves(table, qi_columns, trees));
    view = &owned;
  }
  const EncodedView& leaves = *view;

  BinCounter bins;
  MultiBinningResult result;

  // Fast path: the minimal nodes may already be jointly k-anonymous.
  PRIVMARK_RETURN_NOT_OK(bins.Count(leaves, minimal));
  if (bins.AllBinsAtLeast(options.k)) {
    result.ultimate = minimal;
    result.candidates_considered = 1;
    result.already_satisfied = true;
    result.total_specificity_loss = TotalSpecificityLoss(minimal);
    return result;
  }

  // The data is binnable only if the all-maximal combination works.
  PRIVMARK_RETURN_NOT_OK(bins.Count(leaves, maximal));
  if (!bins.AllBinsAtLeast(options.k)) {
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
    // exact candidate the serial odometer loop selects. Each shard counts
    // bins with its own scratch counter.
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
              BinCounter shard_bins;
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
                  PRIVMARK_RETURN_NOT_OK(shard_bins.Count(leaves, candidate));
                  if (shard_bins.AllBinsAtLeast(options.k)) {
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
  // than k, apply the parent-merge with the best (violating-rows-covered /
  // specificity-loss) ratio. Per-row nodes carry across steps (a merge
  // rewrites only its column) and a candidate's violating rows sum a
  // per-node histogram, so a step costs O(rows * columns): too little work
  // to fork-join, so the greedy search runs serially.
  std::vector<GeneralizationSet> current = minimal;
  std::vector<std::vector<NodeId>> row_nodes(num_cols);
  std::vector<std::vector<size_t>> violating(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    PRIVMARK_RETURN_NOT_OK(
        ResolveColumn(leaves.column(c).ids(), current[c], &row_nodes[c]));
  }
  for (;;) {
    bins.Count(row_nodes);
    // violating[c][n]: rows in sub-k bins whose column-c node is n.
    size_t num_violating = 0;
    for (size_t c = 0; c < num_cols; ++c) {
      violating[c].assign(current[c].tree()->num_nodes(), 0);
    }
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (bins.BinSizeOfRow(r) >= options.k) continue;
      ++num_violating;
      for (size_t c = 0; c < num_cols; ++c) ++violating[c][row_nodes[c][r]];
    }
    if (num_violating == 0) break;

    // Enumerate candidate merge steps in (column, parent) order.
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

        // Every row's node is a member, so the rows under p are the rows
        // of the members p merges.
        size_t members_merged = 0;
        size_t covered = 0;
        for (NodeId member : current[c].nodes()) {
          if (tree.IsAncestorOrSelf(p, member)) {
            ++members_merged;
            covered += violating[c][member];
          }
        }
        const double n_leaves = static_cast<double>(tree.Leaves().size());
        steps.push_back(MergeStep{
            c, p, static_cast<double>(members_merged - 1) / n_leaves,
            covered});
      }
    }
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
    PRIVMARK_RETURN_NOT_OK(ResolveColumn(leaves.column(best->column).ids(),
                                         current[best->column],
                                         &row_nodes[best->column]));
    ++result.candidates_considered;
  }

  result.ultimate = std::move(current);
  result.total_specificity_loss = TotalSpecificityLoss(result.ultimate);
  return result;
}

}  // namespace privmark
