#include "binning/mono_attribute.h"

#include "common/parallel.h"

namespace privmark {

namespace {

// Sums leaf counts into interior nodes: children always have larger ids
// than parents, so one reverse pass suffices.
void AccumulateSubtreeSums(const DomainHierarchy& tree,
                           std::vector<size_t>* counts) {
  for (size_t i = tree.num_nodes(); i-- > 1;) {
    const NodeId parent = tree.Parent(static_cast<NodeId>(i));
    if (parent != kInvalidNode) (*counts)[parent] += (*counts)[i];
  }
}

// The paper's SubGMN for the simple strategy: returns the minimal
// generalization nodes within the subtree rooted at `root`, assuming
// counts[root] >= k. `inspected` counts how many node counts the search
// reads (the downward-vs-upward work metric).
void SubGmnSimple(const DomainHierarchy& tree,
                  const std::vector<size_t>& counts, size_t k, NodeId root,
                  std::vector<NodeId>* out, size_t* inspected) {
  if (tree.IsLeaf(root)) {
    out->push_back(root);
    return;
  }
  // forany child with < k tuples: this node is minimal (Fig. 5 line 3-5).
  for (NodeId child : tree.Children(root)) {
    ++*inspected;
    if (counts[child] < k) {
      out->push_back(root);
      return;
    }
  }
  for (NodeId child : tree.Children(root)) {
    SubGmnSimple(tree, counts, k, child, out, inspected);
  }
}

// Aggressive strategy: descend whenever any child satisfies k; children
// with 0 < count < k are recorded for suppression, empty children kept.
void SubGmnAggressive(const DomainHierarchy& tree,
                      const std::vector<size_t>& counts, size_t k,
                      NodeId root, std::vector<NodeId>* out,
                      std::vector<NodeId>* suppressed) {
  if (tree.IsLeaf(root)) {
    out->push_back(root);
    return;
  }
  bool any_child_satisfies = false;
  for (NodeId child : tree.Children(root)) {
    if (counts[child] >= k) {
      any_child_satisfies = true;
      break;
    }
  }
  if (!any_child_satisfies) {
    out->push_back(root);
    return;
  }
  for (NodeId child : tree.Children(root)) {
    if (counts[child] >= k) {
      SubGmnAggressive(tree, counts, k, child, out, suppressed);
    } else {
      // Keep the node so the cover stays valid; 0 < count < k means its
      // tuples get suppressed.
      out->push_back(child);
      if (counts[child] > 0) suppressed->push_back(child);
    }
  }
}

}  // namespace

Result<std::vector<size_t>> CountPerNode(const DomainHierarchy& tree,
                                         const std::vector<Value>& values) {
  std::vector<size_t> counts(tree.num_nodes(), 0);
  for (const Value& v : values) {
    PRIVMARK_ASSIGN_OR_RETURN(NodeId leaf, tree.LeafForValue(v));
    ++counts[leaf];
  }
  AccumulateSubtreeSums(tree, &counts);
  return counts;
}

Result<std::vector<size_t>> CountPerNode(const DomainHierarchy& tree,
                                         const std::vector<NodeId>& leaf_ids,
                                         ThreadPool* pool) {
  // Per-shard leaf counting merged in shard order. Counts are integers, so
  // the merged histogram is identical to the serial one for any shard
  // count; the first failing shard covers the earliest rows, so the error
  // (if any) is the same one a serial scan reports.
  PRIVMARK_ASSIGN_OR_RETURN(
      std::vector<size_t> counts,
      ParallelReduce<std::vector<size_t>>(
          pool, leaf_ids.size(), std::vector<size_t>(tree.num_nodes(), 0),
          [&](size_t, size_t begin,
              size_t end) -> Result<std::vector<size_t>> {
            std::vector<size_t> local(tree.num_nodes(), 0);
            for (size_t r = begin; r < end; ++r) {
              const NodeId leaf = leaf_ids[r];
              if (leaf < 0 || static_cast<size_t>(leaf) >= tree.num_nodes()) {
                return Status::OutOfRange("CountPerNode: leaf id " +
                                          std::to_string(leaf) +
                                          " out of range");
              }
              ++local[leaf];
            }
            return local;
          },
          [](std::vector<size_t>* acc, std::vector<size_t>&& local) {
            for (size_t i = 0; i < acc->size(); ++i) (*acc)[i] += local[i];
          }));
  AccumulateSubtreeSums(tree, &counts);
  return counts;
}

Result<size_t> NumTuple(const DomainHierarchy& tree, NodeId node,
                        const std::vector<Value>& values) {
  PRIVMARK_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                            CountPerNode(tree, values));
  return NumTupleFromCounts(tree, node, counts);
}

Result<size_t> NumTupleFromCounts(const DomainHierarchy& tree, NodeId node,
                                  const std::vector<size_t>& counts) {
  if (node < 0 || static_cast<size_t>(node) >= tree.num_nodes()) {
    return Status::OutOfRange("NumTuple: node id out of range");
  }
  if (counts.size() != tree.num_nodes()) {
    return Status::InvalidArgument(
        "NumTuple: counts cover " + std::to_string(counts.size()) +
        " nodes, tree has " + std::to_string(tree.num_nodes()));
  }
  return counts[node];
}

Result<MonoBinningResult> MonoAttributeBin(const GeneralizationSet& maximal,
                                           const std::vector<Value>& values,
                                           const MonoBinningOptions& options) {
  PRIVMARK_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                            CountPerNode(*maximal.tree(), values));
  return MonoAttributeBinCounts(maximal, counts, options);
}

Result<MonoBinningResult> MonoAttributeBinCounts(
    const GeneralizationSet& maximal, const std::vector<size_t>& counts,
    const MonoBinningOptions& options) {
  if (options.k < 1) {
    return Status::InvalidArgument("MonoAttributeBin: k must be >= 1");
  }
  const DomainHierarchy& tree = *maximal.tree();
  if (counts.size() != tree.num_nodes()) {
    return Status::InvalidArgument(
        "MonoAttributeBin: counts cover " + std::to_string(counts.size()) +
        " nodes, tree has " + std::to_string(tree.num_nodes()));
  }

  std::vector<NodeId> mingends;
  std::vector<NodeId> suppressed;
  size_t suppressed_tuples = 0;

  size_t nodes_inspected = 0;
  // GenMinNd (Fig. 5): process each maximal generalization node's subtree.
  for (NodeId max_node : maximal.nodes()) {
    ++nodes_inspected;
    const size_t count = counts[max_node];
    if (count == 0) {
      // Empty subtree: keep the maximal node so the cover stays valid.
      mingends.push_back(max_node);
      continue;
    }
    if (count < options.k) {
      if (options.on_unbinnable == UnbinnablePolicy::kError) {
        return Status::Unbinnable(
            "attribute '" + tree.attribute() + "': subtree '" +
            tree.node(max_node).label + "' holds " + std::to_string(count) +
            " tuple(s) < k=" + std::to_string(options.k) +
            " within the usage metrics");
      }
      mingends.push_back(max_node);
      suppressed.push_back(max_node);
      suppressed_tuples += count;
      continue;
    }
    if (options.strategy == MinimalityStrategy::kSimple) {
      SubGmnSimple(tree, counts, options.k, max_node, &mingends,
                   &nodes_inspected);
    } else {
      std::vector<NodeId> agg_suppressed;
      SubGmnAggressive(tree, counts, options.k, max_node, &mingends,
                       &agg_suppressed);
      if (!agg_suppressed.empty() &&
          options.on_unbinnable == UnbinnablePolicy::kError) {
        return Status::Unbinnable(
            "attribute '" + tree.attribute() +
            "': aggressive strategy requires suppressing " +
            std::to_string(agg_suppressed.size()) +
            " sub-k node(s); rerun with UnbinnablePolicy::kSuppress");
      }
      for (NodeId nd : agg_suppressed) {
        suppressed.push_back(nd);
        suppressed_tuples += counts[nd];
      }
    }
  }

  PRIVMARK_ASSIGN_OR_RETURN(
      GeneralizationSet minimal,
      GeneralizationSet::Create(&tree, std::move(mingends)));
  MonoBinningResult result{std::move(minimal), std::move(suppressed),
                           suppressed_tuples, nodes_inspected};
  return result;
}

}  // namespace privmark
