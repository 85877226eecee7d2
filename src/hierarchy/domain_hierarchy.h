// Domain hierarchy trees (DHTs).
//
// The paper (Sec. 2, Fig. 1) arranges each quasi-identifying attribute's
// domain in a tree: leaves are the most specific values, the root the most
// general description. Categorical attributes get hand-built ontologies;
// numeric attributes get a binary tree of intervals (Sec. 4, Fig. 3).
//
// Nodes live in an arena (vector indexed by NodeId) and each node's children
// are kept in a deterministic sorted order. Order stability matters: the
// hierarchical watermark encodes bits in the *parity of a node's index among
// its sorted siblings* (Fig. 9), so embedding and detection must see the same
// order in every process.
//
// Hot-path layout: the label index is a flat open-addressing hash table
// with heterogeneous std::string_view lookup (std::unordered_map would need
// C++20 for that; this index also avoids per-lookup temporary strings and
// stores only {hash, NodeId}, comparing through the node arena so it stays
// valid across tree moves and copies). Sibling indices and per-node leaf
// spans are precomputed at build time so SiblingIndex / LeafCountUnder /
// LeavesUnder are O(1) (plus output size) instead of tree walks.

#ifndef PRIVMARK_HIERARCHY_DOMAIN_HIERARCHY_H_
#define PRIVMARK_HIERARCHY_DOMAIN_HIERARCHY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relation/value.h"

namespace privmark {

/// \brief Index of a node within its DomainHierarchy.
using NodeId = int32_t;

/// \brief Sentinel for "no node" (e.g. the root's parent).
constexpr NodeId kInvalidNode = -1;

/// \brief FNV-1a over a node-id vector, for hashed maps and sets keyed by
/// a joint bin (one node per column).
struct NodeVectorHash {
  size_t operator()(const std::vector<NodeId>& key) const {
    uint64_t h = 1469598103934665603ull;
    for (const NodeId id : key) {
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(id));
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

/// \brief One node of a domain hierarchy tree.
struct HierarchyNode {
  /// Unique label within the tree; doubles as the generalized cell value.
  std::string label;
  NodeId parent = kInvalidNode;
  /// Children in deterministic order (insertion order for categorical
  /// ontologies, interval order for numeric trees).
  std::vector<NodeId> children;
  /// Distance from the root (root = 0).
  int depth = 0;
  /// Numeric trees only: the half-open interval [lo, hi) this node covers.
  /// NaN for categorical nodes.
  double lo = std::numeric_limits<double>::quiet_NaN();
  double hi = std::numeric_limits<double>::quiet_NaN();

  bool is_leaf() const { return children.empty(); }
  bool has_interval() const { return lo == lo; }  // NaN check
};

/// \brief Flat hash index from node label to NodeId.
///
/// Open addressing with linear probing over {hash, id} entries; labels are
/// compared through the caller-supplied node arena, so the index holds no
/// string storage and survives moves/copies of the owning tree. Lookup
/// takes a std::string_view — no temporary std::string on the hot path.
class LabelHashIndex {
 public:
  /// \brief Id of the node labeled `label`, or kInvalidNode.
  NodeId Find(std::string_view label,
              const std::vector<HierarchyNode>& nodes) const;

  /// \brief Inserts a label known to be absent (callers dedupe via Find).
  void Insert(std::string_view label, NodeId id,
              const std::vector<HierarchyNode>& nodes);

  size_t size() const { return size_; }

 private:
  struct Entry {
    uint64_t hash = 0;
    NodeId id = kInvalidNode;  // kInvalidNode marks an empty slot
  };

  static uint64_t HashLabel(std::string_view label);
  void Grow(const std::vector<HierarchyNode>& nodes);

  std::vector<Entry> slots_;
  size_t size_ = 0;
};

/// \brief Immutable domain hierarchy tree over one attribute's domain.
class DomainHierarchy {
 public:
  /// \brief The attribute name this tree describes (e.g. "age").
  const std::string& attribute() const { return attribute_; }

  /// \brief True for trees built over numeric intervals.
  bool is_numeric() const { return numeric_; }

  NodeId root() const { return 0; }
  size_t num_nodes() const { return nodes_.size(); }
  const HierarchyNode& node(NodeId id) const { return nodes_[id]; }

  NodeId Parent(NodeId id) const { return nodes_[id].parent; }
  const std::vector<NodeId>& Children(NodeId id) const {
    return nodes_[id].children;
  }

  /// \brief The node together with its siblings, in the parent's child
  /// order (the paper's Siblings(nd, tr)). For the root: {root}.
  std::vector<NodeId> Siblings(NodeId id) const;

  /// \brief Index of `id` within Siblings(id) (the paper's Index(nd, S)).
  /// O(1): precomputed at build time.
  size_t SiblingIndex(NodeId id) const { return sibling_index_[id]; }

  /// \brief Number of siblings of `id` including itself (O(1)).
  size_t SiblingCount(NodeId id) const {
    const NodeId parent = nodes_[id].parent;
    return parent == kInvalidNode ? 1 : nodes_[parent].children.size();
  }

  bool IsLeaf(NodeId id) const { return nodes_[id].is_leaf(); }
  int Depth(NodeId id) const { return nodes_[id].depth; }

  /// \brief All leaves of the tree, in left-to-right order.
  const std::vector<NodeId>& Leaves() const { return leaves_; }

  /// \brief Leaves of the subtree rooted at `id`, left-to-right.
  std::vector<NodeId> LeavesUnder(NodeId id) const;

  /// \brief The subtree's leaves as a contiguous [begin, end) range of
  /// indices into Leaves() — a subtree's leaves are always consecutive in
  /// left-to-right order, so this is O(1) and allocation-free.
  std::pair<size_t, size_t> LeafSpan(NodeId id) const {
    return {leaf_span_begin_[id], leaf_span_end_[id]};
  }

  /// \brief Leftmost leaf of the subtree rooted at `id`, in O(1).
  NodeId FirstLeafUnder(NodeId id) const {
    return leaves_[leaf_span_begin_[id]];
  }

  /// \brief |LeavesUnder(id)| in O(1) (precomputed).
  size_t LeafCountUnder(NodeId id) const {
    return leaf_span_end_[id] - leaf_span_begin_[id];
  }

  /// \brief True iff every interior node's children occupy a contiguous,
  /// ascending NodeId range. Numeric interval trees satisfy this by
  /// construction; categorical outlines generally do not. Dense child
  /// ranges are what future SoA/batched layouts key on, so the property is
  /// computed once at build time and exposed here.
  bool has_dense_child_ranges() const { return dense_children_; }

  /// \brief Node with the given label (heterogeneous lookup, no temporary).
  Result<NodeId> FindByLabel(std::string_view label) const;

  /// \brief Leaf with the given label: FindByLabel plus a leaf check.
  /// InvalidArgument if the label names an interior node.
  Result<NodeId> LeafForLabel(std::string_view label) const;

  /// \brief Maps an original cell value to its leaf.
  ///
  /// Categorical: leaf whose label equals the value's string. Numeric: the
  /// leaf interval containing the value. KeyError / OutOfRange on no match.
  Result<NodeId> LeafForValue(const Value& value) const;

  /// \brief True iff `ancestor` lies on the path from `descendant` to the
  /// root (inclusive of descendant == ancestor).
  bool IsAncestorOrSelf(NodeId ancestor, NodeId descendant) const;

 private:
  friend class HierarchyBuilder;
  friend Result<DomainHierarchy> BuildNumericHierarchy(
      const std::string& attribute, const std::vector<double>& boundaries);
  DomainHierarchy() = default;

  // Computes leaves_, leaf spans, sibling indices and the dense-children
  // flag from nodes_. Called by Build() and again by BuildNumericHierarchy
  // after it re-sorts children into interval order.
  void FinalizeDerived();

  std::string attribute_;
  bool numeric_ = false;
  std::vector<HierarchyNode> nodes_;
  std::vector<NodeId> leaves_;
  // Per node: [begin, end) into leaves_ covering the node's subtree.
  std::vector<uint32_t> leaf_span_begin_;
  std::vector<uint32_t> leaf_span_end_;
  // Per node: index among its parent's children (0 for the root).
  std::vector<uint32_t> sibling_index_;
  bool dense_children_ = false;
  LabelHashIndex label_index_;
  // Numeric trees: leaves_ sorted by interval; lower bounds for binary search.
  std::vector<double> leaf_lower_bounds_;
};

/// \brief Incremental constructor for categorical DHTs (Fig. 1 style).
class HierarchyBuilder {
 public:
  /// \param attribute column name the tree describes
  /// \param root_label label of the root (most general description)
  HierarchyBuilder(std::string attribute, std::string root_label);

  /// \brief Adds a child under `parent`; labels must be unique in the tree.
  Result<NodeId> AddChild(NodeId parent, const std::string& label);

  /// \brief Finalizes: computes depths, leaf lists/counts and label index.
  /// The builder must not be reused afterwards.
  Result<DomainHierarchy> Build();

  /// \brief Parses an indented outline (2 spaces per level) into a tree:
  ///
  ///   Person
  ///     Medical Practitioner
  ///       General Practitioner
  ///       Specialist
  ///     Paramedic
  ///
  /// The first line is the root. Tabs are rejected.
  static Result<DomainHierarchy> FromOutline(const std::string& attribute,
                                             const std::string& outline);

 private:
  DomainHierarchy tree_;
  bool built_ = false;
};

/// \brief Builds the binary interval DHT of Fig. 3 for a numeric attribute.
///
/// \param attribute column name
/// \param boundaries ascending cut points; leaf i covers
///        [boundaries[i], boundaries[i+1]). Requires >= 2 strictly
///        increasing values. Intervals "need not be of equal size" (paper).
///
/// Leaves are combined pairwise, left to right, into parents one level up;
/// an odd node is carried upward unchanged; repeat until a single root
/// covers [first, last). Node labels are "[lo,hi)" with trailing-zero-free
/// formatting.
Result<DomainHierarchy> BuildNumericHierarchy(
    const std::string& attribute, const std::vector<double>& boundaries);

/// \brief Formats a numeric interval label exactly as BuildNumericHierarchy
/// does ("[25,50)"); exposed so tests and generators can predict labels.
std::string IntervalLabel(double lo, double hi);

}  // namespace privmark

#endif  // PRIVMARK_HIERARCHY_DOMAIN_HIERARCHY_H_
