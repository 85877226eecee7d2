#include "hierarchy/domain_hierarchy.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/strings.h"

namespace privmark {

// ---------------------------------------------------------------------------
// LabelHashIndex

uint64_t LabelHashIndex::HashLabel(std::string_view label) {
  // FNV-1a 64. Labels are short (ontology terms, interval strings); a
  // simple byte-wise hash beats std::hash's indirection here and is
  // deterministic across processes, which keeps tree layouts reproducible.
  uint64_t h = 1469598103934665603ull;
  for (const char c : label) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

NodeId LabelHashIndex::Find(std::string_view label,
                            const std::vector<HierarchyNode>& nodes) const {
  if (slots_.empty()) return kInvalidNode;
  const uint64_t hash = HashLabel(label);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Entry& entry = slots_[i];
    if (entry.id == kInvalidNode) return kInvalidNode;
    if (entry.hash == hash && nodes[entry.id].label == label) return entry.id;
  }
}

void LabelHashIndex::Insert(std::string_view label, NodeId id,
                            const std::vector<HierarchyNode>& nodes) {
  if (slots_.empty() || size_ + 1 > slots_.size() - slots_.size() / 4) {
    Grow(nodes);
  }
  const uint64_t hash = HashLabel(label);
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].id != kInvalidNode) i = (i + 1) & mask;
  slots_[i] = Entry{hash, id};
  ++size_;
}

void LabelHashIndex::Grow(const std::vector<HierarchyNode>& nodes) {
  const size_t new_capacity = slots_.empty() ? 16 : slots_.size() * 2;
  std::vector<Entry> old = std::move(slots_);
  slots_.assign(new_capacity, Entry{});
  const size_t mask = new_capacity - 1;
  (void)nodes;  // content compares are unnecessary: stored labels are unique
  for (const Entry& entry : old) {
    if (entry.id == kInvalidNode) continue;
    size_t i = entry.hash & mask;
    while (slots_[i].id != kInvalidNode) i = (i + 1) & mask;
    slots_[i] = entry;
  }
}

// ---------------------------------------------------------------------------
// DomainHierarchy

std::vector<NodeId> DomainHierarchy::Siblings(NodeId id) const {
  const NodeId parent = nodes_[id].parent;
  if (parent == kInvalidNode) return {id};
  return nodes_[parent].children;
}

std::vector<NodeId> DomainHierarchy::LeavesUnder(NodeId id) const {
  const auto [begin, end] = LeafSpan(id);
  return std::vector<NodeId>(leaves_.begin() + begin, leaves_.begin() + end);
}

Result<NodeId> DomainHierarchy::FindByLabel(std::string_view label) const {
  const NodeId id = label_index_.Find(label, nodes_);
  if (id == kInvalidNode) {
    return Status::KeyError("tree '" + attribute_ + "' has no node labeled '" +
                            std::string(label) + "'");
  }
  return id;
}

Result<NodeId> DomainHierarchy::LeafForLabel(std::string_view label) const {
  PRIVMARK_ASSIGN_OR_RETURN(NodeId id, FindByLabel(label));
  if (!nodes_[id].is_leaf()) {
    return Status::InvalidArgument("value '" + std::string(label) +
                                   "' names an interior node of '" +
                                   attribute_ + "', not a leaf");
  }
  return id;
}

Result<NodeId> DomainHierarchy::LeafForValue(const Value& value) const {
  if (numeric_ && value.type() != ValueType::kString) {
    const double v = value.AsDouble();
    // leaf_lower_bounds_[i] is the lower bound of leaves_[i].
    auto it = std::upper_bound(leaf_lower_bounds_.begin(),
                               leaf_lower_bounds_.end(), v);
    if (it == leaf_lower_bounds_.begin()) {
      return Status::OutOfRange("value " + value.ToString() +
                                " below the domain of '" + attribute_ + "'");
    }
    const size_t idx = static_cast<size_t>(it - leaf_lower_bounds_.begin()) - 1;
    const NodeId leaf = leaves_[idx];
    if (v >= nodes_[leaf].hi) {
      return Status::OutOfRange("value " + value.ToString() +
                                " above the domain of '" + attribute_ + "'");
    }
    return leaf;
  }
  // Categorical (or an already-labelled cell in a numeric tree). String
  // cells resolve by reference — no per-call label copy.
  if (value.type() == ValueType::kString) {
    return LeafForLabel(value.AsString());
  }
  return LeafForLabel(value.ToString());
}

bool DomainHierarchy::IsAncestorOrSelf(NodeId ancestor,
                                       NodeId descendant) const {
  NodeId cur = descendant;
  while (cur != kInvalidNode) {
    if (cur == ancestor) return true;
    // Depth check lets us stop early instead of walking to the root.
    if (nodes_[cur].depth <= nodes_[ancestor].depth) return false;
    cur = nodes_[cur].parent;
  }
  return false;
}

void DomainHierarchy::FinalizeDerived() {
  // Leaves, left-to-right (iterative DFS pushing children in reverse).
  leaves_.clear();
  std::vector<NodeId> stack = {root()};
  while (!stack.empty()) {
    const NodeId nd = stack.back();
    stack.pop_back();
    if (nodes_[nd].is_leaf()) {
      leaves_.push_back(nd);
      continue;
    }
    const auto& children = nodes_[nd].children;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }

  // Leaf spans: a subtree's leaves are consecutive in leaves_, so spans
  // merge bottom-up. Child ids are always larger than their parent's, so a
  // single reverse pass folds each node's span into its parent's.
  const uint32_t invalid_begin = static_cast<uint32_t>(leaves_.size());
  leaf_span_begin_.assign(nodes_.size(), invalid_begin);
  leaf_span_end_.assign(nodes_.size(), 0);
  for (uint32_t i = 0; i < leaves_.size(); ++i) {
    leaf_span_begin_[leaves_[i]] = i;
    leaf_span_end_[leaves_[i]] = i + 1;
  }
  for (size_t i = nodes_.size(); i-- > 1;) {
    const NodeId parent = nodes_[i].parent;
    if (parent == kInvalidNode) continue;
    leaf_span_begin_[parent] =
        std::min(leaf_span_begin_[parent], leaf_span_begin_[i]);
    leaf_span_end_[parent] = std::max(leaf_span_end_[parent], leaf_span_end_[i]);
  }

  // Sibling indices (root stays 0) and the dense-child-range check.
  sibling_index_.assign(nodes_.size(), 0);
  dense_children_ = true;
  for (const HierarchyNode& node : nodes_) {
    const auto& children = node.children;
    for (size_t i = 0; i < children.size(); ++i) {
      sibling_index_[children[i]] = static_cast<uint32_t>(i);
      if (i > 0 && children[i] != children[i - 1] + 1) {
        dense_children_ = false;
      }
    }
  }
}

HierarchyBuilder::HierarchyBuilder(std::string attribute,
                                   std::string root_label) {
  tree_.attribute_ = std::move(attribute);
  HierarchyNode root;
  root.label = std::move(root_label);
  tree_.nodes_.push_back(root);
  tree_.label_index_.Insert(tree_.nodes_[0].label, 0, tree_.nodes_);
}

Result<NodeId> HierarchyBuilder::AddChild(NodeId parent,
                                          const std::string& label) {
  assert(!built_);
  if (parent < 0 || static_cast<size_t>(parent) >= tree_.nodes_.size()) {
    return Status::OutOfRange("AddChild: parent id " + std::to_string(parent) +
                              " out of range");
  }
  if (tree_.label_index_.Find(label, tree_.nodes_) != kInvalidNode) {
    return Status::AlreadyExists("label '" + label +
                                 "' already used in tree '" +
                                 tree_.attribute_ + "'");
  }
  HierarchyNode node;
  node.label = label;
  node.parent = parent;
  const NodeId id = static_cast<NodeId>(tree_.nodes_.size());
  tree_.nodes_.push_back(std::move(node));
  tree_.nodes_[parent].children.push_back(id);
  tree_.label_index_.Insert(label, id, tree_.nodes_);
  return id;
}

Result<DomainHierarchy> HierarchyBuilder::Build() {
  assert(!built_);
  built_ = true;
  // Depths by BFS from the root (children ids are always larger than their
  // parent's id, so a single forward pass also works).
  for (size_t i = 1; i < tree_.nodes_.size(); ++i) {
    tree_.nodes_[i].depth = tree_.nodes_[tree_.nodes_[i].parent].depth + 1;
  }
  tree_.FinalizeDerived();
  return std::move(tree_);
}

Result<DomainHierarchy> HierarchyBuilder::FromOutline(
    const std::string& attribute, const std::string& outline) {
  std::vector<std::string> lines = Split(outline, '\n');
  // Drop blank lines.
  std::vector<std::string> kept;
  for (auto& line : lines) {
    if (!Trim(line).empty()) kept.push_back(line);
  }
  if (kept.empty()) {
    return Status::InvalidArgument("FromOutline: empty outline");
  }
  auto indent_of = [](const std::string& line) -> Result<int> {
    size_t spaces = 0;
    for (char c : line) {
      if (c == ' ') {
        ++spaces;
      } else if (c == '\t') {
        return Status::InvalidArgument("FromOutline: tabs not allowed");
      } else {
        break;
      }
    }
    if (spaces % 2 != 0) {
      return Status::InvalidArgument("FromOutline: odd indentation");
    }
    return static_cast<int>(spaces / 2);
  };

  PRIVMARK_ASSIGN_OR_RETURN(int root_indent, indent_of(kept[0]));
  if (root_indent != 0) {
    return Status::InvalidArgument("FromOutline: root must not be indented");
  }
  HierarchyBuilder builder(attribute, Trim(kept[0]));
  // Stack of (indent level -> node) along the current path.
  std::vector<NodeId> path = {0};
  for (size_t i = 1; i < kept.size(); ++i) {
    PRIVMARK_ASSIGN_OR_RETURN(int indent, indent_of(kept[i]));
    if (indent < 1 || static_cast<size_t>(indent) > path.size()) {
      return Status::InvalidArgument(
          "FromOutline: bad indentation at line " + std::to_string(i + 1));
    }
    path.resize(static_cast<size_t>(indent));
    PRIVMARK_ASSIGN_OR_RETURN(NodeId id,
                              builder.AddChild(path.back(), Trim(kept[i])));
    path.push_back(id);
  }
  return builder.Build();
}

std::string IntervalLabel(double lo, double hi) {
  auto fmt = [](double v) {
    if (v == std::floor(v) && std::abs(v) < 1e15) {
      return std::to_string(static_cast<long long>(v));
    }
    std::string s = FormatDouble(v, 6);
    // Strip trailing zeros and a trailing dot.
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
    return s;
  };
  std::string out = "[";
  out += fmt(lo);
  out += ',';
  out += fmt(hi);
  out += ')';
  return out;
}

Result<DomainHierarchy> BuildNumericHierarchy(
    const std::string& attribute, const std::vector<double>& boundaries) {
  if (boundaries.size() < 2) {
    return Status::InvalidArgument(
        "BuildNumericHierarchy: need at least 2 boundaries");
  }
  for (size_t i = 1; i < boundaries.size(); ++i) {
    if (!(boundaries[i - 1] < boundaries[i])) {
      return Status::InvalidArgument(
          "BuildNumericHierarchy: boundaries must be strictly increasing");
    }
  }

  // We build bottom-up conceptually but materialize top-down so that node
  // ids still satisfy parent-id < child-id. First compute the interval of
  // every node of the final tree level by level.
  struct ProtoNode {
    double lo, hi;
    int left = -1, right = -1;  // indices into protos (children), -1 = none
  };
  std::vector<ProtoNode> protos;
  std::vector<int> level;  // current level, as proto indices
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    protos.push_back(ProtoNode{boundaries[i], boundaries[i + 1], -1, -1});
    level.push_back(static_cast<int>(protos.size()) - 1);
  }
  while (level.size() > 1) {
    std::vector<int> next;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      const ProtoNode& a = protos[level[i]];
      const ProtoNode& b = protos[level[i + 1]];
      protos.push_back(ProtoNode{a.lo, b.hi, level[i], level[i + 1]});
      next.push_back(static_cast<int>(protos.size()) - 1);
    }
    if (level.size() % 2 == 1) {
      // Odd node carried upward unchanged.
      next.push_back(level.back());
    }
    level = std::move(next);
  }
  const int proto_root = level[0];

  // Materialize with a builder, descending from the proto root.
  HierarchyBuilder builder(
      attribute, IntervalLabel(protos[proto_root].lo, protos[proto_root].hi));
  // DFS pairing proto index with materialized node id.
  std::vector<std::pair<int, NodeId>> stack = {{proto_root, 0}};
  while (!stack.empty()) {
    const auto [pidx, nid] = stack.back();
    stack.pop_back();
    const ProtoNode& proto = protos[pidx];
    for (int child : {proto.left, proto.right}) {
      if (child < 0) continue;
      PRIVMARK_ASSIGN_OR_RETURN(
          NodeId cid,
          builder.AddChild(nid, IntervalLabel(protos[child].lo,
                                              protos[child].hi)));
      stack.push_back({child, cid});
    }
  }
  PRIVMARK_ASSIGN_OR_RETURN(DomainHierarchy tree, builder.Build());

  // Fill numeric metadata: intervals per node from the labels.
  tree.numeric_ = true;
  for (size_t i = 0; i < tree.nodes_.size(); ++i) {
    const std::string& label = tree.nodes_[i].label;
    // label is "[lo,hi)"
    const size_t comma = label.find(',');
    tree.nodes_[i].lo = std::stod(label.substr(1, comma - 1));
    tree.nodes_[i].hi =
        std::stod(label.substr(comma + 1, label.size() - comma - 2));
  }
  // Re-sort children by interval lower bound for deterministic order, then
  // recompute the order-derived state (leaves, spans, sibling indices).
  for (auto& node : tree.nodes_) {
    std::sort(node.children.begin(), node.children.end(),
              [&tree](NodeId a, NodeId b) {
                return tree.nodes_[a].lo < tree.nodes_[b].lo;
              });
  }
  tree.FinalizeDerived();
  tree.leaf_lower_bounds_.clear();
  for (NodeId leaf : tree.leaves_) {
    tree.leaf_lower_bounds_.push_back(tree.nodes_[leaf].lo);
  }
  return tree;
}

}  // namespace privmark
