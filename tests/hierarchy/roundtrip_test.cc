// Round-trip and consistency properties of the hierarchy substrate that
// cut across the per-class unit tests.

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "datagen/ontologies.h"
#include "hierarchy/domain_hierarchy.h"

namespace privmark {
namespace {

TEST(HierarchyConsistencyTest, LeafCountsMatchLeavesUnder) {
  const DomainHierarchy tree = std::move(BuildSymptomHierarchy()).ValueOrDie();
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const auto id = static_cast<NodeId>(i);
    EXPECT_EQ(tree.LeafCountUnder(id), tree.LeavesUnder(id).size()) << i;
  }
}

TEST(HierarchyConsistencyTest, SiblingIndexIsConsistentWithChildren) {
  const DomainHierarchy tree = std::move(BuildZipHierarchy()).ValueOrDie();
  for (size_t i = 1; i < tree.num_nodes(); ++i) {
    const auto id = static_cast<NodeId>(i);
    const std::vector<NodeId> sibs = tree.Siblings(id);
    EXPECT_EQ(sibs[tree.SiblingIndex(id)], id);
    EXPECT_EQ(sibs, tree.Children(tree.Parent(id)));
  }
}

TEST(HierarchyConsistencyTest, EveryNodeReachesRoot) {
  const DomainHierarchy tree =
      std::move(BuildPrescriptionHierarchy()).ValueOrDie();
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    NodeId cur = static_cast<NodeId>(i);
    int hops = 0;
    while (tree.Parent(cur) != kInvalidNode) {
      cur = tree.Parent(cur);
      ASSERT_LT(++hops, 100) << "cycle suspected at node " << i;
    }
    EXPECT_EQ(cur, tree.root());
  }
}

TEST(HierarchyConsistencyTest, NumericTreeIntervalsNest) {
  const DomainHierarchy tree = std::move(BuildAgeHierarchy()).ValueOrDie();
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const auto id = static_cast<NodeId>(i);
    const HierarchyNode& node = tree.node(id);
    ASSERT_TRUE(node.has_interval());
    EXPECT_LT(node.lo, node.hi);
    if (tree.Parent(id) != kInvalidNode) {
      const HierarchyNode& parent = tree.node(tree.Parent(id));
      EXPECT_GE(node.lo, parent.lo);
      EXPECT_LE(node.hi, parent.hi);
    }
    // Children partition the parent exactly.
    if (!node.is_leaf()) {
      double cursor = node.lo;
      for (NodeId child : tree.Children(id)) {
        EXPECT_DOUBLE_EQ(tree.node(child).lo, cursor);
        cursor = tree.node(child).hi;
      }
      EXPECT_DOUBLE_EQ(cursor, node.hi);
    }
  }
}

TEST(HierarchyConsistencyTest, RandomNumericTreesCoverTheirDomain) {
  Random rng(99);
  for (int round = 0; round < 20; ++round) {
    // 3-40 random strictly-increasing boundaries.
    std::vector<double> boundaries = {0};
    const size_t cuts = 2 + rng.Uniform(38);
    for (size_t i = 0; i < cuts; ++i) {
      boundaries.push_back(boundaries.back() + 1 +
                           static_cast<double>(rng.Uniform(20)));
    }
    auto tree = BuildNumericHierarchy("x", boundaries);
    ASSERT_TRUE(tree.ok()) << round;
    EXPECT_EQ(tree->Leaves().size(), boundaries.size() - 1);
    // Every in-domain value maps to exactly one leaf whose interval
    // contains it.
    for (int probe = 0; probe < 50; ++probe) {
      const double v = rng.NextDouble() * boundaries.back();
      auto leaf = tree->LeafForValue(Value::Double(v));
      ASSERT_TRUE(leaf.ok()) << v;
      EXPECT_GE(v, tree->node(*leaf).lo);
      EXPECT_LT(v, tree->node(*leaf).hi);
    }
  }
}

}  // namespace
}  // namespace privmark
