#include "hierarchy/domain_hierarchy.h"

#include <gtest/gtest.h>

#include <set>

namespace privmark {
namespace {

// The paper's Fig. 1 role tree, abbreviated.
Result<DomainHierarchy> RoleTree() {
  return HierarchyBuilder::FromOutline("role", R"(Person
  Medical Practitioner
    General Practitioner
    Medical Specialist
  Paramedic
    Pharmacist
    Nurse
    Consultant)");
}

TEST(HierarchyBuilderTest, BuildsCategoricalTree) {
  auto tree = RoleTree();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->attribute(), "role");
  EXPECT_FALSE(tree->is_numeric());
  EXPECT_EQ(tree->num_nodes(), 8u);
  EXPECT_EQ(tree->Leaves().size(), 5u);
}

TEST(HierarchyBuilderTest, DepthsAndParents) {
  auto tree = RoleTree().ValueOrDie();
  const NodeId root = tree.root();
  EXPECT_EQ(tree.Depth(root), 0);
  EXPECT_EQ(tree.Parent(root), kInvalidNode);
  const NodeId nurse = *tree.FindByLabel("Nurse");
  EXPECT_EQ(tree.Depth(nurse), 2);
  EXPECT_EQ(tree.node(tree.Parent(nurse)).label, "Paramedic");
}

TEST(HierarchyBuilderTest, DuplicateLabelRejected) {
  HierarchyBuilder builder("x", "root");
  ASSERT_TRUE(builder.AddChild(0, "a").ok());
  EXPECT_EQ(builder.AddChild(0, "a").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(builder.AddChild(0, "root").status().code(),
            StatusCode::kAlreadyExists);
}

TEST(FromOutlineTest, RejectsBadInput) {
  EXPECT_FALSE(HierarchyBuilder::FromOutline("x", "").ok());
  EXPECT_FALSE(HierarchyBuilder::FromOutline("x", "  indented root").ok());
  EXPECT_FALSE(HierarchyBuilder::FromOutline("x", "root\n\tTabChild").ok());
  EXPECT_FALSE(HierarchyBuilder::FromOutline("x", "root\n   odd").ok());
  // Skipping a level is invalid.
  EXPECT_FALSE(HierarchyBuilder::FromOutline("x", "root\n    grandchild").ok());
}

TEST(SiblingsTest, OrderAndIndex) {
  auto tree = RoleTree().ValueOrDie();
  const NodeId nurse = *tree.FindByLabel("Nurse");
  const std::vector<NodeId> sibs = tree.Siblings(nurse);
  ASSERT_EQ(sibs.size(), 3u);
  EXPECT_EQ(tree.node(sibs[0]).label, "Pharmacist");
  EXPECT_EQ(tree.node(sibs[1]).label, "Nurse");
  EXPECT_EQ(tree.node(sibs[2]).label, "Consultant");
  EXPECT_EQ(tree.SiblingIndex(nurse), 1u);
}

TEST(SiblingsTest, RootIsItsOwnSiblingSet) {
  auto tree = RoleTree().ValueOrDie();
  EXPECT_EQ(tree.Siblings(tree.root()), std::vector<NodeId>{tree.root()});
  EXPECT_EQ(tree.SiblingIndex(tree.root()), 0u);
}

TEST(LeavesTest, LeavesUnderSubtree) {
  auto tree = RoleTree().ValueOrDie();
  const NodeId paramedic = *tree.FindByLabel("Paramedic");
  const std::vector<NodeId> leaves = tree.LeavesUnder(paramedic);
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(tree.node(leaves[0]).label, "Pharmacist");
  EXPECT_EQ(tree.LeafCountUnder(paramedic), 3u);
  EXPECT_EQ(tree.LeafCountUnder(tree.root()), 5u);
  EXPECT_EQ(tree.LeafCountUnder(leaves[0]), 1u);
}

TEST(LookupTest, FindByLabelAndErrors) {
  auto tree = RoleTree().ValueOrDie();
  EXPECT_TRUE(tree.FindByLabel("Pharmacist").ok());
  EXPECT_EQ(tree.FindByLabel("Dentist").status().code(),
            StatusCode::kKeyError);
}

TEST(LookupTest, LeafForCategoricalValue) {
  auto tree = RoleTree().ValueOrDie();
  auto leaf = tree.LeafForValue(Value::String("Nurse"));
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(tree.node(*leaf).label, "Nurse");
  // Interior labels are not leaves.
  EXPECT_FALSE(tree.LeafForValue(Value::String("Paramedic")).ok());
}

TEST(AncestryTest, IsAncestorOrSelf) {
  auto tree = RoleTree().ValueOrDie();
  const NodeId root = tree.root();
  const NodeId paramedic = *tree.FindByLabel("Paramedic");
  const NodeId nurse = *tree.FindByLabel("Nurse");
  EXPECT_TRUE(tree.IsAncestorOrSelf(root, nurse));
  EXPECT_TRUE(tree.IsAncestorOrSelf(paramedic, nurse));
  EXPECT_TRUE(tree.IsAncestorOrSelf(nurse, nurse));
  EXPECT_FALSE(tree.IsAncestorOrSelf(nurse, paramedic));
  const NodeId gp = *tree.FindByLabel("General Practitioner");
  EXPECT_FALSE(tree.IsAncestorOrSelf(paramedic, gp));
}

// ---- Numeric trees (paper Fig. 3) ----

TEST(NumericTreeTest, Fig3Construction) {
  // The paper's example: Age domain [0,150) cut into 5 intervals of 30.
  auto tree =
      BuildNumericHierarchy("age", {0, 30, 60, 90, 120, 150}).ValueOrDie();
  EXPECT_TRUE(tree.is_numeric());
  EXPECT_EQ(tree.Leaves().size(), 5u);
  EXPECT_EQ(tree.node(tree.root()).label, "[0,150)");
  EXPECT_DOUBLE_EQ(tree.node(tree.root()).lo, 0);
  EXPECT_DOUBLE_EQ(tree.node(tree.root()).hi, 150);
  // Pairwise combination: [0,60) and [60,120) exist; [120,150) is carried.
  EXPECT_TRUE(tree.FindByLabel("[0,60)").ok());
  EXPECT_TRUE(tree.FindByLabel("[60,120)").ok());
  EXPECT_TRUE(tree.FindByLabel("[120,150)").ok());
}

TEST(NumericTreeTest, LeavesAreInOrder) {
  auto tree = BuildNumericHierarchy("age", {0, 10, 20, 30, 40}).ValueOrDie();
  const auto& leaves = tree.Leaves();
  ASSERT_EQ(leaves.size(), 4u);
  for (size_t i = 0; i + 1 < leaves.size(); ++i) {
    EXPECT_LE(tree.node(leaves[i]).hi, tree.node(leaves[i + 1]).lo + 1e-9);
  }
}

TEST(NumericTreeTest, LeafForNumericValue) {
  auto tree =
      BuildNumericHierarchy("age", {0, 30, 60, 90, 120, 150}).ValueOrDie();
  EXPECT_EQ(tree.node(*tree.LeafForValue(Value::Int64(0))).label, "[0,30)");
  EXPECT_EQ(tree.node(*tree.LeafForValue(Value::Int64(29))).label, "[0,30)");
  EXPECT_EQ(tree.node(*tree.LeafForValue(Value::Int64(30))).label, "[30,60)");
  EXPECT_EQ(tree.node(*tree.LeafForValue(Value::Int64(149))).label,
            "[120,150)");
  EXPECT_FALSE(tree.LeafForValue(Value::Int64(150)).ok());
  EXPECT_FALSE(tree.LeafForValue(Value::Int64(-1)).ok());
}

TEST(NumericTreeTest, LabelLookupForGeneralizedCell) {
  auto tree =
      BuildNumericHierarchy("age", {0, 30, 60, 90, 120, 150}).ValueOrDie();
  // A binned cell holds a label; LeafForValue on a string goes via labels.
  auto leaf = tree.LeafForValue(Value::String("[30,60)"));
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(tree.node(*leaf).label, "[30,60)");
}

TEST(NumericTreeTest, UnequalIntervalsAllowed) {
  auto tree = BuildNumericHierarchy("x", {0, 1, 10, 100}).ValueOrDie();
  EXPECT_EQ(tree.Leaves().size(), 3u);
  EXPECT_EQ(tree.node(*tree.LeafForValue(Value::Double(0.5))).label, "[0,1)");
  EXPECT_EQ(tree.node(*tree.LeafForValue(Value::Double(50))).label,
            "[10,100)");
}

TEST(NumericTreeTest, RejectsBadBoundaries) {
  EXPECT_FALSE(BuildNumericHierarchy("x", {0}).ok());
  EXPECT_FALSE(BuildNumericHierarchy("x", {0, 0}).ok());
  EXPECT_FALSE(BuildNumericHierarchy("x", {10, 5}).ok());
}

TEST(NumericTreeTest, TwoLeavesMakeOneParent) {
  auto tree = BuildNumericHierarchy("x", {0, 5, 10}).ValueOrDie();
  EXPECT_EQ(tree.num_nodes(), 3u);
  EXPECT_EQ(tree.Children(tree.root()).size(), 2u);
}

TEST(IntervalLabelTest, Formatting) {
  EXPECT_EQ(IntervalLabel(0, 30), "[0,30)");
  EXPECT_EQ(IntervalLabel(2.5, 7.25), "[2.5,7.25)");
  EXPECT_EQ(IntervalLabel(-10, 0), "[-10,0)");
}

TEST(LabelUniquenessTest, AllNodesDistinct) {
  auto tree = RoleTree().ValueOrDie();
  std::set<std::string> labels;
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    labels.insert(tree.node(static_cast<NodeId>(i)).label);
  }
  EXPECT_EQ(labels.size(), tree.num_nodes());
}

}  // namespace
}  // namespace privmark
