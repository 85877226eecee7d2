#include "binning/multi_attribute.h"

#include <gtest/gtest.h>

#include <set>

#include "binning/mono_attribute.h"
#include "common/parallel.h"
#include "testing/multi_attribute_fixtures.h"

namespace privmark {
namespace {

TEST(IsJointlyKAnonymousTest, DetectsViolations) {
  DomainHierarchy age = AgeTree();
  DomainHierarchy role = RoleTree();
  const Table table = CrossedTable();
  const std::vector<GeneralizationSet> leaves = {
      GeneralizationSet::AllLeaves(&age), GeneralizationSet::AllLeaves(&role)};
  // Each joint cell has exactly 2 rows.
  EXPECT_TRUE(*IsJointlyKAnonymous(table, {1, 2}, leaves, 2));
  EXPECT_FALSE(*IsJointlyKAnonymous(table, {1, 2}, leaves, 3));
  // Fully generalized: everything in one bin of 8.
  const std::vector<GeneralizationSet> roots = {
      GeneralizationSet::RootOnly(&age), GeneralizationSet::RootOnly(&role)};
  EXPECT_TRUE(*IsJointlyKAnonymous(table, {1, 2}, roots, 8));
}

TEST(IsJointlyKAnonymousTest, RejectsGeneralizationCountMismatch) {
  DomainHierarchy age = AgeTree();
  const Table table = CrossedTable();
  const std::vector<GeneralizationSet> one = {
      GeneralizationSet::AllLeaves(&age)};
  const auto result = IsJointlyKAnonymous(table, {1, 2}, one, 2);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultiBinTest, RejectsViewWithDifferentRowCount) {
  // The search walks the view's leaves and the table's rows together, so a
  // view of another row count must be refused, not read past its end.
  DomainHierarchy age = AgeTree();
  DomainHierarchy role = RoleTree();
  const Table table = CrossedTable();  // 8 rows
  const std::vector<GeneralizationSet> minimal = {
      GeneralizationSet::AllLeaves(&age), GeneralizationSet::AllLeaves(&role)};
  const std::vector<GeneralizationSet> maximal = {
      GeneralizationSet::RootOnly(&age), GeneralizationSet::RootOnly(&role)};
  MultiBinningOptions options;
  options.k = 4;
  const Table half = table.Slice(0, 4);
  const EncodedView half_view =
      EncodedView::Leaves(half, {1, 2}, {&age, &role}).ValueOrDie();
  const auto shorter =
      MultiAttributeBin(table, {1, 2}, minimal, maximal, options, &half_view);
  EXPECT_EQ(shorter.status().code(), StatusCode::kInvalidArgument);
  const EncodedView full_view =
      EncodedView::Leaves(table, {1, 2}, {&age, &role}).ValueOrDie();
  const auto longer =
      MultiAttributeBin(half, {1, 2}, minimal, maximal, options, &full_view);
  EXPECT_EQ(longer.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultiBinTest, AlreadySatisfiedFastPath) {
  DomainHierarchy age = AgeTree();
  DomainHierarchy role = RoleTree();
  const Table table = CrossedTable();
  const std::vector<GeneralizationSet> minimal = {
      GeneralizationSet::AllLeaves(&age), GeneralizationSet::AllLeaves(&role)};
  const std::vector<GeneralizationSet> maximal = {
      GeneralizationSet::RootOnly(&age), GeneralizationSet::RootOnly(&role)};
  MultiBinningOptions options;
  options.k = 2;
  auto result = MultiAttributeBin(table, {1, 2}, minimal, maximal, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->already_satisfied);
  EXPECT_EQ(result->ultimate[0], minimal[0]);
  EXPECT_EQ(result->ultimate[1], minimal[1]);
}

TEST(MultiBinTest, GeneralizesToMeetJointK) {
  DomainHierarchy age = AgeTree();
  DomainHierarchy role = RoleTree();
  const Table table = CrossedTable();
  const std::vector<GeneralizationSet> minimal = {
      GeneralizationSet::AllLeaves(&age), GeneralizationSet::AllLeaves(&role)};
  const std::vector<GeneralizationSet> maximal = {
      GeneralizationSet::RootOnly(&age), GeneralizationSet::RootOnly(&role)};
  for (SearchStrategy strategy :
       {SearchStrategy::kExhaustive, SearchStrategy::kGreedy}) {
    MultiBinningOptions options;
    options.k = 4;
    options.strategy = strategy;
    auto result = MultiAttributeBin(table, {1, 2}, minimal, maximal, options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(
        *IsJointlyKAnonymous(table, {1, 2}, result->ultimate, options.k));
    // Merging the role column alone ({10,"*"} x4, {60,"*"} x4) suffices and
    // is cheaper than merging ages; both strategies should find a solution
    // with total specificity loss <= merging the age tree.
    EXPECT_LE(result->total_specificity_loss, 0.76);
  }
}

TEST(MultiBinTest, ExhaustiveMatchesGreedyOnSmallCase) {
  DomainHierarchy age = AgeTree();
  DomainHierarchy role = RoleTree();
  const Table table = CrossedTable();
  const std::vector<GeneralizationSet> minimal = {
      GeneralizationSet::AllLeaves(&age), GeneralizationSet::AllLeaves(&role)};
  const std::vector<GeneralizationSet> maximal = {
      GeneralizationSet::RootOnly(&age), GeneralizationSet::RootOnly(&role)};
  MultiBinningOptions ex;
  ex.k = 4;
  ex.strategy = SearchStrategy::kExhaustive;
  MultiBinningOptions gr;
  gr.k = 4;
  gr.strategy = SearchStrategy::kGreedy;
  auto exhaustive = MultiAttributeBin(table, {1, 2}, minimal, maximal, ex);
  auto greedy = MultiAttributeBin(table, {1, 2}, minimal, maximal, gr);
  ASSERT_TRUE(exhaustive.ok());
  ASSERT_TRUE(greedy.ok());
  // Exhaustive is optimal; greedy must be no better (and here, equal or
  // close).
  EXPECT_LE(exhaustive->total_specificity_loss,
            greedy->total_specificity_loss + 1e-12);
}

TEST(MultiBinTest, UnbinnableWhenMaximalTooTight) {
  DomainHierarchy age = AgeTree();
  DomainHierarchy role = RoleTree();
  const Table table = CrossedTable();  // 8 rows
  const std::vector<GeneralizationSet> minimal = {
      GeneralizationSet::AllLeaves(&age), GeneralizationSet::AllLeaves(&role)};
  // Maximal = minimal: no room to generalize.
  MultiBinningOptions options;
  options.k = 4;
  auto result = MultiAttributeBin(table, {1, 2}, minimal, minimal, options);
  EXPECT_EQ(result.status().code(), StatusCode::kUnbinnable);
}

TEST(MultiBinTest, RejectsInconsistentBounds) {
  DomainHierarchy age = AgeTree();
  DomainHierarchy role = RoleTree();
  const Table table = CrossedTable();
  const std::vector<GeneralizationSet> minimal = {
      GeneralizationSet::AllLeaves(&age), GeneralizationSet::AllLeaves(&role)};
  const std::vector<GeneralizationSet> maximal = {
      GeneralizationSet::RootOnly(&age)};
  MultiBinningOptions options;
  options.k = 2;
  EXPECT_FALSE(
      MultiAttributeBin(table, {1, 2}, minimal, maximal, options).ok());
}

TEST(MultiBinTest, ExhaustiveCapTriggers) {
  // A wider tree so enumeration explodes past a tiny cap.
  DomainHierarchy age = DecadeAgeTree();
  DomainHierarchy role = RoleTree();
  std::vector<std::pair<int, std::string>> rows;
  for (int a = 5; a < 100; a += 10) {
    rows.push_back({a, "Doctor"});
    rows.push_back({a, "Nurse"});
  }
  const Table table = MakeTable(rows);
  const std::vector<GeneralizationSet> minimal = {
      GeneralizationSet::AllLeaves(&age), GeneralizationSet::AllLeaves(&role)};
  const std::vector<GeneralizationSet> maximal = {
      GeneralizationSet::RootOnly(&age), GeneralizationSet::RootOnly(&role)};
  MultiBinningOptions options;
  options.k = 4;
  options.strategy = SearchStrategy::kExhaustive;
  options.max_enumerations = 5;
  auto result = MultiAttributeBin(table, {1, 2}, minimal, maximal, options);
  EXPECT_EQ(result.status().code(), StatusCode::kCapacityExceeded);
}

TEST(MultiBinTest, GreedyHandlesWiderProblem) {
  DomainHierarchy age = DecadeAgeTree();
  DomainHierarchy role = RoleTree();
  const Table table = WiderTable();
  const std::vector<GeneralizationSet> minimal = {
      GeneralizationSet::AllLeaves(&age), GeneralizationSet::AllLeaves(&role)};
  const std::vector<GeneralizationSet> maximal = {
      GeneralizationSet::RootOnly(&age), GeneralizationSet::RootOnly(&role)};
  MultiBinningOptions options;
  options.k = 4;
  options.strategy = SearchStrategy::kGreedy;
  auto result = MultiAttributeBin(table, {1, 2}, minimal, maximal, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(
      *IsJointlyKAnonymous(table, {1, 2}, result->ultimate, options.k));
  // Ultimate sets must stay within bounds.
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_TRUE(minimal[c].IsRefinementOf(result->ultimate[c]));
    EXPECT_TRUE(result->ultimate[c].IsRefinementOf(maximal[c]));
  }
}

TEST(MultiBinTest, ParallelCandidateSearchMatchesSerial) {
  // Both strategies must pick the same chosen generalization — same
  // ultimate nodes, candidate count, and loss — for any worker count
  // (candidate verdicts merge in candidate order).
  DomainHierarchy age = DecadeAgeTree();
  DomainHierarchy role = RoleTree();
  const Table table = WiderTable();
  const std::vector<GeneralizationSet> minimal = {
      GeneralizationSet::AllLeaves(&age), GeneralizationSet::AllLeaves(&role)};
  const std::vector<GeneralizationSet> maximal = {
      GeneralizationSet::RootOnly(&age), GeneralizationSet::RootOnly(&role)};
  for (SearchStrategy strategy :
       {SearchStrategy::kExhaustive, SearchStrategy::kGreedy}) {
    MultiBinningOptions options;
    options.k = 4;
    options.strategy = strategy;
    options.max_enumerations = 1000000;
    const auto serial =
        MultiAttributeBin(table, {1, 2}, minimal, maximal, options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (size_t threads : {size_t{2}, size_t{3}, size_t{7}}) {
      const auto pool = MakeThreadPool(threads);
      const auto parallel = MultiAttributeBin(table, {1, 2}, minimal, maximal,
                                              options, nullptr, pool.get());
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(serial->ultimate, parallel->ultimate)
          << threads << " threads, strategy "
          << (strategy == SearchStrategy::kGreedy ? "greedy" : "exhaustive");
      EXPECT_EQ(serial->candidates_considered, parallel->candidates_considered)
          << threads;
      EXPECT_EQ(serial->total_specificity_loss,
                parallel->total_specificity_loss)
          << threads;
    }
  }
}

TEST(MultiBinTest, ParallelErrorsMatchSerial) {
  // Unbinnable and capacity errors must surface identically with workers.
  DomainHierarchy age = AgeTree();
  DomainHierarchy role = RoleTree();
  const Table table = CrossedTable();
  const std::vector<GeneralizationSet> minimal = {
      GeneralizationSet::AllLeaves(&age), GeneralizationSet::AllLeaves(&role)};
  MultiBinningOptions options;
  options.k = 4;
  const auto pool = MakeThreadPool(3);
  const auto serial = MultiAttributeBin(table, {1, 2}, minimal, minimal,
                                        options);
  const auto parallel = MultiAttributeBin(table, {1, 2}, minimal, minimal,
                                          options, nullptr, pool.get());
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(serial.status(), parallel.status());
}

}  // namespace
}  // namespace privmark
