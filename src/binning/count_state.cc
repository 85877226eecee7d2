#include "binning/count_state.h"

#include "binning/mono_attribute.h"

namespace privmark {

namespace {

Status CheckTrees(const std::vector<const DomainHierarchy*>& trees) {
  for (size_t c = 0; c < trees.size(); ++c) {
    if (trees[c] == nullptr) {
      return Status::InvalidArgument("CountState: null tree for column " +
                                     std::to_string(c));
    }
  }
  return Status::OK();
}

}  // namespace

Result<CountState> CountState::Zero(
    const std::vector<const DomainHierarchy*>& trees) {
  PRIVMARK_RETURN_NOT_OK(CheckTrees(trees));
  std::vector<std::vector<size_t>> counts;
  counts.reserve(trees.size());
  for (const DomainHierarchy* tree : trees) {
    counts.emplace_back(tree->num_nodes(), 0);
  }
  return CountState(trees, std::move(counts), 0);
}

Result<CountState> CountState::FromView(
    const std::vector<const DomainHierarchy*>& trees, const EncodedView& view,
    ThreadPool* pool) {
  PRIVMARK_RETURN_NOT_OK(CheckTrees(trees));
  if (view.num_columns() != trees.size()) {
    return Status::InvalidArgument(
        "CountState: view covers " + std::to_string(view.num_columns()) +
        " columns but " + std::to_string(trees.size()) + " trees given");
  }
  std::vector<std::vector<size_t>> counts;
  counts.reserve(trees.size());
  for (size_t c = 0; c < trees.size(); ++c) {
    if (view.column(c).tree() != trees[c]) {
      return Status::InvalidArgument(
          "CountState: view column " + std::to_string(c) +
          " resolves against a different tree");
    }
    PRIVMARK_ASSIGN_OR_RETURN(
        std::vector<size_t> column_counts,
        CountPerNode(*trees[c], view.column(c).ids(), pool));
    counts.push_back(std::move(column_counts));
  }
  return CountState(trees, std::move(counts), view.num_rows());
}

Status CountState::Merge(const CountState& other) {
  if (trees_ != other.trees_) {
    return Status::InvalidArgument(
        "CountState::Merge: states cover different trees");
  }
  for (size_t c = 0; c < counts_.size(); ++c) {
    std::vector<size_t>& acc = counts_[c];
    const std::vector<size_t>& add = other.counts_[c];
    for (size_t i = 0; i < acc.size(); ++i) acc[i] += add[i];
  }
  num_rows_ += other.num_rows_;
  return Status::OK();
}

}  // namespace privmark
