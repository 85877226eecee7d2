#include "binning/binning_engine.h"

#include "common/parallel.h"
#include "metrics/info_loss.h"

namespace privmark {

namespace {

// The schema-derived facts every run needs before touching a row.
struct RunSetup {
  size_t ident_column = 0;
  std::vector<size_t> qi_columns;
  std::vector<const DomainHierarchy*> trees;
};

Result<RunSetup> SetupFor(const Schema& schema, const UsageMetrics& metrics) {
  RunSetup setup;
  PRIVMARK_ASSIGN_OR_RETURN(setup.ident_column, schema.IdentifyingColumn());
  setup.qi_columns = schema.QuasiIdentifyingColumns();
  if (setup.qi_columns.size() != metrics.num_columns()) {
    return Status::InvalidArgument(
        "BinningAgent: schema has " +
        std::to_string(setup.qi_columns.size()) +
        " quasi-identifying columns but usage metrics cover " +
        std::to_string(metrics.num_columns()));
  }
  setup.trees.reserve(setup.qi_columns.size());
  for (const GeneralizationSet& gs : metrics.maximal) {
    setup.trees.push_back(gs.tree());
  }
  return setup;
}

}  // namespace

BinningAgent::BinningAgent(UsageMetrics metrics, BinningConfig config)
    : metrics_(std::move(metrics)), config_(std::move(config)) {}

Result<Table> MaterializeProtected(
    const Table& input, const std::vector<size_t>& qi_columns,
    size_t ident_column, const std::vector<GeneralizationSet>& ultimate,
    const EncodedView& view, const Aes128& cipher, ThreadPool* pool,
    std::vector<std::vector<NodeId>>* nodes) {
  if (qi_columns.size() != ultimate.size() ||
      qi_columns.size() != view.num_columns()) {
    return Status::InvalidArgument(
        "MaterializeProtected: column/generalization/view count mismatch");
  }
  if (view.num_columns() > 0 && view.num_rows() != input.num_rows()) {
    return Status::InvalidArgument(
        "MaterializeProtected: view covers " +
        std::to_string(view.num_rows()) + " rows, table has " +
        std::to_string(input.num_rows()));
  }
  std::vector<int> qi_index_of_col(input.num_columns(), -1);
  for (size_t c = 0; c < qi_columns.size(); ++c) {
    qi_index_of_col[qi_columns[c]] = static_cast<int>(c);
  }
  // Rows are built per contiguous shard (encryption and label lookups are
  // per-row independent) and appended in shard order, so the output table
  // is byte-identical to the serial pass for any worker count. Node ids
  // land in pre-sized vectors, each shard writing only its own rows.
  if (nodes != nullptr) {
    nodes->assign(qi_columns.size(), std::vector<NodeId>(input.num_rows()));
  }
  PRIVMARK_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      ParallelReduce<std::vector<Row>>(
          pool, input.num_rows(), {},
          [&](size_t, size_t begin, size_t end) -> Result<std::vector<Row>> {
            std::vector<Row> shard_rows;
            shard_rows.reserve(end - begin);
            for (size_t r = begin; r < end; ++r) {
              Row row;
              row.reserve(input.num_columns());
              for (size_t col = 0; col < input.num_columns(); ++col) {
                if (col == ident_column) {
                  // A string identifier is encrypted straight from the
                  // cell; other types are rendered to text first.
                  const Value& ident = input.at(r, col);
                  PRIVMARK_ASSIGN_OR_RETURN(
                      std::string encrypted,
                      ident.type() == ValueType::kString
                          ? cipher.EncryptValue(ident.AsString())
                          : cipher.EncryptValue(ident.ToString()));
                  row.push_back(Value::String(std::move(encrypted)));
                  continue;
                }
                const int c = qi_index_of_col[col];
                if (c >= 0) {
                  const size_t ci = static_cast<size_t>(c);
                  PRIVMARK_ASSIGN_OR_RETURN(
                      NodeId node,
                      ultimate[ci].NodeForLeaf(view.column(ci).id(r)));
                  if (nodes != nullptr) (*nodes)[ci][r] = node;
                  row.push_back(
                      Value::String(ultimate[ci].tree()->node(node).label));
                  continue;
                }
                row.push_back(input.at(r, col));
              }
              shard_rows.push_back(std::move(row));
            }
            return shard_rows;
          },
          [](std::vector<Row>* acc, std::vector<Row>&& shard_rows) {
            acc->insert(acc->end(), std::make_move_iterator(shard_rows.begin()),
                        std::make_move_iterator(shard_rows.end()));
          }));
  Table binned(input.schema());
  for (Row& row : rows) {
    PRIVMARK_RETURN_NOT_OK(binned.AppendRow(std::move(row)));
  }
  return binned;
}

Result<BinningOutcome> BinningAgent::Run(const Table& input) const {
  PRIVMARK_ASSIGN_OR_RETURN(RunSetup setup,
                            SetupFor(input.schema(), metrics_));
  // One pool for every row-sharded stage of this run; nullptr means the
  // plain serial code path. A caller-owned config pool is reused as-is.
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = PoolOrMake(config_.pool, config_.num_threads, &owned);
  // Encode every quasi-identifying column to leaf NodeIds exactly once —
  // everything until materialization (both binning phases, suppression,
  // information loss) runs on these integer columns.
  PRIVMARK_ASSIGN_OR_RETURN(
      EncodedView view,
      EncodedView::Leaves(input, setup.qi_columns, setup.trees, pool));
  return RunImpl(input, setup.ident_column, setup.qi_columns, setup.trees,
                 view, pool);
}

Result<BinningOutcome> BinningAgent::Run(const Table& input,
                                         const EncodedView& view) const {
  PRIVMARK_ASSIGN_OR_RETURN(RunSetup setup,
                            SetupFor(input.schema(), metrics_));
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = PoolOrMake(config_.pool, config_.num_threads, &owned);
  return RunImpl(input, setup.ident_column, setup.qi_columns, setup.trees,
                 view, pool);
}

Result<BinningOutcome> BinningAgent::RunImpl(
    const Table& input, size_t ident_col,
    const std::vector<size_t>& qi_columns,
    const std::vector<const DomainHierarchy*>& trees, const EncodedView& view,
    ThreadPool* pool) const {
  const Schema& schema = input.schema();
  if (view.num_columns() != qi_columns.size()) {
    return Status::InvalidArgument(
        "BinningAgent: encoded view covers " +
        std::to_string(view.num_columns()) + " columns, schema has " +
        std::to_string(qi_columns.size()) + " quasi-identifying");
  }
  // Per-node counts of the rows being binned (leaf histograms plus the
  // subtree roll-up), counted once from the view.
  PRIVMARK_ASSIGN_OR_RETURN(CountState counts,
                            CountState::FromView(trees, view, pool));
  const size_t effective_k = config_.k + config_.epsilon;

  BinningOutcome outcome;
  outcome.qi_columns = qi_columns;

  // Bin-selection phase 1: mono-attribute binning per column (Fig. 5),
  // downward from the maximal generalization nodes over the counts. The
  // search never touches rows — only the counts.
  MonoBinningOptions mono_options = config_.mono;
  mono_options.k = effective_k;
  std::vector<size_t> rows_to_suppress;
  for (size_t c = 0; c < qi_columns.size(); ++c) {
    PRIVMARK_ASSIGN_OR_RETURN(
        MonoBinningResult mono,
        MonoAttributeBinCounts(metrics_.maximal[c], counts.column(c),
                               mono_options));
    // Collect rows under suppressed nodes: mark the suppressed subtrees'
    // leaves, then scan the encoded ids.
    if (!mono.suppressed_nodes.empty()) {
      const DomainHierarchy& tree = *trees[c];
      std::vector<char> dropped_leaf(tree.num_nodes(), 0);
      for (NodeId suppressed : mono.suppressed_nodes) {
        const auto [begin, end] = tree.LeafSpan(suppressed);
        for (size_t i = begin; i < end; ++i) {
          dropped_leaf[tree.Leaves()[i]] = 1;
        }
      }
      const std::vector<NodeId>& ids = view.column(c).ids();
      for (size_t r = 0; r < ids.size(); ++r) {
        if (dropped_leaf[ids[r]]) rows_to_suppress.push_back(r);
      }
    }
    outcome.minimal.push_back(std::move(mono.minimal));
  }

  // The rows the later phases operate on: the input itself, or — after
  // suppression — a reduced copy with its encoded view filtered in lock
  // step, so downstream phases never re-resolve cells.
  const Table* working = &input;
  const EncodedView* working_view = &view;
  Table reduced;
  EncodedView reduced_view;
  if (!rows_to_suppress.empty()) {
    std::vector<char> keep(input.num_rows(), 1);
    for (size_t r : rows_to_suppress) keep[r] = 0;
    reduced = Table(schema);
    for (size_t r = 0; r < input.num_rows(); ++r) {
      if (!keep[r]) continue;
      PRIVMARK_RETURN_NOT_OK(reduced.AppendRow(input.row(r)));
    }
    // Rows actually removed: a row suppressed via several columns is
    // listed once per column above but must be counted once.
    outcome.suppressed_rows = input.num_rows() - reduced.num_rows();
    working = &reduced;
    PRIVMARK_ASSIGN_OR_RETURN(reduced_view, view.Filtered(keep));
    working_view = &reduced_view;
    // Redo mono-attribute binning on the kept rows' counts: suppression
    // can only shrink counts, but minimal nodes must reflect the final
    // data.
    PRIVMARK_ASSIGN_OR_RETURN(counts,
                              CountState::FromView(trees, reduced_view, pool));
    outcome.minimal.clear();
    for (size_t c = 0; c < qi_columns.size(); ++c) {
      PRIVMARK_ASSIGN_OR_RETURN(
          MonoBinningResult mono,
          MonoAttributeBinCounts(metrics_.maximal[c], counts.column(c),
                                 mono_options));
      outcome.minimal.push_back(std::move(mono.minimal));
    }
  }

  // Mono-phase information loss (Fig. 11 series 1), measured over the
  // materialized rows.
  for (size_t c = 0; c < qi_columns.size(); ++c) {
    PRIVMARK_ASSIGN_OR_RETURN(
        double loss,
        ColumnInfoLossEncoded(working_view->column(c), outcome.minimal[c],
                              pool));
    outcome.mono_column_loss.push_back(loss);
  }
  outcome.mono_normalized_loss = NormalizedInfoLoss(outcome.mono_column_loss);

  // Bin-selection phase 2: multi-attribute binning (Fig. 7), unless the
  // configuration asks for per-attribute k-anonymity only (the paper's
  // evaluation setup).
  if (config_.enforce_joint) {
    MultiBinningOptions multi_options = config_.multi;
    multi_options.k = effective_k;
    PRIVMARK_ASSIGN_OR_RETURN(
        MultiBinningResult multi,
        MultiAttributeBin(*working, qi_columns, outcome.minimal,
                          metrics_.maximal, multi_options, working_view,
                          pool));
    outcome.ultimate = std::move(multi.ultimate);
    outcome.candidates_considered = multi.candidates_considered;
  } else {
    outcome.ultimate = outcome.minimal;
    outcome.candidates_considered = 0;
  }

  for (size_t c = 0; c < qi_columns.size(); ++c) {
    PRIVMARK_ASSIGN_OR_RETURN(
        double loss,
        ColumnInfoLossEncoded(working_view->column(c), outcome.ultimate[c],
                              pool));
    outcome.multi_column_loss.push_back(loss);
  }
  outcome.multi_normalized_loss = NormalizedInfoLoss(outcome.multi_column_loss);

  // Phase 3 (Fig. 8): materialize the protected table in one pass —
  // encrypted identifiers, quasi-identifier cells rewritten to their
  // ultimate generalization node's label, other cells copied through.
  const Aes128 cipher = Aes128::FromPassphrase(config_.encryption_passphrase);
  PRIVMARK_ASSIGN_OR_RETURN(
      outcome.binned,
      MaterializeProtected(*working, qi_columns, ident_col, outcome.ultimate,
                           *working_view, cipher, pool, &outcome.bin_nodes));
  return outcome;
}

}  // namespace privmark
