#include "binning/binning_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/parallel.h"
#include "crypto/aes128.h"
#include "datagen/medical_data.h"

namespace privmark {
namespace {

// A compact data set so engine tests stay fast.
MedicalDataset SmallDataset() {
  MedicalDataSpec spec;
  spec.num_rows = 1500;
  spec.seed = 7;
  return std::move(GenerateMedicalDataset(spec)).ValueOrDie();
}

TEST(BinningEngineTest, EncryptsIdentifiersReversibly) {
  MedicalDataset ds = SmallDataset();
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  BinningAgent agent(UnconstrainedMetrics(ds.trees()), config);
  auto outcome = agent.Run(ds.table);
  ASSERT_TRUE(outcome.ok());

  const Aes128 cipher = Aes128::FromPassphrase(config.encryption_passphrase);
  const size_t ident = *ds.table.schema().IdentifyingColumn();
  for (size_t r = 0; r < 20; ++r) {
    const std::string encrypted = outcome->binned.at(r, ident).ToString();
    EXPECT_NE(encrypted, ds.table.at(r, ident).ToString());
    auto decrypted = cipher.DecryptValue(encrypted);
    ASSERT_TRUE(decrypted.ok());
    EXPECT_EQ(*decrypted, ds.table.at(r, ident).ToString());
  }
}

TEST(BinningEngineTest, QiCellsHoldUltimateLabels) {
  MedicalDataset ds = SmallDataset();
  BinningConfig config;
  config.k = 10;
  config.enforce_joint = false;
  BinningAgent agent(UnconstrainedMetrics(ds.trees()), config);
  auto outcome = agent.Run(ds.table);
  ASSERT_TRUE(outcome.ok());
  for (size_t c = 0; c < outcome->qi_columns.size(); ++c) {
    const size_t col = outcome->qi_columns[c];
    for (size_t r = 0; r < outcome->binned.num_rows(); ++r) {
      EXPECT_TRUE(outcome->ultimate[c]
                      .NodeForLabel(outcome->binned.at(r, col).ToString())
                      .ok())
          << "row " << r << " column " << col;
    }
  }
}

TEST(BinningEngineTest, PerAttributeKAnonymityHolds) {
  MedicalDataset ds = SmallDataset();
  BinningConfig config;
  config.k = 15;
  config.enforce_joint = false;
  BinningAgent agent(UnconstrainedMetrics(ds.trees()), config);
  auto outcome = agent.Run(ds.table);
  ASSERT_TRUE(outcome.ok());
  for (size_t col : outcome->qi_columns) {
    EXPECT_GE(outcome->binned.MinBinSize({col}), config.k) << col;
  }
}

TEST(BinningEngineTest, JointKAnonymityWhenEnforced) {
  MedicalDataset ds = SmallDataset();
  BinningConfig config;
  config.k = 8;
  config.enforce_joint = true;
  BinningAgent agent(UnconstrainedMetrics(ds.trees()), config);
  auto outcome = agent.Run(ds.table);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome->binned.MinBinSize(outcome->qi_columns), config.k);
}

TEST(BinningEngineTest, LossesAreOrderedAndBounded) {
  MedicalDataset ds = SmallDataset();
  BinningConfig config;
  config.k = 8;
  config.enforce_joint = true;
  BinningAgent agent(UnconstrainedMetrics(ds.trees()), config);
  auto outcome = agent.Run(ds.table);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome->mono_normalized_loss, 0.0);
  EXPECT_LE(outcome->mono_normalized_loss, 1.0);
  // Joint binning can only generalize further.
  EXPECT_GE(outcome->multi_normalized_loss,
            outcome->mono_normalized_loss - 1e-12);
  EXPECT_LE(outcome->multi_normalized_loss, 1.0);
}

TEST(BinningEngineTest, EpsilonRaisesEffectiveK) {
  MedicalDataset ds = SmallDataset();
  BinningConfig config;
  config.k = 10;
  config.epsilon = 5;
  config.enforce_joint = false;
  BinningAgent agent(UnconstrainedMetrics(ds.trees()), config);
  auto outcome = agent.Run(ds.table);
  ASSERT_TRUE(outcome.ok());
  for (size_t col : outcome->qi_columns) {
    EXPECT_GE(outcome->binned.MinBinSize({col}), config.k + config.epsilon);
  }
}

TEST(BinningEngineTest, MetricsCountMismatchRejected) {
  MedicalDataset ds = SmallDataset();
  auto trees = ds.trees();
  trees.pop_back();
  BinningConfig config;
  BinningAgent agent(UnconstrainedMetrics(trees), config);
  EXPECT_FALSE(agent.Run(ds.table).ok());
}

TEST(BinningEngineTest, RowCountPreservedWithoutSuppression) {
  MedicalDataset ds = SmallDataset();
  BinningConfig config;
  config.k = 5;
  config.enforce_joint = false;
  BinningAgent agent(UnconstrainedMetrics(ds.trees()), config);
  auto outcome = agent.Run(ds.table);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->suppressed_rows, 0u);
  EXPECT_EQ(outcome->binned.num_rows(), ds.table.num_rows());
}

TEST(BinningEngineTest, SuppressionPathDropsRows) {
  // Craft a table with one rare symptom leaf under a depth-capped maximal
  // node, k too large for it.
  auto tree = HierarchyBuilder::FromOutline("sym", R"(All
  A
    a1
    a2
  B
    b1)").ValueOrDie();
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"id", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  ASSERT_TRUE(schema.AddColumn({"sym", ColumnRole::kQuasiCategorical,
                                ValueType::kString}).ok());
  Table t(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::String("i" + std::to_string(i)),
                             Value::String(i < 9 ? (i % 2 ? "a1" : "a2")
                                                 : "b1")}).ok());
  }
  // Maximal at depth 1: {A, B}; B holds 1 < k = 3 tuples.
  UsageMetrics metrics;
  metrics.trees = {&tree};
  metrics.maximal = {CutAtDepth(&tree, 1)};
  BinningConfig config;
  config.k = 3;
  config.enforce_joint = false;
  config.mono.on_unbinnable = UnbinnablePolicy::kSuppress;
  BinningAgent agent(metrics, config);
  auto outcome = agent.Run(t);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->suppressed_rows, 1u);
  EXPECT_EQ(outcome->binned.num_rows(), 9u);

  // Same run with the error policy refuses.
  BinningConfig strict = config;
  strict.mono.on_unbinnable = UnbinnablePolicy::kError;
  BinningAgent strict_agent(metrics, strict);
  EXPECT_EQ(strict_agent.Run(t).status().code(), StatusCode::kUnbinnable);
}

// Inputs for MaterializeProtected: the small data set, its ultimate
// generalizations from a per-attribute run, and the leaf view of its QI
// columns. With `int64_ident` the identifying column is re-declared int64
// and filled with numbers, the other cells copied through. `ds` owns the
// trees the generalizations point into.
struct MaterializeInputs {
  MedicalDataset ds;
  Table table;
  std::vector<size_t> qi_columns;
  size_t ident_column = 0;
  std::vector<GeneralizationSet> ultimate;
  EncodedView view;
};

MaterializeInputs MakeMaterializeInputs(bool int64_ident) {
  MaterializeInputs in;
  in.ds = SmallDataset();
  const MedicalDataset& ds = in.ds;
  BinningConfig config;
  config.k = 10;
  config.enforce_joint = false;
  BinningAgent agent(UnconstrainedMetrics(ds.trees()), config);
  BinningOutcome outcome = std::move(agent.Run(ds.table)).ValueOrDie();

  in.qi_columns = outcome.qi_columns;
  in.ident_column = *ds.table.schema().IdentifyingColumn();
  in.ultimate = outcome.ultimate;
  if (int64_ident) {
    std::vector<ColumnSpec> columns = ds.table.schema().columns();
    columns[in.ident_column].type = ValueType::kInt64;
    in.table = Table(Schema(columns));
    for (size_t r = 0; r < ds.table.num_rows(); ++r) {
      Row row = ds.table.row(r);
      row[in.ident_column] =
          Value::Int64(static_cast<int64_t>(r) * 7919 - 4000000);
      EXPECT_TRUE(in.table.AppendRow(std::move(row)).ok());
    }
  } else {
    in.table = ds.table.Clone();
  }
  std::vector<const DomainHierarchy*> trees;
  for (const GeneralizationSet& gs : in.ultimate) trees.push_back(gs.tree());
  in.view =
      std::move(EncodedView::Leaves(in.table, in.qi_columns, trees))
          .ValueOrDie();
  return in;
}

class MaterializeProtectedTest : public ::testing::TestWithParam<bool> {};

TEST_P(MaterializeProtectedTest, EncryptsIdentsAndWritesUltimateLabels) {
  const MaterializeInputs in = MakeMaterializeInputs(GetParam());
  const Aes128 cipher = Aes128::FromPassphrase("materialize");
  std::vector<std::vector<NodeId>> nodes;
  auto binned = MaterializeProtected(in.table, in.qi_columns, in.ident_column,
                                     in.ultimate, in.view, cipher, nullptr,
                                     &nodes);
  ASSERT_TRUE(binned.ok()) << binned.status().ToString();
  ASSERT_EQ(binned->num_rows(), in.table.num_rows());
  ASSERT_EQ(nodes.size(), in.qi_columns.size());

  std::vector<int> qi_index(in.table.num_columns(), -1);
  for (size_t c = 0; c < in.qi_columns.size(); ++c) {
    qi_index[in.qi_columns[c]] = static_cast<int>(c);
    ASSERT_EQ(nodes[c].size(), in.table.num_rows());
  }
  for (size_t r = 0; r < in.table.num_rows(); ++r) {
    const Value& encrypted = binned->at(r, in.ident_column);
    ASSERT_EQ(encrypted.type(), ValueType::kString);
    auto decrypted = cipher.DecryptValue(encrypted.AsString());
    ASSERT_TRUE(decrypted.ok()) << "row " << r;
    ASSERT_EQ(*decrypted, in.table.at(r, in.ident_column).ToString())
        << "row " << r;
    for (size_t col = 0; col < in.table.num_columns(); ++col) {
      if (col == in.ident_column) continue;
      if (qi_index[col] < 0) {
        ASSERT_EQ(binned->at(r, col), in.table.at(r, col));
        continue;
      }
      const size_t c = static_cast<size_t>(qi_index[col]);
      const NodeId expected =
          in.ultimate[c].NodeForLeaf(in.view.column(c).id(r)).ValueOrDie();
      ASSERT_EQ(nodes[c][r], expected) << "row " << r << " column " << col;
      ASSERT_EQ(binned->at(r, col).ToString(),
                in.ultimate[c].tree()->node(expected).label)
          << "row " << r << " column " << col;
    }
  }
}

TEST_P(MaterializeProtectedTest, PooledOutputEqualsSerial) {
  const MaterializeInputs in = MakeMaterializeInputs(GetParam());
  const Aes128 cipher = Aes128::FromPassphrase("materialize");
  std::vector<std::vector<NodeId>> serial_nodes;
  auto serial = MaterializeProtected(in.table, in.qi_columns, in.ident_column,
                                     in.ultimate, in.view, cipher, nullptr,
                                     &serial_nodes);
  std::unique_ptr<ThreadPool> pool = MakeThreadPool(4);
  std::vector<std::vector<NodeId>> pooled_nodes;
  auto pooled = MaterializeProtected(in.table, in.qi_columns, in.ident_column,
                                     in.ultimate, in.view, cipher, pool.get(),
                                     &pooled_nodes);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(pooled.ok());
  ASSERT_EQ(serial->num_rows(), pooled->num_rows());
  for (size_t r = 0; r < serial->num_rows(); ++r) {
    ASSERT_EQ(serial->row(r), pooled->row(r)) << "row " << r;
  }
  EXPECT_EQ(serial_nodes, pooled_nodes);
}

INSTANTIATE_TEST_SUITE_P(IdentTypes, MaterializeProtectedTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Int64Ident" : "StringIdent";
                         });

TEST(MaterializeProtectedCountsTest, ColumnCountMismatchRejected) {
  const MaterializeInputs in = MakeMaterializeInputs(false);
  const Aes128 cipher = Aes128::FromPassphrase("materialize");
  std::vector<GeneralizationSet> short_ultimate = in.ultimate;
  short_ultimate.pop_back();
  auto binned = MaterializeProtected(in.table, in.qi_columns, in.ident_column,
                                     short_ultimate, in.view, cipher, nullptr);
  EXPECT_EQ(binned.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(binned.status().message().find("count mismatch"),
            std::string::npos)
      << binned.status().ToString();
}

TEST(MaterializeProtectedCountsTest, ViewRowCountMismatchRejected) {
  const MaterializeInputs in = MakeMaterializeInputs(false);
  const Aes128 cipher = Aes128::FromPassphrase("materialize");
  const Table fewer = in.table.Slice(0, in.table.num_rows() - 1);
  auto binned = MaterializeProtected(fewer, in.qi_columns, in.ident_column,
                                     in.ultimate, in.view, cipher, nullptr);
  EXPECT_EQ(binned.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(binned.status().message().find("view covers"), std::string::npos)
      << binned.status().ToString();
}

}  // namespace
}  // namespace privmark
