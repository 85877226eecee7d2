// The binning agent (paper Sec. 3 and Fig. 8).
//
// Pipeline: (1) mono-attribute binning of every quasi-identifying column
// (Fig. 5), (2) multi-attribute binning to joint k-anonymity (Fig. 7),
// (3) the Binning step of Fig. 8 — encrypt the identifying column with E()
// (AES-128 here) and replace each quasi-identifier value with the label of
// its ultimate generalization node.
//
// The identifying column is deliberately kept (encrypted, one-to-one)
// rather than suppressed: the paper needs it traceable for clinical
// follow-up, as the tuple selector for watermarking (Eq. 5), and as the
// basis of the rightful-ownership mark (Sec. 5.4).

#ifndef PRIVMARK_BINNING_BINNING_ENGINE_H_
#define PRIVMARK_BINNING_BINNING_ENGINE_H_

#include <string>
#include <vector>

#include "binning/count_state.h"
#include "binning/mono_attribute.h"
#include "binning/multi_attribute.h"
#include "common/status.h"
#include "crypto/aes128.h"
#include "hierarchy/encoded_view.h"
#include "metrics/usage_metrics.h"
#include "relation/table.h"

namespace privmark {

class ThreadPool;

/// \brief Configuration of one binning run.
struct BinningConfig {
  /// k-anonymity parameter. The *effective* k used during search is
  /// k + epsilon (Sec. 6's conservative adjustment); reports still measure
  /// against k.
  size_t k = 2;
  /// Extra slack so that post-watermark bins cannot drop below k (Sec. 6:
  /// epsilon = (s / S) * |wmd|). 0 disables the adjustment.
  size_t epsilon = 0;
  /// Passphrase from which the identifying-column AES-128 key derives.
  std::string encryption_passphrase = "privmark-default-passphrase";
  /// Run the multi-attribute phase so the *combination* of all QI columns
  /// is k-anonymous. When false the ultimate generalization equals the
  /// mono-attribute minimal nodes (each column individually k-anonymous) —
  /// this mirrors the paper's own evaluation setup: the per-attribute bin
  /// counts of its Fig. 14 (e.g. 73 age bins x 96 zip bins at k=10 over
  /// 20000 tuples) are only possible without joint 5-column k-anonymity.
  bool enforce_joint = true;
  /// Worker threads for the row-sharded stages (column encoding, per-node
  /// counting, information loss, output materialization). 1 = serial (the
  /// default), 0 = hardware concurrency, N = exactly N workers. Output is
  /// byte-identical for every value (see common/parallel.h).
  size_t num_threads = 1;
  /// Optional caller-owned worker pool. When set it wins over num_threads
  /// (the pool's worker count governs) and the agent constructs no pool of
  /// its own — a long-lived caller (the protection session, a service
  /// front-end) pays thread spawn/join once instead of per run. The pool
  /// must outlive every run using this config. Not serialized state: a
  /// borrowed execution resource.
  ThreadPool* pool = nullptr;
  MonoBinningOptions mono;
  MultiBinningOptions multi;
};

/// \brief Everything a binning run produces.
struct BinningOutcome {
  /// The protected table: encrypted identifiers, generalized QI columns.
  Table binned;
  /// Quasi-identifying column indices the run operated on (schema order).
  std::vector<size_t> qi_columns;
  /// Per-column minimal generalization nodes (after mono-attribute binning).
  std::vector<GeneralizationSet> minimal;
  /// Per-column ultimate generalization nodes (after multi-attribute
  /// binning); what the binned table's labels come from.
  std::vector<GeneralizationSet> ultimate;
  /// Per quasi-identifying column (parallel to qi_columns), the ultimate
  /// NodeId of every row of `binned` — the node whose label the cell
  /// holds. Lets consumers count bins without re-resolving labels.
  std::vector<std::vector<NodeId>> bin_nodes;
  /// Eq. (1)/(2) information loss per column after mono-attribute binning
  /// only (the Fig. 11 "Mono-attribute Binning" series).
  std::vector<double> mono_column_loss;
  /// Eq. (1)/(2) loss per column under the ultimate generalization (the
  /// Fig. 11 "Multi-attribute Binning" series).
  std::vector<double> multi_column_loss;
  /// Eq. (3) normalized losses.
  double mono_normalized_loss = 0.0;
  double multi_normalized_loss = 0.0;
  /// Rows dropped by suppression (mono phase), if the policy allows it.
  size_t suppressed_rows = 0;
  /// Statistics from the multi-attribute search.
  size_t candidates_considered = 0;
};

/// \brief The binning agent.
class BinningAgent {
 public:
  /// \param metrics usage metrics: trees + maximal generalization nodes,
  ///        parallel to the schema's quasi-identifying columns (in schema
  ///        order). Trees must outlive the agent.
  BinningAgent(UsageMetrics metrics, BinningConfig config);

  /// \brief Bins `input` to (k + epsilon)-anonymity within the usage
  /// metrics and encrypts its identifying column.
  ///
  /// The input table must have exactly one identifying column and
  /// quasi-identifying columns matching the metrics (count and order).
  ///
  /// Encodes the quasi-identifier columns once, then runs
  /// Run(input, view).
  Result<BinningOutcome> Run(const Table& input) const;

  /// \brief Bins rows whose quasi-identifier columns are already encoded
  /// — the session's flush entry point, which encodes each batch on
  /// arrival. `view` must be `input`'s encoded quasi-identifier columns;
  /// the run counts it once (CountState::FromView) and selects
  /// generalizations from those counts, so the result is byte-identical
  /// to Run(input). Suppression (kSuppress) recounts the kept rows before
  /// re-selecting.
  Result<BinningOutcome> Run(const Table& input,
                             const EncodedView& view) const;

  const BinningConfig& config() const { return config_; }
  const UsageMetrics& metrics() const { return metrics_; }

 private:
  Result<BinningOutcome> RunImpl(const Table& input, size_t ident_column,
                                 const std::vector<size_t>& qi_columns,
                                 const std::vector<const DomainHierarchy*>& trees,
                                 const EncodedView& view,
                                 ThreadPool* pool) const;

  UsageMetrics metrics_;
  BinningConfig config_;
};

/// \brief Fig. 8's Binning step over pre-encoded rows: the identifying
/// column encrypted with `cipher`, each quasi-identifier cell rewritten to
/// its ultimate generalization node's label, other cells copied through.
/// Rows build per contiguous shard and append in shard order, so the
/// output is byte-identical to a serial pass for any worker count. Shared
/// by BinningAgent's phase 3 and the streaming session's per-batch
/// emission, which must produce identical bytes. When `nodes` is set it
/// receives, per quasi-identifying column, each output row's ultimate
/// NodeId (the BinningOutcome::bin_nodes layout).
Result<Table> MaterializeProtected(
    const Table& input, const std::vector<size_t>& qi_columns,
    size_t ident_column, const std::vector<GeneralizationSet>& ultimate,
    const EncodedView& view, const Aes128& cipher, ThreadPool* pool,
    std::vector<std::vector<NodeId>>* nodes = nullptr);

}  // namespace privmark

#endif  // PRIVMARK_BINNING_BINNING_ENGINE_H_
