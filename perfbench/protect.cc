// protect and joint-binning: the session protect path, end to end and
// layer by layer.

#include <string>
#include <vector>

#include "binning/binning_engine.h"
#include "binning/mono_attribute.h"
#include "binning/multi_attribute.h"
#include "core/session.h"
#include "metrics/info_loss.h"
#include "watermark/ownership.h"
#include "workloads.h"

namespace privmark {
namespace perfbench {

Result<Dataset> MakeDataset(size_t rows, uint64_t seed) {
  MedicalDataSpec spec;
  spec.num_rows = rows;
  spec.seed = seed;
  Dataset out;
  PRIVMARK_ASSIGN_OR_RETURN(MedicalDataset data, GenerateMedicalDataset(spec));
  out.data = std::make_unique<MedicalDataset>(std::move(data));
  // The paper's evaluation cuts: age intervals of width 20-40, zip
  // regions, doctor roles, ICD-9 chapters, drug classes.
  PRIVMARK_ASSIGN_OR_RETURN(
      out.metrics, MetricsFromDepthCuts(out.data->trees(), {2, 1, 2, 1, 1}));
  return out;
}

FrameworkConfig MakeConfig(size_t k, uint64_t eta, bool enforce_joint) {
  FrameworkConfig config;
  config.binning.k = k;
  config.binning.enforce_joint = enforce_joint;
  config.binning.encryption_passphrase = "perfbench-owner-passphrase";
  config.binning.num_threads = 1;
  config.watermark.num_threads = 1;
  config.key = WatermarkKey{"perfbench-k1", "perfbench-k2", eta};
  return config;
}

namespace {

struct ProtectSpec {
  size_t rows = 20000;
  size_t batch_rows = 1000;
  /// Distinct seed-drawn tables the operations cycle through, so one
  /// seed's data does not set the whole run's cost.
  size_t tables = 1;
  size_t k = 20;
  uint64_t eta = 75;
  bool enforce_joint = false;
  /// Cap every column at its tree root instead of the evaluation depth
  /// cuts (joint k-anonymity over five columns needs the headroom).
  bool unconstrained = false;
};

// One input table, its batches, and the one-shot reference output every
// batched protect of it must reproduce byte for byte.
struct ProtectInput {
  Dataset dataset;
  std::vector<Table> batches;
  Table reference;
};

Status CheckReference(const Dataset& dataset, const FrameworkConfig& config,
                      const ProtectionOutcome& outcome) {
  // Privacy: the binned table is k-anonymous (jointly, or per column).
  const std::vector<size_t>& qi = outcome.binning.qi_columns;
  if (config.binning.enforce_joint) {
    if (!outcome.binning.binned.IsKAnonymous(qi, config.binning.k)) {
      return Status::VerificationFailed("binned table not jointly k-anonymous");
    }
  } else {
    for (size_t c : qi) {
      if (!outcome.binning.binned.IsKAnonymous({c}, config.binning.k)) {
        return Status::VerificationFailed("binned column " + std::to_string(c) +
                                          " not k-anonymous");
      }
    }
  }
  // Ownership: the mark comes back out of the watermarked table.
  const ProtectionFramework framework(dataset.metrics, config);
  const HierarchicalWatermarker watermarker =
      framework.MakeWatermarker(outcome.binning);
  PRIVMARK_ASSIGN_OR_RETURN(
      DetectReport detected,
      watermarker.Detect(outcome.watermarked, outcome.mark.size(),
                         outcome.embed.wmd_size));
  if (!(detected.recovered == outcome.mark)) {
    return Status::VerificationFailed("mark not recovered from the output");
  }
  return Status::OK();
}

// The session path exactly as a caller drives it.
Result<Table> SessionProtect(const ProtectInput& input,
                             const FrameworkConfig& config) {
  ProtectionSession session(input.dataset.metrics, config);
  for (const Table& batch : input.batches) {
    PRIVMARK_ASSIGN_OR_RETURN(IngestResult ingested, session.Ingest(batch));
    if (ingested.emitted.num_rows() != 0) {
      return Status::VerificationFailed("ingest emitted before the flush");
    }
  }
  PRIVMARK_ASSIGN_OR_RETURN(EpochOutput flushed, session.Flush());
  return std::move(flushed.outcome.watermarked);
}

// The same work driven through each layer's own entry point, one span per
// call, in the order ProtectionSession::Ingest and Flush make them. The
// epoch snapshot the session takes after the embed is private to it and
// stays unspanned.
Result<Table> TracedProtect(const ProtectInput& input,
                            const FrameworkConfig& config, Trace* trace) {
  const UsageMetrics& metrics = input.dataset.metrics;
  const Schema& schema = input.batches.front().schema();
  const std::vector<size_t> qi = schema.QuasiIdentifyingColumns();
  PRIVMARK_ASSIGN_OR_RETURN(size_t ident, schema.IdentifyingColumn());
  const std::vector<const DomainHierarchy*>& trees = metrics.trees;

  PRIVMARK_ASSIGN_OR_RETURN(CountState counts, CountState::Zero(trees));
  Table buffer(schema);
  EncodedView view;
  for (const Table& batch : input.batches) {
    PRIVMARK_ASSIGN_OR_RETURN(
        EncodedView batch_view, trace->Span("encode_ms", [&] {
          return EncodedView::Leaves(batch, qi, trees);
        }));
    PRIVMARK_RETURN_NOT_OK(trace->Span("count_merge_ms", [&]() -> Status {
      PRIVMARK_ASSIGN_OR_RETURN(CountState batch_counts,
                                CountState::FromView(trees, batch_view));
      return counts.Merge(batch_counts);
    }));
    PRIVMARK_RETURN_NOT_OK(trace->Span("buffer_ms", [&]() -> Status {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        PRIVMARK_RETURN_NOT_OK(buffer.AppendRow(batch.row(r)));
      }
      return view.Append(batch_view);
    }));
  }

  PRIVMARK_ASSIGN_OR_RETURN(
      BitVector mark, trace->Span("mark_ms", [&]() -> Result<BitVector> {
        PRIVMARK_ASSIGN_OR_RETURN(double v, StatisticFromTable(buffer, ident));
        return DeriveOwnershipMark(v, config.mark_bits, config.watermark.hash);
      }));

  const size_t effective_k = config.binning.k + config.binning.epsilon;
  MonoBinningOptions mono_options = config.binning.mono;
  mono_options.k = effective_k;
  std::vector<GeneralizationSet> minimal;
  for (size_t c = 0; c < qi.size(); ++c) {
    PRIVMARK_ASSIGN_OR_RETURN(
        MonoBinningResult mono, trace->Span("mono_select_ms", [&] {
          return MonoAttributeBinCounts(metrics.maximal[c], counts.column(c),
                                        mono_options);
        }));
    if (!mono.suppressed_nodes.empty()) {
      return Status::NotImplemented("traced protect models no suppression");
    }
    minimal.push_back(std::move(mono.minimal));
  }
  const auto info_loss = [&](const std::vector<GeneralizationSet>& gens)
      -> Status {
    for (size_t c = 0; c < qi.size(); ++c) {
      PRIVMARK_ASSIGN_OR_RETURN(
          double loss, ColumnInfoLossEncoded(view.column(c), gens[c], nullptr));
      (void)loss;
    }
    return Status::OK();
  };
  PRIVMARK_RETURN_NOT_OK(
      trace->Span("info_loss_ms", [&] { return info_loss(minimal); }));

  std::vector<GeneralizationSet> ultimate = minimal;
  if (config.binning.enforce_joint) {
    MultiBinningOptions multi_options = config.binning.multi;
    multi_options.k = effective_k;
    PRIVMARK_ASSIGN_OR_RETURN(
        MultiBinningResult multi, trace->Span("joint_search_ms", [&] {
          return MultiAttributeBin(buffer, qi, minimal, metrics.maximal,
                                   multi_options, &view, nullptr);
        }));
    trace->Count("candidates_considered",
                 static_cast<double>(multi.candidates_considered));
    ultimate = std::move(multi.ultimate);
  }
  PRIVMARK_RETURN_NOT_OK(
      trace->Span("info_loss_ms", [&] { return info_loss(ultimate); }));

  PRIVMARK_ASSIGN_OR_RETURN(Table binned, trace->Span("materialize_ms", [&] {
    const Aes128 cipher =
        Aes128::FromPassphrase(config.binning.encryption_passphrase);
    return MaterializeProtected(buffer, qi, ident, ultimate, view, cipher,
                                nullptr);
  }));
  Table watermarked =
      trace->Span("clone_ms", [&] { return binned.Clone(); });
  const HierarchicalWatermarker watermarker(qi, ident, metrics.maximal,
                                            ultimate, config.key,
                                            config.watermark);
  PRIVMARK_ASSIGN_OR_RETURN(EmbedReport embed, trace->Span("embed_ms", [&] {
    return watermarker.Embed(&watermarked, mark, config.copies);
  }));
  PRIVMARK_ASSIGN_OR_RETURN(
      std::vector<AttributeSeamlessness> seamless,
      trace->Span("seamlessness_ms", [&] {
        return MeasureSeamlessness(binned, watermarked, qi, config.binning.k);
      }));
  (void)seamless;
  trace->Count("rows_per_op", static_cast<double>(buffer.num_rows()));
  trace->Count("slots_embedded", static_cast<double>(embed.slots_embedded));
  return watermarked;
}

Result<WorkloadReport> RunProtectSpec(const ProtectSpec& spec,
                                      const RunOptions& options) {
  const FrameworkConfig config =
      MakeConfig(spec.k, spec.eta, spec.enforce_joint);
  std::vector<ProtectInput> inputs;
  PRIVMARK_ASSIGN_OR_RETURN(
      double setup_s,
      TimeSetup(5, [&] { inputs.clear(); }, [&]() -> Status {
        for (size_t t = 0; t < spec.tables; ++t) {
          ProtectInput input;
          PRIVMARK_ASSIGN_OR_RETURN(
              input.dataset, MakeDataset(spec.rows, MixSeed(options.seed, t)));
          if (spec.unconstrained) {
            input.dataset.metrics =
                UnconstrainedMetrics(input.dataset.data->trees());
          }
          const Table& table = input.dataset.table();
          for (size_t begin = 0; begin < table.num_rows();
               begin += spec.batch_rows) {
            input.batches.push_back(table.Slice(begin, begin + spec.batch_rows));
          }
          const ProtectionFramework framework(input.dataset.metrics, config);
          PRIVMARK_ASSIGN_OR_RETURN(ProtectionOutcome outcome,
                                    framework.Protect(table));
          PRIVMARK_RETURN_NOT_OK(
              CheckReference(input.dataset, config, outcome));
          input.reference = std::move(outcome.watermarked);
          inputs.push_back(std::move(input));
        }
        return Status::OK();
      }));

  size_t next = 0;
  return MeasureWindow(
      options, setup_s, [&](Trace* trace, double* latency_ms) -> Status {
        const ProtectInput& input = inputs[next++ % inputs.size()];
        const Clock::time_point start = Clock::now();
        PRIVMARK_ASSIGN_OR_RETURN(Table out,
                                  options.trace
                                      ? TracedProtect(input, config, trace)
                                      : SessionProtect(input, config));
        *latency_ms = MillisSince(start);
        if (!SameTable(out, input.reference)) {
          return Status::VerificationFailed(
              "batched protect differs from one-shot Protect");
        }
        return Status::OK();
      });
}

}  // namespace

Result<WorkloadReport> RunProtect(const RunOptions& options) {
  ProtectSpec spec;
  spec.tables = 4;
  return RunProtectSpec(spec, options);
}

Result<WorkloadReport> RunJointBinning(const RunOptions& options) {
  ProtectSpec spec;
  spec.rows = 2000;
  spec.batch_rows = 250;
  spec.tables = 12;
  spec.k = 10;
  spec.eta = 10;
  spec.enforce_joint = true;
  spec.unconstrained = true;
  return RunProtectSpec(spec, options);
}

}  // namespace perfbench
}  // namespace privmark
