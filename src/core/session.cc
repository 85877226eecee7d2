#include "core/session.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "binning/binning_engine.h"
#include "common/failpoint.h"
#include "core/journal.h"
#include "watermark/ownership.h"

namespace privmark {

// The watermark agent may run on a different thread count than the
// binning agent; one session pool serves both, sized to the larger ask
// (0 = hardware concurrency wins). Outputs are byte-identical for any
// worker count, so this only moves throughput.
size_t SessionThreadAsk(const FrameworkConfig& config) {
  const size_t b = config.binning.num_threads;
  const size_t w = config.watermark.num_threads;
  if (b == 0 || w == 0) return 0;
  return std::max(b, w);
}

namespace {

// Per column, how many binned rows fall in each ultimate node's bin —
// the NodeId form of grouping the binned table by that column.
std::vector<std::vector<size_t>> BinHistograms(const BinningOutcome& binning) {
  std::vector<std::vector<size_t>> counts(binning.bin_nodes.size());
  for (size_t c = 0; c < counts.size(); ++c) {
    counts[c].assign(binning.ultimate[c].tree()->num_nodes(), 0);
    for (const NodeId node : binning.bin_nodes[c]) ++counts[c][node];
  }
  return counts;
}

// Rows per joint bin, keyed by the ultimate NodeIds of every
// quasi-identifying column in qi-column order — the NodeId form of
// grouping the binned table by all its quasi-identifier columns.
std::unordered_map<std::vector<NodeId>, size_t, NodeVectorHash> JointBinSizes(
    const BinningOutcome& binning) {
  std::unordered_map<std::vector<NodeId>, size_t, NodeVectorHash> sizes;
  std::vector<NodeId> key(binning.bin_nodes.size());
  for (size_t r = 0; r < binning.binned.num_rows(); ++r) {
    for (size_t c = 0; c < key.size(); ++c) key[c] = binning.bin_nodes[c][r];
    ++sizes[key];
  }
  return sizes;
}

// Sec. 6's s: the largest joint bin in joint mode, otherwise the largest
// single-column bin over every column. Labels are unique within a tree,
// so this equals grouping the binned table by its label strings.
size_t LargestBin(const BinningOutcome& binning, bool joint) {
  size_t largest = 0;
  if (joint) {
    for (const auto& [key, size] : JointBinSizes(binning)) {
      largest = std::max(largest, size);
    }
    return largest;
  }
  for (const std::vector<size_t>& column : BinHistograms(binning)) {
    for (const size_t size : column) largest = std::max(largest, size);
  }
  return largest;
}

// Per-attribute epoch-k enforcement: drop rows of sub-k bins per column,
// iterating because a dropped row shrinks its bins in *other* columns.
// Counts are built once over the rows' bin NodeIds; each round judges
// every surviving row against the current counts, then decrements the
// victims' bins (counts(all) - counts(removed) == counts(kept)), so
// rounds cost O(rows x columns) array lookups instead of a recount.
// Converges (rows only ever decrease) and is deterministic (victims are
// chosen per round from a fixed snapshot, in row order). The bin NodeIds are filtered in lock step with the
// table, so they keep describing the surviving rows.
size_t EnforceEpochK(BinningOutcome* binning, size_t k) {
  std::vector<std::vector<NodeId>>& nodes = binning->bin_nodes;
  const size_t num_rows = binning->binned.num_rows();
  std::vector<std::vector<size_t>> counts = BinHistograms(*binning);
  std::vector<char> alive(num_rows, 1);
  std::vector<size_t> victims;
  for (;;) {
    victims.clear();
    for (size_t r = 0; r < num_rows; ++r) {
      if (!alive[r]) continue;
      for (size_t c = 0; c < nodes.size(); ++c) {
        if (counts[c][nodes[c][r]] < k) {
          victims.push_back(r);
          break;
        }
      }
    }
    if (victims.empty()) break;
    for (size_t r : victims) {
      alive[r] = 0;
      for (size_t c = 0; c < nodes.size(); ++c) --counts[c][nodes[c][r]];
    }
  }
  std::vector<size_t> drop;
  for (size_t r = 0; r < num_rows; ++r) {
    if (!alive[r]) drop.push_back(r);
  }
  if (drop.empty()) return 0;
  for (std::vector<NodeId>& column : nodes) {
    size_t kept = 0;
    for (size_t r = 0; r < num_rows; ++r) {
      if (alive[r]) column[kept++] = column[r];
    }
    column.resize(kept);
  }
  const size_t dropped_total = drop.size();
  binning->binned.RemoveRows(std::move(drop));
  return dropped_total;
}

// Fig. 14 from the flush's own NodeIds: per column, the before-count is
// the binned rows' bin histogram and the after-count is that histogram
// with the embed's cell moves applied. Labels are unique within a tree,
// so this equals MeasureSeamlessness over the binned and watermarked
// tables (the property suite holds the two to field-for-field equality).
std::vector<AttributeSeamlessness> SeamlessnessFromNodes(
    const Schema& schema, const std::vector<size_t>& qi_columns,
    const std::vector<std::vector<size_t>>& before,
    const std::vector<CellMove>& moves, size_t k) {
  std::vector<std::vector<size_t>> after = before;
  for (const CellMove& move : moves) {
    --after[move.col_idx][move.from];
    ++after[move.col_idx][move.to];
  }
  std::vector<AttributeSeamlessness> rows(qi_columns.size());
  for (size_t c = 0; c < qi_columns.size(); ++c) {
    AttributeSeamlessness& row = rows[c];
    row.attribute = schema.column(qi_columns[c]).name;
    for (size_t n = 0; n < before[c].size(); ++n) {
      if (before[c][n] > 0) ++row.total_bins;
      if (before[c][n] != after[c][n]) ++row.bins_size_changed;
      if (after[c][n] > 0 && after[c][n] < k) ++row.bins_below_k;
    }
  }
  return rows;
}

}  // namespace

ProtectionSession::ProtectionSession(UsageMetrics metrics,
                                     FrameworkConfig config,
                                     SessionConfig session)
    : metrics_(std::move(metrics)),
      config_(std::move(config)),
      session_(session),
      cipher_(Aes128::FromPassphrase(config_.binning.encryption_passphrase)) {
  // One pool for the whole session, injected into both agents' configs;
  // caller-supplied pools win (PoolOrMake convention). When the caller
  // injected a pool for either agent, the *other* agent is backfilled
  // with that same pool — never with a fresh pool built from the
  // num_threads knobs, which describe what was requested, not what the
  // caller (e.g. the service, per request) actually gave it.
  // pool_ is only built, and stays null, for a fully serial session.
  ThreadPool* injected = config_.binning.pool != nullptr
                             ? config_.binning.pool
                             : config_.watermark.pool;
  if (injected == nullptr) {
    pool_ = MakeThreadPool(SessionThreadAsk(config_));
    injected = pool_.get();
  }
  if (config_.binning.pool == nullptr) config_.binning.pool = injected;
  if (config_.watermark.pool == nullptr) config_.watermark.pool = injected;
}

// Out of line: journal_ holds a type that is incomplete in the header.
ProtectionSession::~ProtectionSession() = default;

Status ProtectionSession::AttachJournal(
    std::unique_ptr<SessionJournal> journal, bool fresh) {
  if (journal == nullptr) {
    return Status::InvalidArgument("AttachJournal: null journal");
  }
  if (journal_ != nullptr) {
    return Status::InvalidArgument(
        "AttachJournal: session already has a journal");
  }
  if (fresh && rows_ingested_ > 0) {
    return Status::InvalidArgument(
        "AttachJournal: a fresh journal must be attached before the first "
        "Ingest (earlier batches would be unrecoverable)");
  }
  journal_ = std::move(journal);
  if (fresh) {
    PRIVMARK_RETURN_NOT_OK(journal_->AppendConfig(config_, session_));
    if (!config_.key_id.empty()) {
      PRIVMARK_RETURN_NOT_OK(journal_->AppendKeyId(config_.key_id));
    }
    schema_journaled_ = false;
  } else {
    // A resumed journal's prefix already covers everything this session
    // replayed, including the schema iff a batch was ever ingested.
    schema_journaled_ = schema_.has_value();
  }
  return Status::OK();
}

Status ProtectionSession::InitSchema(const Schema& schema) {
  if (schema_.has_value()) {
    if (!(schema == *schema_)) {
      return Status::InvalidArgument(
          "Ingest: batch schema differs from the session's schema");
    }
    return Status::OK();
  }
  PRIVMARK_ASSIGN_OR_RETURN(ident_column_, schema.IdentifyingColumn());
  qi_columns_ = schema.QuasiIdentifyingColumns();
  if (qi_columns_.size() != metrics_.num_columns()) {
    return Status::InvalidArgument(
        "ProtectionSession: schema has " + std::to_string(qi_columns_.size()) +
        " quasi-identifying columns but usage metrics cover " +
        std::to_string(metrics_.num_columns()));
  }
  trees_.clear();
  trees_.reserve(qi_columns_.size());
  for (const GeneralizationSet& gs : metrics_.maximal) {
    trees_.push_back(gs.tree());
  }
  schema_ = schema;
  buffer_ = Table(schema);
  buffer_view_ = EncodedView();
  return Status::OK();
}

Result<IngestResult> ProtectionSession::Ingest(const Table& batch,
                                               Table* owned) {
  PRIVMARK_RETURN_NOT_OK(InitSchema(batch.schema()));

  // Write-ahead: the batch reaches the journal before any session state
  // changes, so a crash at any later point replays it. A failed append
  // fails the Ingest cleanly — no state moved, the caller may retry.
  if (journal_ != nullptr) {
    if (!schema_journaled_) {
      PRIVMARK_RETURN_NOT_OK(journal_->AppendSchema(*schema_));
      schema_journaled_ = true;
    }
    PRIVMARK_RETURN_NOT_OK(journal_->AppendBatch(batch));
  }

  // Encode once per batch. A frozen kFreezeBins session can never flush
  // again, so its batches emit straight away; every other batch buffers
  // toward the next flush, which counts the buffered view.
  PRIVMARK_ASSIGN_OR_RETURN(
      EncodedView view,
      EncodedView::Leaves(batch, qi_columns_, trees_, pool()));
  rows_ingested_ += batch.num_rows();
  if (live_.has_value() && session_.policy == RebinPolicy::kFreezeBins) {
    return EmitFrozen(batch, view);
  }

  // Buffer toward the next flush.
  rows_since_epoch_ += batch.num_rows();
  PRIVMARK_RETURN_NOT_OK(owned != nullptr ? buffer_.Append(std::move(*owned))
                                          : buffer_.Append(batch));
  PRIVMARK_RETURN_NOT_OK(buffer_view_.Append(view));

  IngestResult out;
  out.epoch = epochs_.size();
  out.rows_buffered = buffer_.num_rows();

  if (live_.has_value() && session_.policy == RebinPolicy::kRebinOnDrift &&
      static_cast<double>(rows_since_epoch_) >=
          session_.drift_threshold * static_cast<double>(live_->basis_rows)) {
    PRIVMARK_ASSIGN_OR_RETURN(EpochOutput closed, FlushBuffer());
    out.flushed = true;
    out.epoch = closed.epoch;
    out.embed = closed.outcome.embed;
    out.emitted = std::move(closed.outcome.watermarked);
    out.rows_emitted = out.emitted.num_rows();
    out.rows_suppressed = epochs_.back().rows_suppressed;
    out.rows_buffered = 0;
  }
  return out;
}

Result<EpochOutput> ProtectionSession::Flush() {
  if (PRIVMARK_FAILPOINT("session.flush")) {
    return Status::IOError("failpoint 'session.flush' triggered");
  }
  if (!schema_.has_value()) {
    return Status::InvalidArgument("Flush: nothing ingested");
  }
  if (live_.has_value() && buffer_.num_rows() == 0) {
    return Status::InvalidArgument("Flush: no rows buffered");
  }
  // Write-ahead: the marker commits the intent, so a crash anywhere in
  // FlushBuffer makes replay re-execute the (deterministic) flush.
  if (journal_ != nullptr) {
    PRIVMARK_RETURN_NOT_OK(journal_->AppendFlushMarker());
  }
  return FlushBuffer();
}

ProtectionSession::LiveEpoch ProtectionSession::SnapshotEpoch(
    const BinningOutcome& binning,
    const std::vector<std::vector<size_t>>& bin_counts,
    const EpochRecord& record) const {
  LiveEpoch live;
  live.index = record.epoch;
  live.ultimate = binning.ultimate;
  live.mark = record.mark;
  live.copies = std::max<size_t>(1, record.copies);
  live.wmd_size = record.wmd_size;
  live.effective_k = config_.binning.k + record.epsilon_used;
  live.basis_rows = rows_ingested_;

  // Established bins, read from the epoch's own emitted output: a bin is
  // established iff the epoch emitted >= effective_k rows into it, which
  // is exactly what keeps the concatenated output k-anonymous when later
  // frozen batches join only established bins. Only frozen emission
  // (kFreezeBins) ever consults this state — drift sessions re-bin every
  // window, so skip it for them.
  if (session_.policy != RebinPolicy::kFreezeBins) return live;
  if (config_.binning.enforce_joint) {
    for (const auto& [bin_key, count] : JointBinSizes(binning)) {
      if (count >= live.effective_k) live.joint_established.insert(bin_key);
    }
  } else {
    live.established.resize(bin_counts.size());
    for (size_t c = 0; c < bin_counts.size(); ++c) {
      live.established[c].assign(bin_counts[c].size(), 0);
      for (size_t n = 0; n < bin_counts[c].size(); ++n) {
        if (bin_counts[c][n] >= live.effective_k) live.established[c][n] = 1;
      }
    }
  }
  return live;
}

Result<EpochOutput> ProtectionSession::FlushBuffer() {
  EpochOutput epoch;
  epoch.epoch = epochs_.size();
  ProtectionOutcome& outcome = epoch.outcome;

  // The mark: F(identifier statistic) of the epoch's own rows (Sec. 5.4),
  // or the explicit mark.
  if (config_.derive_mark_from_identifiers) {
    PRIVMARK_ASSIGN_OR_RETURN(outcome.identifier_statistic,
                              StatisticFromTable(buffer_, ident_column_));
    PRIVMARK_ASSIGN_OR_RETURN(
        outcome.mark,
        DeriveOwnershipMark(outcome.identifier_statistic, config_.mark_bits,
                            config_.watermark.hash));
  } else {
    if (config_.explicit_mark.empty()) {
      return Status::InvalidArgument(
          "Protect: explicit_mark is empty but mark derivation is disabled");
    }
    outcome.mark = config_.explicit_mark;
  }

  // Bin selection over the flush window: the agent counts the buffered
  // view once. For the first flush the window is everything ever
  // ingested — which is what makes the single-batch session
  // bit-identical to one-shot Protect; a re-binned (drift) epoch selects
  // from its own window, because the epoch must stand alone as a
  // k-anonymous table, so its generalization has to fit the rows it
  // actually emits, not the (much larger) history.
  BinningConfig binning_config = config_.binning;
  BinningAgent agent(metrics_, binning_config);
  PRIVMARK_ASSIGN_OR_RETURN(outcome.binning, agent.Run(buffer_, buffer_view_));
  outcome.epsilon_used = binning_config.epsilon;

  if (config_.auto_epsilon) {
    // Estimate |wmd| on the first pass, derive epsilon from its largest
    // bin, and re-select from the same window (Sec. 6).
    HierarchicalWatermarker probe = MakeWatermarker(outcome.binning.ultimate);
    PRIVMARK_ASSIGN_OR_RETURN(size_t bandwidth,
                              probe.EstimateBandwidth(outcome.binning.binned));
    size_t copies = config_.copies;
    if (copies == 0) {
      copies = std::max<size_t>(1, bandwidth / config_.mark_bits);
    }
    const size_t wmd_size = copies * config_.mark_bits;
    // Per-attribute k-anonymity: a column sees roughly wmd/|columns| of
    // the moves, and the biggest single-column bin bounds any bin's
    // exposure.
    const bool joint = config_.binning.enforce_joint;
    const size_t moves =
        joint ? wmd_size
              : wmd_size / std::max<size_t>(
                               1, outcome.binning.qi_columns.size());
    const size_t epsilon = ConservativeEpsilon(
        LargestBin(outcome.binning, joint),
        outcome.binning.binned.num_rows(), moves);
    if (epsilon > binning_config.epsilon) {
      binning_config.epsilon = epsilon;
      BinningAgent adjusted(metrics_, binning_config);
      PRIVMARK_ASSIGN_OR_RETURN(outcome.binning,
                                adjusted.Run(buffer_, buffer_view_));
      outcome.epsilon_used = epsilon;
    }
  }

  // Re-binned epochs must stand alone. Selecting from the window's own
  // counts already guarantees this for every bin the mono/joint phases
  // saw; the sweep below catches the residual suppression edge (a
  // kSuppress re-selection can leave a freshly sub-k node behind) by
  // dropping rows until the epoch's own table satisfies k. No-op on the
  // first flush and in joint mode by construction.
  size_t epoch_dropped = 0;
  if (session_.policy == RebinPolicy::kRebinOnDrift && !epochs_.empty() &&
      !config_.binning.enforce_joint) {
    epoch_dropped = EnforceEpochK(&outcome.binning,
                                  config_.binning.k + outcome.epsilon_used);
  }

  // Watermarking pass over the epoch's emitted rows.
  outcome.watermarked = outcome.binning.binned.Clone();
  HierarchicalWatermarker watermarker = MakeWatermarker(outcome.binning.ultimate);
  std::vector<CellMove> moves;
  PRIVMARK_ASSIGN_OR_RETURN(
      outcome.embed, watermarker.Embed(&outcome.watermarked, outcome.mark,
                                       config_.copies, &moves));

  // Fig. 14 seamlessness rows, from the binned rows' bin histogram and the
  // embed's cell moves; the same histogram decides established bins.
  const std::vector<std::vector<size_t>> bin_counts =
      BinHistograms(outcome.binning);
  outcome.seamlessness = SeamlessnessFromNodes(
      *schema_, outcome.binning.qi_columns, bin_counts, moves,
      config_.binning.k);

  // Record the epoch and freeze its generalization.
  EpochRecord record;
  record.epoch = epoch.epoch;
  record.ultimate = outcome.binning.ultimate;
  record.mark = outcome.mark;
  record.identifier_statistic = outcome.identifier_statistic;
  record.information_loss = outcome.binning.multi_normalized_loss;
  record.copies = outcome.embed.copies;
  record.wmd_size = outcome.embed.wmd_size;
  record.epsilon_used = outcome.epsilon_used;
  record.rows_emitted = outcome.watermarked.num_rows();
  record.rows_suppressed = outcome.binning.suppressed_rows + epoch_dropped;
  live_ = SnapshotEpoch(outcome.binning, bin_counts, record);
  epochs_.push_back(std::move(record));
  rows_emitted_ += outcome.watermarked.num_rows();
  rows_suppressed_ += outcome.binning.suppressed_rows + epoch_dropped;

  buffer_ = Table(*schema_);
  buffer_view_ = EncodedView();
  rows_since_epoch_ = 0;

  // Epoch boundary: seal + fsync is the durability barrier. The epoch
  // is already committed in memory and its write-ahead records suffice
  // for replay, so a failed seal degrades durability without corrupting
  // anything — record the first such error instead of failing the
  // flush (which would discard the epoch's output).
  if (journal_ != nullptr) {
    const Status seal =
        PRIVMARK_FAILPOINT("session.seal")
            ? Status::IOError("failpoint 'session.seal' triggered")
            : journal_->AppendEpochSealed(epochs_.back());
    if (!seal.ok() && journal_status_.ok()) journal_status_ = seal;
  }
  return epoch;
}

Result<IngestResult> ProtectionSession::EmitFrozen(const Table& batch,
                                                   const EncodedView& view) {
  const LiveEpoch& live = *live_;
  IngestResult out;
  out.epoch = live.index;

  // Keep only rows of established bins; everything else cannot meet k
  // under the frozen generalization.
  std::vector<char> keep(batch.num_rows(), 1);
  std::vector<NodeId> key(qi_columns_.size());
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t c = 0; c < qi_columns_.size(); ++c) {
      PRIVMARK_ASSIGN_OR_RETURN(
          NodeId node, live.ultimate[c].NodeForLeaf(view.column(c).id(r)));
      if (config_.binning.enforce_joint) {
        key[c] = node;
      } else if (!live.established[c][node]) {
        keep[r] = 0;
        break;
      }
    }
    if (keep[r] && config_.binning.enforce_joint &&
        live.joint_established.find(key) == live.joint_established.end()) {
      keep[r] = 0;
    }
  }

  Table kept(*schema_);
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    if (!keep[r]) continue;
    PRIVMARK_RETURN_NOT_OK(kept.AppendRow(batch.row(r)));
  }
  out.rows_suppressed = batch.num_rows() - kept.num_rows();
  PRIVMARK_ASSIGN_OR_RETURN(EncodedView kept_view, view.Filtered(keep));

  PRIVMARK_ASSIGN_OR_RETURN(
      out.emitted,
      MaterializeProtected(kept, qi_columns_, ident_column_, live.ultimate,
                           kept_view, cipher_, pool()));

  // Embed the frozen epoch's mark with its recorded copy count, so the
  // batch's slots land in the same wmd positions detection will read.
  HierarchicalWatermarker watermarker = MakeWatermarker(live.ultimate);
  PRIVMARK_ASSIGN_OR_RETURN(
      out.embed, watermarker.Embed(&out.emitted, live.mark, live.copies));

  out.rows_emitted = out.emitted.num_rows();
  epochs_[live.index].rows_emitted += out.rows_emitted;
  epochs_[live.index].rows_suppressed += out.rows_suppressed;
  rows_emitted_ += out.rows_emitted;
  rows_suppressed_ += out.rows_suppressed;
  return out;
}

Result<RecoveredSession> ProtectionSession::Recover(
    const std::string& journal_path, UsageMetrics metrics,
    FrameworkConfig config, SessionConfig session_config,
    bool resume_journaling) {
  PRIVMARK_ASSIGN_OR_RETURN(JournalContents contents,
                            SessionJournal::ReadAll(journal_path));
  RecoveredSession out;
  out.valid_bytes = contents.valid_bytes;
  out.tail_truncated = contents.tail_truncated;

  auto session = std::make_unique<ProtectionSession>(std::move(metrics),
                                                     config, session_config);
  auto append_emitted = [&out](const Table& emitted) -> Status {
    if (emitted.num_rows() == 0) return Status::OK();
    if (out.emitted.schema().num_columns() == 0) {
      out.emitted = Table(emitted.schema());
    }
    return out.emitted.Append(emitted);
  };

  std::optional<Schema> schema;
  bool saw_config = false;
  for (size_t i = 0; i < contents.records.size(); ++i) {
    const JournalRecord& record = contents.records[i];
    switch (record.type) {
      case JournalRecordType::kConfig: {
        if (i != 0) {
          return Status::InvalidArgument(
              "journal: config record is not the first record");
        }
        PRIVMARK_RETURN_NOT_OK(SessionJournal::CheckConfig(
            record.payload, config, session_config));
        saw_config = true;
        break;
      }
      case JournalRecordType::kKeyId: {
        if (record.payload != config.key_id) {
          return Status::InvalidArgument(
              "journal: recorded key_id '" + record.payload +
              "' does not match the supplied key_id '" + config.key_id + "'");
        }
        break;
      }
      case JournalRecordType::kSchema: {
        if (schema.has_value()) {
          // A crash between the schema append and its batch append can
          // legitimately duplicate the schema; only a *different* one
          // is corruption.
          if (record.payload != SessionJournal::EncodeSchema(*schema)) {
            return Status::InvalidArgument(
                "journal: conflicting schema records");
          }
          break;
        }
        PRIVMARK_ASSIGN_OR_RETURN(Schema decoded,
                                  SessionJournal::DecodeSchema(record.payload));
        schema = std::move(decoded);
        break;
      }
      case JournalRecordType::kBatch: {
        if (!schema.has_value()) {
          return Status::InvalidArgument(
              "journal: batch record before any schema record");
        }
        PRIVMARK_ASSIGN_OR_RETURN(
            Table batch, SessionJournal::DecodeBatch(record.payload, *schema));
        Result<IngestResult> result = session->Ingest(std::move(batch));
        ++out.batches_applied;
        // A non-OK Ingest failed identically (and statelessly) in the
        // original run: the journal is write-ahead, so the record's
        // presence only proves the attempt. Replay moves on.
        if (result.ok()) {
          PRIVMARK_RETURN_NOT_OK(append_emitted(result->emitted));
        }
        break;
      }
      case JournalRecordType::kFlushMarker: {
        Result<EpochOutput> result = session->Flush();
        if (result.ok()) {
          PRIVMARK_RETURN_NOT_OK(append_emitted(result->outcome.watermarked));
        }
        break;
      }
      case JournalRecordType::kEpochSealed: {
        PRIVMARK_ASSIGN_OR_RETURN(
            EpochSeal seal, SessionJournal::DecodeEpochSealed(record.payload));
        if (session->epochs().size() != seal.epoch + 1) {
          return Status::InvalidArgument(
              "journal: seal for epoch " + std::to_string(seal.epoch) +
              " but replay sealed " +
              std::to_string(session->epochs().size()) + " epoch(s)");
        }
        const EpochRecord& replayed = session->epochs().back();
        if (replayed.rows_emitted != seal.rows_emitted ||
            replayed.rows_suppressed != seal.rows_suppressed) {
          return Status::InvalidArgument(
              "journal: epoch " + std::to_string(seal.epoch) +
              " seal records " + std::to_string(seal.rows_emitted) +
              " emitted / " + std::to_string(seal.rows_suppressed) +
              " suppressed rows, but replay produced " +
              std::to_string(replayed.rows_emitted) + " / " +
              std::to_string(replayed.rows_suppressed) +
              " — wrong key, passphrase, or metrics?");
        }
        ++out.epochs_sealed;
        break;
      }
    }
  }
  if (!saw_config && !contents.records.empty()) {
    return Status::InvalidArgument(
        "journal: first record is not a config record");
  }

  if (resume_journaling) {
    PRIVMARK_ASSIGN_OR_RETURN(
        std::unique_ptr<SessionJournal> journal,
        SessionJournal::Resume(journal_path, contents.valid_bytes));
    // An empty journal (crash between creation and the config append)
    // resumes as a fresh one so the config fingerprint gets written.
    PRIVMARK_RETURN_NOT_OK(session->AttachJournal(
        std::move(journal), /*fresh=*/contents.records.empty()));
    session->schema_journaled_ = schema.has_value();
  }
  out.session = std::move(session);
  return out;
}

HierarchicalWatermarker ProtectionSession::MakeWatermarker(
    const std::vector<GeneralizationSet>& ultimate) const {
  return HierarchicalWatermarker(qi_columns_, ident_column_, metrics_.maximal,
                                 ultimate, config_.key, config_.watermark);
}

HierarchicalWatermarker ProtectionSession::MakeEpochWatermarker(
    const EpochRecord& rec) const {
  return MakeWatermarker(rec.ultimate);
}

Result<std::vector<Table>> ProtectionSession::SliceByEpoch(
    const Table& concatenated, const char* caller) const {
  size_t total = 0;
  for (const EpochRecord& rec : epochs_) total += rec.rows_emitted;
  if (concatenated.num_rows() != total) {
    return Status::InvalidArgument(
        std::string(caller) + ": table has " +
        std::to_string(concatenated.num_rows()) + " rows, session emitted " +
        std::to_string(total));
  }
  std::vector<Table> slices;
  slices.reserve(epochs_.size());
  size_t offset = 0;
  for (const EpochRecord& rec : epochs_) {
    slices.push_back(concatenated.Slice(offset, offset + rec.rows_emitted));
    offset += rec.rows_emitted;
  }
  return slices;
}

Result<std::vector<DetectReport>> ProtectionSession::DetectAcrossEpochs(
    const Table& concatenated) const {
  PRIVMARK_ASSIGN_OR_RETURN(std::vector<Table> slices,
                            SliceByEpoch(concatenated, "DetectAcrossEpochs"));
  std::vector<DetectReport> reports;
  reports.reserve(epochs_.size());
  for (size_t e = 0; e < epochs_.size(); ++e) {
    const EpochRecord& rec = epochs_[e];
    PRIVMARK_ASSIGN_OR_RETURN(
        DetectReport report,
        MakeEpochWatermarker(rec).Detect(slices[e], rec.mark.size(),
                                         rec.wmd_size));
    reports.push_back(std::move(report));
  }
  return reports;
}

Result<std::vector<FingerprintReport>> ProtectionSession::
    FingerprintAcrossEpochs(const Table& concatenated,
                            const KeyRegistry& registry,
                            const FingerprintShardSink& sink) const {
  PRIVMARK_ASSIGN_OR_RETURN(
      std::vector<Table> slices,
      SliceByEpoch(concatenated, "FingerprintAcrossEpochs"));
  std::vector<FingerprintReport> reports;
  reports.reserve(epochs_.size());
  for (size_t e = 0; e < epochs_.size(); ++e) {
    const EpochRecord& rec = epochs_[e];
    FingerprintConfig scan;
    scan.wm_size = rec.mark.size();
    scan.wmd_size = rec.wmd_size;
    scan.expected_mark = rec.mark;
    PRIVMARK_ASSIGN_OR_RETURN(
        FingerprintReport report,
        ScanForFingerprints(MakeEpochWatermarker(rec), slices[e], registry,
                            scan, sink, /*epoch=*/e));
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace privmark
