// Incremental protection sessions: batch/streaming ingest over the
// paper's one-shot framework (Sec. 3, Fig. 2).
//
// The paper protects a frozen relation in one pass, but outsourced
// medical data arrives as a stream of admissions. A ProtectionSession is
// the long-lived form of ProtectionFramework::Protect: it accepts row
// batches (Ingest), encodes each batch once and buffers the rows with
// their encoded view, and emits protected output in *epochs*, each with
// its own generalization choice and watermark embed. A flush counts its
// buffered view once (binning/count_state.h), so its counts equal
// one-shot counts over the same rows byte for byte.
//
// Lifecycle. Batches buffer until the first Flush(), which selects
// generalizations from everything buffered, materializes + watermarks
// the buffer as epoch 0, and freezes the epoch's generalization. After
// that the re-binning policy governs:
//
//  - kFreezeBins: every later batch is emitted immediately under epoch
//    0's generalization. Rows falling in bins that had not reached
//    k + epsilon occupancy at flush time ("unestablished" bins) are
//    suppressed, so the concatenation of everything emitted stays
//    k-anonymous. Lowest latency; one epoch, one watermark.
//  - kRebinOnDrift: later batches buffer again; once the rows
//    buffered since the last flush reach drift_threshold times the rows
//    ingested at that flush (a row count is the drift trigger), the
//    session re-selects generalizations from the buffered window's
//    counts and emits it as a new epoch — with its own mark (derived
//    from the epoch's own identifiers), its own embed, and enough
//    epoch-local suppression that the epoch's emitted table is
//    k-anonymous on its own.
//    Detection runs per epoch (DetectAcrossEpochs).
//
// Degenerate case, proven by the streaming-equivalence suite: Ingest the
// whole table once (or in any batch split) and Flush — the output is
// byte-identical to ProtectionFramework::Protect, which is itself
// implemented as exactly that single-batch session.
//
// The session owns one ThreadPool and threads it through every stage of
// every batch (BinningConfig::pool / WatermarkOptions::pool), so a
// steady stream pays thread spawn/join once per session, not per batch.

#ifndef PRIVMARK_CORE_SESSION_H_
#define PRIVMARK_CORE_SESSION_H_

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/parallel.h"
#include "core/framework.h"
#include "crypto/aes128.h"
#include "hierarchy/encoded_view.h"
#include "watermark/fingerprint.h"

namespace privmark {

class SessionJournal;  // core/journal.h
class ProtectionSession;

/// \brief What to do when later batches no longer fit the generalization
/// chosen at the first flush.
enum class RebinPolicy {
  /// Keep epoch 0's generalization forever; suppress rows of bins that
  /// were not established (>= k + epsilon rows) when it was chosen.
  kFreezeBins,
  /// Buffer arriving batches and open a new epoch — generalization
  /// re-selected from the buffered window, fresh mark and embed — when
  /// enough rows have arrived since the last flush (drift_threshold).
  kRebinOnDrift,
};

/// \brief Session-level configuration (the framework/binning/watermark
/// knobs live in FrameworkConfig).
struct SessionConfig {
  RebinPolicy policy = RebinPolicy::kFreezeBins;
  /// kRebinOnDrift: re-bin once rows buffered since the last flush reach
  /// this fraction of all rows accumulated when the live epoch was
  /// flushed (0.5 = re-bin when the stream has grown the data by half).
  /// Anchoring on the accumulated total, not the window, keeps re-bin
  /// windows growing with the stream — a logarithmic epoch cadence —
  /// instead of decaying geometrically. Values <= 0 re-bin every batch.
  double drift_threshold = 0.5;
};

/// \brief Detection-side record of one emitted epoch: everything the data
/// owner needs (besides the secret key) to detect the epoch's mark later.
struct EpochRecord {
  size_t epoch = 0;
  /// The epoch's ultimate generalization (what its labels come from).
  std::vector<GeneralizationSet> ultimate;
  /// The epoch's mark and the statistic it derives from (Sec. 5.4).
  BitVector mark;
  double identifier_statistic = 0.0;
  /// The binning's Eq. (3) normalized information loss over the flushed
  /// rows (BinningOutcome::multi_normalized_loss).
  double information_loss = 0.0;
  size_t copies = 0;
  size_t wmd_size = 0;
  size_t epsilon_used = 0;
  /// Rows emitted under this epoch; grows after the flush under
  /// kFreezeBins (later batches join epoch 0's output).
  size_t rows_emitted = 0;
  /// Rows suppressed while emitting under this epoch (engine suppression
  /// at flush + unestablished-bin / epoch-k suppression).
  size_t rows_suppressed = 0;
};

/// \brief Per-Ingest outcome.
struct IngestResult {
  /// Rows this call emitted, protected (binned + watermarked): a frozen
  /// epoch's per-batch output, or — when the call closed an epoch — the
  /// epoch's whole table. Empty while the session buffers.
  Table emitted;
  /// Embed statistics for `emitted` (zero-valued when nothing embedded).
  EmbedReport embed;
  /// Epoch the emitted rows belong to (the next epoch's index while
  /// buffering).
  size_t epoch = 0;
  /// True iff this call closed an epoch (kRebinOnDrift auto-flush).
  bool flushed = false;
  size_t rows_emitted = 0;
  size_t rows_suppressed = 0;
  /// Rows currently buffered toward the next flush, session-wide.
  size_t rows_buffered = 0;
};

/// \brief One Flush()'s full output; `outcome` matches what a one-shot
/// Protect over the flushed rows would produce (and is bit-identical to
/// it for the first flush).
struct EpochOutput {
  size_t epoch = 0;
  ProtectionOutcome outcome;
};

/// \brief The thread ask implied by a config's num_threads knobs: 0
/// ("hardware") when either agent asks for hardware concurrency,
/// otherwise the larger agent ask. One definition shared by the
/// session's own pool sizing and the service front-end's default
/// request width, so served widths cannot drift from session
/// semantics.
size_t SessionThreadAsk(const FrameworkConfig& config);

/// \brief What ProtectionSession::Recover rebuilt from a journal.
struct RecoveredSession {
  /// The replayed session, ready for further Ingest/Flush calls.
  std::unique_ptr<ProtectionSession> session;
  /// Concatenation, in order, of every row the replay emitted — what
  /// the crashed process had emitted (or would have, had it applied
  /// every journaled operation before dying).
  Table emitted;
  size_t batches_applied = 0;
  /// kEpochSealed records observed (each was validated against the
  /// replayed state).
  size_t epochs_sealed = 0;
  /// Length of the journal's valid prefix, in bytes.
  size_t valid_bytes = 0;
  /// True when a torn tail past the valid prefix was discarded.
  bool tail_truncated = false;
};

/// \brief The incremental protection session.
class ProtectionSession {
 public:
  /// \param metrics usage metrics for the stream's quasi-identifying
  ///        columns, in schema order (trees must outlive the session)
  /// \param config the one-shot framework configuration; its binning /
  ///        watermark `pool` members may inject a caller-owned pool,
  ///        otherwise the session builds one from the num_threads knobs
  ///        and reuses it across all batches.
  ProtectionSession(UsageMetrics metrics, FrameworkConfig config,
                    SessionConfig session = SessionConfig());
  ~ProtectionSession();

  /// \brief Makes the session durable: every subsequent Ingest appends
  /// its batch write-ahead, every Flush leaves a marker, and every
  /// sealed epoch is fsync'd (core/journal.h). With `fresh` (a journal
  /// just created for this session) the config fingerprint and key id
  /// are appended immediately; a fresh journal must be attached before
  /// the first Ingest, or earlier batches would be unrecoverable.
  /// `fresh = false` resumes a journal whose prefix already holds the
  /// session's history (the Recover path).
  Status AttachJournal(std::unique_ptr<SessionJournal> journal,
                       bool fresh = true);
  SessionJournal* journal() const { return journal_.get(); }

  /// \brief First post-commit journal degradation, if any: an epoch
  /// sealed correctly in memory but its seal record or fsync failed, so
  /// the epoch-boundary durability barrier is weaker than configured.
  /// (Write-ahead failures are surfaced by Ingest/Flush directly and
  /// never recorded here.)
  const Status& journal_status() const { return journal_status_; }

  /// \brief Rebuilds a session from a write-ahead journal by replaying
  /// its records through a fresh session. Determinism of the pipeline
  /// makes the replayed state — buffer, live epoch, emitted bytes —
  /// identical to the crashed session's, so subsequent
  /// emissions are byte-identical to an uncrashed run. The caller
  /// supplies the same metrics/config/session options as the original
  /// run (secrets are never journaled); the journal's non-secret config
  /// fingerprint is validated against them. With `resume_journaling`
  /// the journal is truncated to its valid prefix and re-attached, so
  /// the recovered session keeps journaling where the original stopped.
  static Result<RecoveredSession> Recover(
      const std::string& journal_path, UsageMetrics metrics,
      FrameworkConfig config, SessionConfig session = SessionConfig(),
      bool resume_journaling = true);

  /// \brief Feeds one batch of original (cleartext) rows. The first batch
  /// fixes the session's schema; every later batch must match it. The
  /// rvalue form moves a buffered batch's rows into the buffer instead
  /// of copying them.
  Result<IngestResult> Ingest(const Table& batch) {
    return Ingest(batch, nullptr);
  }
  Result<IngestResult> Ingest(Table&& batch) { return Ingest(batch, &batch); }

  /// \brief Forces an epoch boundary: selects generalizations from the
  /// buffered rows' counts, materializes + watermarks those rows, and
  /// freezes the new epoch's generalization. InvalidArgument when nothing
  /// was ever ingested, or when an epoch is live and no rows are buffered
  /// (under kFreezeBins all post-freeze rows emit through Ingest).
  Result<EpochOutput> Flush();

  /// \brief True once a flush happened (a generalization is live).
  bool frozen() const { return live_.has_value(); }

  /// \brief Detection-side metadata of every emitted epoch, in order.
  const std::vector<EpochRecord>& epochs() const { return epochs_; }

  /// \brief Runs detection over the concatenation of everything the
  /// session emitted (epoch outputs in order): splits `concatenated` by
  /// the recorded per-epoch row counts and detects each epoch's mark with
  /// its own generalization and wmd size. InvalidArgument if the row
  /// count does not equal the total emitted.
  Result<std::vector<DetectReport>> DetectAcrossEpochs(
      const Table& concatenated) const;

  /// \brief Fingerprint counterpart of DetectAcrossEpochs: scans each
  /// epoch's slice of `concatenated` against the whole registry, using
  /// the epoch's own generalization, recorded mark (as the expected
  /// mark), and wmd size. One report per epoch, registry scan order.
  /// With a `sink`, per-key-shard verdicts are also delivered as each
  /// epoch's scan completes them, stamped with the epoch index, in
  /// (epoch, shard) order, before the call returns; the reports do not
  /// depend on it (see ScanIndexForFingerprints).
  Result<std::vector<FingerprintReport>> FingerprintAcrossEpochs(
      const Table& concatenated, const KeyRegistry& registry,
      const FingerprintShardSink& sink = nullptr) const;

  /// \brief The watermarker for one epoch's output (detection tooling).
  HierarchicalWatermarker MakeEpochWatermarker(const EpochRecord& rec) const;

  size_t rows_ingested() const { return rows_ingested_; }
  size_t rows_buffered() const { return buffer_.num_rows(); }
  size_t rows_emitted() const { return rows_emitted_; }
  size_t rows_suppressed() const { return rows_suppressed_; }

  /// \brief The pool every stage of this session runs on; nullptr means
  /// serial (num_threads = 1 and no injected pool).
  ThreadPool* pool() const { return config_.binning.pool; }

  const FrameworkConfig& config() const { return config_; }
  const SessionConfig& session_config() const { return session_; }
  const UsageMetrics& metrics() const { return metrics_; }
  /// \brief The stream's schema, fixed by its first batch (empty before).
  const std::optional<Schema>& schema() const { return schema_; }

 private:
  // What the most recent flush froze beyond its EpochRecord, which is
  // epochs_.back().
  struct LiveEpoch {
    /// Rows accumulated session-wide when this epoch flushed (the drift
    /// denominator).
    size_t basis_rows = 0;
    /// Per-attribute mode: per column, by NodeId, whether the ultimate
    /// node's bin reached k + epsilon_used rows in the epoch's emitted
    /// output.
    std::vector<std::vector<char>> established;
    /// Joint mode: established joint bin keys (ultimate NodeIds, in
    /// qi-column order).
    std::unordered_set<std::vector<NodeId>, NodeVectorHash> joint_established;
  };

  Status InitSchema(const Schema& schema);
  // `owned` is null, or `batch` itself when the caller gave it up.
  Result<IngestResult> Ingest(const Table& batch, Table* owned);
  Result<EpochOutput> FlushBuffer();
  Result<IngestResult> EmitFrozen(const Table& batch, const EncodedView& view);
  // `bin_counts` is BinHistograms(binning): per column, rows per bin.
  LiveEpoch SnapshotEpoch(const BinningOutcome& binning,
                          const std::vector<std::vector<size_t>>& bin_counts,
                          size_t effective_k) const;
  HierarchicalWatermarker MakeWatermarker(
      const std::vector<GeneralizationSet>& ultimate) const;
  // Splits `concatenated` into one slice per epoch by the recorded
  // emitted row counts; InvalidArgument (prefixed with `caller`) when
  // its row count is not the session's total.
  Result<std::vector<Table>> SliceByEpoch(const Table& concatenated,
                                          const char* caller) const;

  UsageMetrics metrics_;
  FrameworkConfig config_;
  SessionConfig session_;
  std::unique_ptr<ThreadPool> pool_;  // owned; config_ points at it
  Aes128 cipher_;

  std::unique_ptr<SessionJournal> journal_;
  bool schema_journaled_ = false;
  Status journal_status_;

  std::optional<Schema> schema_;
  size_t ident_column_ = 0;
  std::vector<size_t> qi_columns_;
  std::vector<const DomainHierarchy*> trees_;

  // The current flush window: before the first flush it is the whole
  // ingested history, which is what makes the first flush bit-identical
  // to one-shot Protect. Emptied at every flush (drift epochs select
  // from their own window); the flush counts buffer_view_ itself.
  Table buffer_;            // rows pending the next flush
  EncodedView buffer_view_; // encoded in lock step with buffer_
  size_t rows_since_epoch_ = 0;  // the kRebinOnDrift trigger

  std::optional<LiveEpoch> live_;
  std::vector<EpochRecord> epochs_;

  size_t rows_ingested_ = 0;
  size_t rows_emitted_ = 0;
  size_t rows_suppressed_ = 0;
};

}  // namespace privmark

#endif  // PRIVMARK_CORE_SESSION_H_
