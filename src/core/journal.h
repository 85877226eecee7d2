// Write-ahead epoch journal for protection sessions.
//
// A SessionJournal makes a ProtectionSession durable: every Ingest batch
// is appended (write-ahead, before the session applies it), every
// explicit Flush leaves a marker, and every sealed epoch leaves a seal
// record followed by an fsync — the epoch boundary is the durability
// barrier. Because the session pipeline is deterministic (parallel
// output is byte-identical to serial for any worker count), replaying
// the journal through a fresh session reproduces the crashed session's
// state exactly: ProtectionSession::Recover (core/session.h) rebuilds a
// session whose subsequent emissions are byte-identical to those of an
// uncrashed run.
//
// On-disk format: an 8-byte magic ("PRVMWAL1") followed by records
//
//   [u32 payload length][u32 crc32][u8 type][payload bytes]
//
// with little-endian integers and the CRC taken over type + payload.
// Readers are torn-tail tolerant: a short, length-corrupt, or
// CRC-mismatching record ends the valid prefix (a crash mid-append
// loses at most the record being written), and writers roll a failed
// append back to the previous record boundary so an IO error never
// leaves a torn record behind on a live journal.
//
// Secrets (the watermark key, the encryption passphrase) are never
// written; recovery requires the caller to supply the same
// configuration, and a fingerprint of its non-secret fields is recorded
// so obvious mismatches fail loudly instead of replaying garbage.

#ifndef PRIVMARK_CORE_JOURNAL_H_
#define PRIVMARK_CORE_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/session.h"
#include "relation/schema.h"
#include "relation/table.h"

namespace privmark {

/// \brief CRC-32 (IEEE, reflected) over a byte range — the record
/// checksum; exposed for tests that hand-corrupt journals.
uint32_t JournalCrc32(const void* data, size_t size);

/// \brief Record kinds, in the order a well-formed journal emits them.
enum class JournalRecordType : uint8_t {
  /// Non-secret config fingerprint (first record of every journal).
  kConfig = 1,
  /// The config's key_id, when non-empty (recipient bookkeeping).
  kKeyId = 2,
  /// The session schema, written once before the first batch.
  kSchema = 3,
  /// One Ingest batch, as the lossless binary cell codec of
  /// EncodeBatch/DecodeBatch (write-ahead of the apply).
  kBatch = 4,
  /// An explicit Flush() was requested (replay re-executes it).
  kFlushMarker = 5,
  /// An epoch sealed; payload holds the epoch index and row counters
  /// for replay validation. Followed by fsync: the durability barrier.
  kEpochSealed = 6,
};

/// \brief One decoded record.
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kConfig;
  std::string payload;
};

/// \brief Everything a read pass found.
struct JournalContents {
  std::vector<JournalRecord> records;
  /// Byte length of the valid prefix (magic + intact records).
  size_t valid_bytes = 0;
  /// True when bytes past the valid prefix were ignored (torn tail).
  bool tail_truncated = false;
};

/// \brief Decoded kEpochSealed payload.
struct EpochSeal {
  size_t epoch = 0;
  size_t rows_emitted = 0;
  size_t rows_suppressed = 0;
};

/// \brief Append-side handle on one session's journal file.
class SessionJournal {
 public:
  /// Refuses to clobber an existing file (AlreadyExists): recovery, not
  /// truncation, is the only valid response to finding a journal.
  static Result<std::unique_ptr<SessionJournal>> Create(
      const std::string& path);

  /// Reopens an existing journal for appending after recovery,
  /// truncating it to `valid_bytes` (the valid prefix ReadAll reported)
  /// so a torn tail never precedes fresh records.
  static Result<std::unique_ptr<SessionJournal>> Resume(
      const std::string& path, size_t valid_bytes);

  ~SessionJournal();
  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  Status AppendConfig(const FrameworkConfig& config,
                      const SessionConfig& session);
  Status AppendKeyId(const std::string& key_id);
  Status AppendSchema(const Schema& schema);
  Status AppendBatch(const Table& batch);
  Status AppendFlushMarker();
  /// Appends the seal and syncs — the epoch-boundary durability barrier.
  Status AppendEpochSealed(const EpochRecord& record);
  Status Sync();

  const std::string& path() const { return path_; }
  /// True once a failed append could not be rolled back; every later
  /// append refuses, so a structurally broken tail is never extended.
  bool broken() const { return broken_; }

  /// \brief Reads the valid prefix of a journal file (torn-tail
  /// tolerant; see the file comment). IOError when the file cannot be
  /// read, InvalidArgument when it does not start with the magic.
  static Result<JournalContents> ReadAll(const std::string& path);

  // Payload codecs, used by ProtectionSession::Recover and by tests.
  static std::string EncodeConfig(const FrameworkConfig& config,
                                  const SessionConfig& session);
  /// OK iff `payload` is the fingerprint EncodeConfig would produce for
  /// this config; names the first differing field otherwise.
  static Status CheckConfig(const std::string& payload,
                            const FrameworkConfig& config,
                            const SessionConfig& session);
  static std::string EncodeSchema(const Schema& schema);
  static Result<Schema> DecodeSchema(const std::string& payload);
  /// Lossless batch codec: cells are type-tagged binary
  /// ([rows][cols], then per cell a ValueType tag + payload — int64 and
  /// double as their 64-bit little-endian patterns, strings
  /// length-prefixed). Replay therefore rebuilds the exact ingested
  /// values: doubles bit for bit, Null distinct from the empty string,
  /// strings with any bytes (NUL included). CSV would round-trip none
  /// of those, and a lossy replay silently diverges from the crashed
  /// session.
  static std::string EncodeBatch(const Table& batch);
  /// InvalidArgument on truncation, unknown cell tags, trailing bytes,
  /// or a column count differing from `schema`'s.
  static Result<Table> DecodeBatch(const std::string& payload,
                                   const Schema& schema);
  /// Seal payload: `epoch`, `rows_emitted` and `rows_suppressed` as
  /// common/kv_text.h `key = value` lines.
  static std::string EncodeEpochSealed(const EpochSeal& seal);
  static Result<EpochSeal> DecodeEpochSealed(const std::string& payload);

  /// Records larger than this end the valid prefix on read and are
  /// refused on write (a corrupt length field must not drive a huge
  /// allocation).
  static constexpr size_t kMaxRecordBytes = size_t{256} * 1024 * 1024;

 private:
  SessionJournal(std::string path, int fd);

  Status AppendRecord(JournalRecordType type, const std::string& payload);

  std::string path_;
  int fd_ = -1;
  bool broken_ = false;
};

}  // namespace privmark

#endif  // PRIVMARK_CORE_JOURNAL_H_
