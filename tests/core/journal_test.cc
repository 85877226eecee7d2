// Unit tests for the write-ahead session journal (core/journal.h):
// record round-trips, torn-tail tolerance, payload codecs, and
// journal-backed session recovery (ProtectionSession::Recover). The
// crash-under-failpoint acceptance suite lives in
// tests/integration/crash_recovery_test.cc.

#include "core/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/session.h"
#include "datagen/medical_data.h"
#include "relation/csv.h"
#include "testing/temp_dir.h"

namespace privmark {
namespace {

constexpr size_t kRows = 800;
constexpr uint64_t kSeed = 77;

struct Env {
  std::unique_ptr<MedicalDataset> dataset;
  UsageMetrics metrics;
  FrameworkConfig config;
};

Env MakeEnv() {
  Env env;
  MedicalDataSpec spec;
  spec.num_rows = kRows;
  spec.seed = kSeed;
  env.dataset = std::make_unique<MedicalDataset>(
      std::move(GenerateMedicalDataset(spec)).ValueOrDie());
  env.metrics =
      MetricsFromDepthCuts(env.dataset->trees(), {2, 1, 2, 1, 1}).ValueOrDie();
  env.config.binning.k = 10;
  env.config.binning.enforce_joint = false;
  env.config.key = {"journal-k1", "journal-k2", /*eta=*/10};
  env.config.key_id = "journal-owner";
  return env;
}

// A fresh path under the test's own temp dir; removes any earlier file of
// the same name (SessionJournal::Create refuses to clobber).
std::string FreshPath(const std::string& name) {
  const std::string path = TestTempPath(name);
  std::remove(path.c_str());
  return path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(file));
  return std::string(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(file));
}

// Appends `rows` to `*all` (adopting the schema on first use) so emitted
// output accumulates as one table, comparable byte-for-byte via CSV.
void AppendAll(Table* all, const Table& rows) {
  if (rows.num_rows() == 0) return;
  if (all->schema().num_columns() == 0) *all = Table(rows.schema());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    ASSERT_TRUE(all->AppendRow(rows.row(r)).ok());
  }
}

TEST(SessionJournalTest, RecordsRoundTrip) {
  Env env = MakeEnv();
  const std::string path = FreshPath("journal_roundtrip.wal");
  auto journal = SessionJournal::Create(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_TRUE((*journal)->AppendConfig(env.config, SessionConfig()).ok());
  ASSERT_TRUE((*journal)->AppendKeyId("journal-owner").ok());
  ASSERT_TRUE(
      (*journal)->AppendSchema(env.dataset->table.schema()).ok());
  ASSERT_TRUE((*journal)->AppendBatch(env.dataset->table.Slice(0, 50)).ok());
  ASSERT_TRUE((*journal)->AppendFlushMarker().ok());
  EpochRecord epoch;
  epoch.epoch = 0;
  epoch.rows_emitted = 47;
  epoch.rows_suppressed = 3;
  ASSERT_TRUE((*journal)->AppendEpochSealed(epoch).ok());

  const auto contents = SessionJournal::ReadAll(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_EQ(contents->records.size(), 6u);
  EXPECT_FALSE(contents->tail_truncated);
  EXPECT_EQ(contents->records[0].type, JournalRecordType::kConfig);
  EXPECT_EQ(contents->records[1].type, JournalRecordType::kKeyId);
  EXPECT_EQ(contents->records[1].payload, "journal-owner");
  EXPECT_EQ(contents->records[2].type, JournalRecordType::kSchema);
  EXPECT_EQ(contents->records[3].type, JournalRecordType::kBatch);
  EXPECT_EQ(contents->records[3].payload,
            SessionJournal::EncodeBatch(env.dataset->table.Slice(0, 50)));
  EXPECT_EQ(contents->records[4].type, JournalRecordType::kFlushMarker);
  EXPECT_TRUE(contents->records[4].payload.empty());
  EXPECT_EQ(contents->records[5].type, JournalRecordType::kEpochSealed);
  const auto seal =
      SessionJournal::DecodeEpochSealed(contents->records[5].payload);
  ASSERT_TRUE(seal.ok());
  EXPECT_EQ(seal->epoch, 0u);
  EXPECT_EQ(seal->rows_emitted, 47u);
  EXPECT_EQ(seal->rows_suppressed, 3u);
}

TEST(SessionJournalTest, CreateRefusesToClobber) {
  const std::string path = FreshPath("journal_clobber.wal");
  ASSERT_TRUE(SessionJournal::Create(path).ok());
  const auto second = SessionJournal::Create(path);
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
}

TEST(SessionJournalTest, RejectsForeignFiles) {
  const std::string path = FreshPath("journal_foreign.wal");
  WriteFileBytes(path, "not a journal at all");
  EXPECT_EQ(SessionJournal::ReadAll(path).status().code(),
            StatusCode::kInvalidArgument);
  WriteFileBytes(path, "PRVM");  // shorter than the magic
  EXPECT_EQ(SessionJournal::ReadAll(path).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SessionJournal::ReadAll(path + ".missing").status().code(),
            StatusCode::kIOError);
}

TEST(SessionJournalTest, TornTailEndsTheValidPrefix) {
  Env env = MakeEnv();
  const std::string path = FreshPath("journal_torn.wal");
  {
    auto journal = SessionJournal::Create(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendConfig(env.config, SessionConfig()).ok());
    ASSERT_TRUE((*journal)->AppendBatch(env.dataset->table.Slice(0, 20)).ok());
  }
  const std::string bytes = ReadFileBytes(path);
  const auto intact = SessionJournal::ReadAll(path);
  ASSERT_TRUE(intact.ok());
  ASSERT_EQ(intact->records.size(), 2u);
  ASSERT_EQ(intact->valid_bytes, bytes.size());
  const size_t first_record_end =
      8 + 9 + intact->records[0].payload.size();

  // Truncate at every interesting cut inside the second record: header
  // cut short, payload cut short, one byte shy of complete.
  for (const size_t cut :
       {first_record_end + 3, first_record_end + 9 + 5, bytes.size() - 1}) {
    WriteFileBytes(path, bytes.substr(0, cut));
    const auto contents = SessionJournal::ReadAll(path);
    ASSERT_TRUE(contents.ok()) << "cut at " << cut;
    EXPECT_EQ(contents->records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(contents->valid_bytes, first_record_end) << "cut at " << cut;
    EXPECT_TRUE(contents->tail_truncated) << "cut at " << cut;
  }
}

TEST(SessionJournalTest, CorruptCrcEndsTheValidPrefixMidFile) {
  Env env = MakeEnv();
  const std::string path = FreshPath("journal_crc.wal");
  {
    auto journal = SessionJournal::Create(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendConfig(env.config, SessionConfig()).ok());
    ASSERT_TRUE((*journal)->AppendBatch(env.dataset->table.Slice(0, 20)).ok());
    ASSERT_TRUE((*journal)->AppendFlushMarker().ok());
  }
  std::string bytes = ReadFileBytes(path);
  const auto intact = SessionJournal::ReadAll(path);
  ASSERT_TRUE(intact.ok());
  ASSERT_EQ(intact->records.size(), 3u);
  // Flip one payload byte of the *second* record: the first record must
  // survive, the corrupt one and everything after must be discarded.
  const size_t second_payload =
      8 + 9 + intact->records[0].payload.size() + 9 + 10;
  bytes[second_payload] = static_cast<char>(bytes[second_payload] ^ 0x40);
  WriteFileBytes(path, bytes);
  const auto contents = SessionJournal::ReadAll(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records.size(), 1u);
  EXPECT_TRUE(contents->tail_truncated);
  EXPECT_EQ(contents->records[0].type, JournalRecordType::kConfig);
}

// The reflected IEEE CRC-32 one byte at a time: the definition the
// journal's and the wire's checksums are pinned to.
uint32_t BytewiseCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xedb88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(SessionJournalTest, Crc32KnownAnswers) {
  EXPECT_EQ(JournalCrc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(JournalCrc32("", 0), 0u);
  EXPECT_EQ(JournalCrc32(nullptr, 0), 0u);
}

TEST(SessionJournalTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length 0..300 from every start offset 0..8 covers each
  // alignment of the eight-byte steps and every tail length after them.
  std::mt19937 rng(20050405);
  std::vector<unsigned char> buffer(8 + 300);
  for (unsigned char& byte : buffer) byte = static_cast<unsigned char>(rng());
  for (size_t offset = 0; offset <= 8; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const unsigned char* data = buffer.data() + offset;
      ASSERT_EQ(JournalCrc32(data, length), BytewiseCrc32(data, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(SessionJournalTest, ConfigFingerprintDetectsMismatches) {
  Env env = MakeEnv();
  SessionConfig session;
  const std::string payload = SessionJournal::EncodeConfig(env.config, session);
  EXPECT_TRUE(SessionJournal::CheckConfig(payload, env.config, session).ok());

  FrameworkConfig other = env.config;
  other.binning.k = 11;
  const Status mismatch = SessionJournal::CheckConfig(payload, other, session);
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatch.message().find("k = 10"), std::string::npos);
  EXPECT_NE(mismatch.message().find("k = 11"), std::string::npos);

  SessionConfig drift;
  drift.policy = RebinPolicy::kRebinOnDrift;
  drift.drift_threshold = 0.25;
  EXPECT_FALSE(SessionJournal::CheckConfig(payload, env.config, drift).ok());
  EXPECT_TRUE(
      SessionJournal::CheckConfig(SessionJournal::EncodeConfig(env.config,
                                                               drift),
                                  env.config, drift)
          .ok());
}

TEST(SessionJournalTest, SchemaCodecRoundTrips) {
  Env env = MakeEnv();
  const Schema& schema = env.dataset->table.schema();
  const std::string payload = SessionJournal::EncodeSchema(schema);
  const auto decoded = SessionJournal::DecodeSchema(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == schema);

  EXPECT_FALSE(SessionJournal::DecodeSchema("").ok());
  EXPECT_FALSE(SessionJournal::DecodeSchema("no separators here").ok());
  EXPECT_FALSE(SessionJournal::DecodeSchema("bogus-role|int64|age").ok());
  EXPECT_FALSE(SessionJournal::DecodeSchema("other|bogus-type|age").ok());
  // Duplicate column names are rejected by Schema::AddColumn.
  EXPECT_FALSE(
      SessionJournal::DecodeSchema("other|int64|a\nother|int64|a").ok());
}

// The batch codec must round-trip *exactly* what Ingest saw: a lossy
// journal (e.g. "%.6f"-formatted doubles, Null collapsing to "") makes
// Recover rebuild a session from different values than the original,
// silently breaking the byte-identical replay guarantee.
TEST(SessionJournalTest, BatchCodecRoundTripsEveryValueLosslessly) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"ssn", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  ASSERT_TRUE(schema.AddColumn({"reading", ColumnRole::kQuasiNumeric,
                                ValueType::kDouble}).ok());
  ASSERT_TRUE(schema.AddColumn({"count", ColumnRole::kOther,
                                ValueType::kInt64}).ok());
  ASSERT_TRUE(schema.AddColumn({"note", ColumnRole::kOther,
                                ValueType::kString}).ok());
  Table t(schema);
  // More than 6 decimals, negative zero, and extremes: none survive a
  // decimal round-trip at fixed precision.
  ASSERT_TRUE(t.AppendRow({Value::String("a"),
                           Value::Double(0.12345678901234567),
                           Value::Int64(INT64_MIN),
                           Value::String("plain")}).ok());
  // Null vs empty string in the same column, and cells with bytes CSV
  // cannot carry (embedded NUL, newline, quote, comma).
  ASSERT_TRUE(t.AppendRow({Value::String(std::string("nu\0l", 4)),
                           Value::Double(-0.0), Value::Int64(INT64_MAX),
                           Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value::String(""),
                           Value::Double(1e-310),  // subnormal
                           Value::Int64(0),
                           Value::String("line\nbreak,\"q\"")}).ok());

  const std::string payload = SessionJournal::EncodeBatch(t);
  const auto back = SessionJournal::DecodeBatch(payload, schema);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_TRUE(back->at(r, c) == t.at(r, c)) << r << "," << c;
    }
  }
}

TEST(SessionJournalTest, BatchCodecRejectsMalformedPayloads) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"ssn", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  ASSERT_TRUE(schema.AddColumn({"age", ColumnRole::kQuasiNumeric,
                                ValueType::kInt64}).ok());
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value::String("abc"), Value::Int64(30)}).ok());
  const std::string payload = SessionJournal::EncodeBatch(t);
  ASSERT_TRUE(SessionJournal::DecodeBatch(payload, schema).ok());

  // Truncations at every structural boundary.
  for (const size_t cut : {size_t{0}, size_t{4}, size_t{8}, size_t{9},
                           size_t{11}, payload.size() - 1}) {
    EXPECT_FALSE(
        SessionJournal::DecodeBatch(payload.substr(0, cut), schema).ok())
        << "cut at " << cut;
  }
  // Trailing garbage, unknown cell tag, and a schema arity mismatch.
  EXPECT_FALSE(SessionJournal::DecodeBatch(payload + "x", schema).ok());
  std::string bad_tag = payload;
  bad_tag[8] = 42;  // first cell's type tag
  EXPECT_FALSE(SessionJournal::DecodeBatch(bad_tag, schema).ok());
  Schema wider = schema;
  ASSERT_TRUE(wider.AddColumn({"extra", ColumnRole::kOther,
                               ValueType::kString}).ok());
  EXPECT_FALSE(SessionJournal::DecodeBatch(payload, wider).ok());
  // A string length pointing past the payload must not over-read.
  std::string bad_length = payload;
  bad_length[9] = static_cast<char>(0xff);  // first string's length field
  EXPECT_FALSE(SessionJournal::DecodeBatch(bad_length, schema).ok());
}

// Doubles that are lossy under decimal formatting must survive the
// on-disk journal round-trip (append, read back, decode) — the
// regression that motivated the binary batch codec.
TEST(SessionJournalTest, JournaledDoublesSurviveAtFullPrecision) {
  Env env = MakeEnv();
  const std::string path = FreshPath("journal_doubles.wal");
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"ssn", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  ASSERT_TRUE(schema.AddColumn({"reading", ColumnRole::kQuasiNumeric,
                                ValueType::kDouble}).ok());
  Table batch(schema);
  ASSERT_TRUE(batch.AppendRow({Value::String("p0"),
                               Value::Double(36.60000001)}).ok());
  ASSERT_TRUE(batch.AppendRow({Value::String("p1"),
                               Value::Double(36.600000004)}).ok());
  {
    auto journal = SessionJournal::Create(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendConfig(env.config, SessionConfig()).ok());
    ASSERT_TRUE((*journal)->AppendSchema(schema).ok());
    ASSERT_TRUE((*journal)->AppendBatch(batch).ok());
  }
  const auto contents = SessionJournal::ReadAll(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 3u);
  const auto decoded =
      SessionJournal::DecodeBatch(contents->records[2].payload, schema);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Bit-exact, where "%.6f" would have collapsed both rows to 36.600000.
  EXPECT_EQ(decoded->at(0, 1).AsDouble(), 36.60000001);
  EXPECT_EQ(decoded->at(1, 1).AsDouble(), 36.600000004);
  EXPECT_TRUE(decoded->at(0, 1) != decoded->at(1, 1));
}

TEST(SessionJournalTest, SealCodecRejectsMalformedPayloads) {
  EXPECT_FALSE(SessionJournal::DecodeEpochSealed("").ok());
  EXPECT_FALSE(SessionJournal::DecodeEpochSealed("epoch = x").ok());
  EXPECT_FALSE(SessionJournal::DecodeEpochSealed("rows_emitted = 4").ok());
  EXPECT_FALSE(
      SessionJournal::DecodeEpochSealed("epoch = 0\nbogus = 1").ok());
  const auto minimal = SessionJournal::DecodeEpochSealed("epoch = 2");
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->epoch, 2u);
  EXPECT_EQ(minimal->rows_emitted, 0u);
}

// A repeated seal field once decoded as its last value ("epoch = 0 ...
// epoch = 7" as epoch 7), so replay validated against a seal the journal
// never wrote.
TEST(SessionJournalTest, SealCodecRejectsRepeatedFields) {
  for (const char* payload :
       {"epoch = 0\nrows_emitted = 4\nepoch = 7\n",
        "epoch = 1\nrows_emitted = 4\nrows_emitted = 5\n",
        "epoch = 1\nrows_suppressed = 0\nrows_suppressed = 0\n"}) {
    const auto seal = SessionJournal::DecodeEpochSealed(payload);
    ASSERT_FALSE(seal.ok()) << payload;
    EXPECT_EQ(seal.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(seal.status().message().find("duplicate"), std::string::npos)
        << seal.status().message();
  }
}

TEST(SessionJournalTest, SealCodecRoundTrips) {
  const EpochSeal seal{3, 1200, 17};
  const auto decoded =
      SessionJournal::DecodeEpochSealed(SessionJournal::EncodeEpochSealed(seal));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch, 3u);
  EXPECT_EQ(decoded->rows_emitted, 1200u);
  EXPECT_EQ(decoded->rows_suppressed, 17u);
  EXPECT_EQ(SessionJournal::EncodeEpochSealed(seal),
            "epoch = 3\nrows_emitted = 1200\nrows_suppressed = 17\n");
}

// The heart of the tentpole: a journaled session dies (here: simply
// abandoned mid-stream), Recover replays its journal, and the recovered
// session's past and future emissions are byte-identical to a session
// that never crashed.
TEST(SessionJournalTest, RecoveredSessionMatchesUncrashedRun) {
  Env env = MakeEnv();
  const std::string path = FreshPath("journal_recover.wal");

  // Reference: uncrashed run over the same batch sequence.
  ProtectionSession reference(env.metrics, env.config);
  Table reference_emitted;
  ASSERT_TRUE(reference.Ingest(env.dataset->table.Slice(0, 400)).ok());
  const auto ref_flush = reference.Flush();
  ASSERT_TRUE(ref_flush.ok());
  AppendAll(&reference_emitted, ref_flush->outcome.watermarked);
  const auto ref_mid = reference.Ingest(env.dataset->table.Slice(400, 600));
  ASSERT_TRUE(ref_mid.ok());
  AppendAll(&reference_emitted, ref_mid->emitted);
  const auto ref_tail = reference.Ingest(env.dataset->table.Slice(600, 800));
  ASSERT_TRUE(ref_tail.ok());
  AppendAll(&reference_emitted, ref_tail->emitted);

  // Journaled run: dies after the mid ingest (the object is destroyed
  // without any clean shutdown; the journal file is all that survives).
  Table crashed_emitted;
  {
    ProtectionSession session(env.metrics, env.config);
    auto journal = SessionJournal::Create(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(session.AttachJournal(std::move(*journal)).ok());
    ASSERT_TRUE(session.Ingest(env.dataset->table.Slice(0, 400)).ok());
    const auto flush = session.Flush();
    ASSERT_TRUE(flush.ok()) << flush.status().ToString();
    EXPECT_TRUE(session.journal_status().ok());
    AppendAll(&crashed_emitted, flush->outcome.watermarked);
    const auto mid = session.Ingest(env.dataset->table.Slice(400, 600));
    ASSERT_TRUE(mid.ok());
    AppendAll(&crashed_emitted, mid->emitted);
  }

  auto recovered = ProtectionSession::Recover(path, env.metrics, env.config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->batches_applied, 2u);
  EXPECT_EQ(recovered->epochs_sealed, 1u);
  EXPECT_FALSE(recovered->tail_truncated);
  // Replay reproduced everything the crashed session emitted, byte for
  // byte.
  EXPECT_EQ(TableToCsv(recovered->emitted), TableToCsv(crashed_emitted));
  ASSERT_EQ(recovered->session->epochs().size(), 1u);
  EXPECT_EQ(recovered->session->rows_ingested(), 600u);

  // And the future matches too: the tail batch emits the same bytes the
  // reference produced.
  const auto tail =
      recovered->session->Ingest(env.dataset->table.Slice(600, 800));
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  Table resumed = recovered->emitted.Clone();
  AppendAll(&resumed, tail->emitted);
  EXPECT_EQ(TableToCsv(resumed), TableToCsv(reference_emitted));

  // The resumed journal kept journaling: a second recovery sees the
  // tail batch as well.
  auto again = ProtectionSession::Recover(path, env.metrics, env.config);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->batches_applied, 3u);
  EXPECT_EQ(TableToCsv(again->emitted), TableToCsv(reference_emitted));
}

TEST(SessionJournalTest, RecoverValidatesConfigAndKeyId) {
  Env env = MakeEnv();
  const std::string path = FreshPath("journal_validate.wal");
  {
    ProtectionSession session(env.metrics, env.config);
    auto journal = SessionJournal::Create(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(session.AttachJournal(std::move(*journal)).ok());
    ASSERT_TRUE(session.Ingest(env.dataset->table.Slice(0, 200)).ok());
  }
  FrameworkConfig wrong_k = env.config;
  wrong_k.binning.k = 7;
  EXPECT_EQ(ProtectionSession::Recover(path, env.metrics, wrong_k)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  FrameworkConfig wrong_id = env.config;
  wrong_id.key_id = "someone-else";
  EXPECT_EQ(ProtectionSession::Recover(path, env.metrics, wrong_id)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  SessionConfig wrong_policy;
  wrong_policy.policy = RebinPolicy::kRebinOnDrift;
  EXPECT_EQ(ProtectionSession::Recover(path, env.metrics, env.config,
                                       wrong_policy)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionJournalTest, RecoverTruncatesTornTailAndResumes) {
  Env env = MakeEnv();
  const std::string path = FreshPath("journal_torn_resume.wal");
  {
    ProtectionSession session(env.metrics, env.config);
    auto journal = SessionJournal::Create(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(session.AttachJournal(std::move(*journal)).ok());
    ASSERT_TRUE(session.Ingest(env.dataset->table.Slice(0, 300)).ok());
    ASSERT_TRUE(session.Ingest(env.dataset->table.Slice(300, 400)).ok());
  }
  // Simulate a crash mid-append: shear the last record in half.
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 40));

  auto recovered = ProtectionSession::Recover(path, env.metrics, env.config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->tail_truncated);
  EXPECT_EQ(recovered->batches_applied, 1u);
  EXPECT_EQ(recovered->session->rows_ingested(), 300u);

  // The torn bytes are gone from disk; re-ingesting the lost batch puts
  // the stream back on track and journals cleanly after the truncation.
  ASSERT_TRUE(
      recovered->session->Ingest(env.dataset->table.Slice(300, 400)).ok());
  auto again = ProtectionSession::Recover(path, env.metrics, env.config);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again->tail_truncated);
  EXPECT_EQ(again->batches_applied, 2u);
  EXPECT_EQ(again->session->rows_ingested(), 400u);
}

TEST(SessionJournalTest, EmptyJournalRecoversToFreshSession) {
  Env env = MakeEnv();
  const std::string path = FreshPath("journal_empty.wal");
  {
    auto journal = SessionJournal::Create(path);
    ASSERT_TRUE(journal.ok());
    // Crash before the config record was ever appended.
  }
  auto recovered = ProtectionSession::Recover(path, env.metrics, env.config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->batches_applied, 0u);
  EXPECT_EQ(recovered->session->rows_ingested(), 0u);
  // The resumed journal was re-initialized as fresh: ingest works and
  // the next recovery replays it.
  ASSERT_TRUE(
      recovered->session->Ingest(env.dataset->table.Slice(0, 100)).ok());
  auto again = ProtectionSession::Recover(path, env.metrics, env.config);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->batches_applied, 1u);
}

TEST(SessionJournalTest, AttachJournalLifecycleErrors) {
  Env env = MakeEnv();
  ProtectionSession session(env.metrics, env.config);
  EXPECT_FALSE(session.AttachJournal(nullptr).ok());
  ASSERT_TRUE(session.Ingest(env.dataset->table.Slice(0, 100)).ok());
  // Fresh journals must be attached before the first ingest.
  auto late = SessionJournal::Create(FreshPath("journal_late.wal"));
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(session.AttachJournal(std::move(*late)).code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionJournalTest, DriftEpochsJournalAndRecover) {
  Env env = MakeEnv();
  SessionConfig drift;
  drift.policy = RebinPolicy::kRebinOnDrift;
  drift.drift_threshold = 1.0;
  const std::string path = FreshPath("journal_drift.wal");

  ProtectionSession reference(env.metrics, env.config, drift);
  Table reference_emitted;
  {
    ProtectionSession session(env.metrics, env.config, drift);
    auto journal = SessionJournal::Create(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(session.AttachJournal(std::move(*journal)).ok());
    for (size_t begin = 0; begin < kRows; begin += 100) {
      const Table batch = env.dataset->table.Slice(begin, begin + 100);
      const auto ref = reference.Ingest(batch);
      ASSERT_TRUE(ref.ok()) << begin << " " << ref.status().ToString();
      AppendAll(&reference_emitted, ref->emitted);
      ASSERT_TRUE(session.Ingest(batch).ok());
      if (begin == 300) {
        const auto flush = session.Flush();
        ASSERT_TRUE(flush.ok());
        const auto ref_flush = reference.Flush();
        ASSERT_TRUE(ref_flush.ok());
        AppendAll(&reference_emitted, ref_flush->outcome.watermarked);
      }
    }
    ASSERT_GE(session.epochs().size(), 2u);  // drift re-binned at least once
  }
  auto recovered =
      ProtectionSession::Recover(path, env.metrics, env.config, drift);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->batches_applied, kRows / 100);
  EXPECT_EQ(recovered->epochs_sealed, recovered->session->epochs().size());
  EXPECT_EQ(TableToCsv(recovered->emitted), TableToCsv(reference_emitted));
}

}  // namespace
}  // namespace privmark
