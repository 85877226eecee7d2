// Cross-commit golden digests for the wire payloads.
//
// wire_test round-trips every payload through its own decoder, which
// cannot notice a change that alters encoder and decoder together. This
// suite pins the bytes themselves: a SHA-1 over the payload of a full
// fingerprint response, a streamed-tails terminal, a kPartial shard and
// an error response (recorded before the two shard types and the two
// response-envelope codecs were folded together), then every request
// kind and every OK response kind, whose tables hit all four column
// encodings (recorded before each message's encoder and decoder were
// folded into one field list). A refactor of any payload codec must
// reproduce these digests unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/strings.h"
#include "crypto/sha1.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "service/wire.h"

namespace privmark {
namespace {

std::string Digest(const std::string& payload) {
  return HexEncode(Sha1::Hash(payload));
}

KeyVerdict GoldenVerdict(int i) {
  KeyVerdict verdict;
  verdict.key_name = "recipient-" + std::to_string(i);
  verdict.detection.recovered =
      BitVector::FromString(i % 2 == 0 ? "1011" : "0110").ValueOrDie();
  verdict.detection.tuples_selected = 100 + static_cast<size_t>(i);
  verdict.detection.slots_read = 400 + static_cast<size_t>(i);
  verdict.detection.slots_skipped = static_cast<size_t>(i);
  verdict.detection.vote_margin = {0.5, -0.0, 1e-300, 0.125 * i};
  verdict.detection.bit_voted = {true, false, true, i % 2 == 1};
  verdict.margin_ratio = 1.5 + i;
  verdict.mark_match = 0.25 * i;
  verdict.p_value = 1e-9 * (i + 1);
  verdict.score = i == 0 ? -0.0 : 0.375 * i;  // sign bit must survive
  verdict.detected = i == 2;
  return verdict;
}

// Two epochs: three verdicts, then one, each with a consistent ranking.
WireResponse GoldenFingerprintResponse() {
  WireResponse response;
  response.kind = WireFrameType::kFingerprint;
  response.threads_granted = 3;
  FingerprintReport first;
  for (int i = 0; i < 3; ++i) first.verdicts.push_back(GoldenVerdict(i));
  first.ranking = {2, 0, 1};
  first.keys_detected = 1;
  first.collusion = false;
  FingerprintReport second;
  second.verdicts.push_back(GoldenVerdict(7));
  second.ranking = {0};
  second.keys_detected = 0;
  second.collusion = true;
  response.fingerprints = {first, second};
  return response;
}

TEST(WireGoldenTest, FullFingerprintResponse) {
  WireTableEncoder tables;
  EXPECT_EQ(Digest(EncodeWireResponse(GoldenFingerprintResponse(), &tables)),
            "f75d87ef37828c46cfe0d2b5240ba31bfcd71042");
}

TEST(WireGoldenTest, StreamedTailsTerminal) {
  EXPECT_EQ(
      Digest(EncodeWireResponseStreamedTails(GoldenFingerprintResponse())),
      "654347955a3ea4b8177649f3e63da4004228303b");
}

TEST(WireGoldenTest, FingerprintShard) {
  FingerprintShard shard;
  shard.epoch = 1;
  shard.shard = 4;
  shard.first_key = 96;
  shard.verdicts = {GoldenVerdict(3), GoldenVerdict(4)};
  EXPECT_EQ(Digest(EncodeWireFingerprintShard(shard)),
            "2cef2a924be31648199a30d681e5d5aa826c63a4");
}

TEST(WireGoldenTest, ErrorResponse) {
  WireResponse response;
  response.kind = WireFrameType::kFingerprint;
  response.status =
      Status::ResourceExhausted("queue full").WithRetryAfterMs(250);
  response.journal_status = Status::IOError("journal write failed");
  response.threads_granted = 0;
  // An error response carries no body, whatever the members hold.
  response.fingerprints = GoldenFingerprintResponse().fingerprints;
  WireTableEncoder tables;
  EXPECT_EQ(Digest(EncodeWireResponse(response, &tables)),
            "4eef24adef9d7684fb05038d629cba8a2f3e2b11");
}

// ---- every request kind and every OK response kind ------------------------

// One column per table-block encoding: int64 dense, double dense, a
// string dictionary, and per-cell tags (a Null makes the column mixed).
Schema GoldenSchema() {
  return Schema({{"id", ColumnRole::kIdentifying, ValueType::kString},
                 {"age", ColumnRole::kQuasiNumeric, ValueType::kInt64},
                 {"score", ColumnRole::kOther, ValueType::kDouble},
                 {"city", ColumnRole::kQuasiCategorical, ValueType::kString}});
}

Table GoldenTable() {
  Table table(GoldenSchema());
  const std::string with_nul("a\0b", 3);
  const std::vector<Row> rows = {
      {Value::String("s-1"), Value::Int64(-42), Value::Double(-0.0),
       Value::String("rome")},
      {Value::String(with_nul), Value::Int64(INT64_MIN),
       Value::Double(1e-300), Value::String("")},
      {Value::Null(), Value::Int64(7), Value::Double(0.5),
       Value::String("rome")},
  };
  for (const Row& row : rows) EXPECT_TRUE(table.AppendRow(row).ok());
  return table;
}

WireRequest GoldenRequest(WireFrameType type) {
  WireRequest request;
  request.type = type;
  request.session = "ward-7";
  request.ask = 3;
  request.deadline_ms = -1;
  request.table = GoldenTable();
  request.registry_text = "privmark-keys v1\n[key]\nname = east\n";
  WireOpenRequest& open = request.open;
  open.session = request.session;
  open.k = 25;
  open.enforce_joint = true;
  open.auto_epsilon = false;
  open.num_threads = 4;
  open.passphrase = "pass";
  open.k1 = "6b31";
  open.k2 = "6b32";
  open.eta = 20;
  open.key_id = "clinic-east";
  open.on_unbinnable = 1;
  open.policy = 1;
  open.drift_threshold = 0.75;
  return request;
}

std::string RequestDigest(WireFrameType type) {
  WireTableEncoder tables;
  return Digest(EncodeWireRequest(GoldenRequest(type), &tables));
}

// Ingest and detect requests share one layout, hence one digest.
TEST(WireGoldenTest, EveryRequestKind) {
  EXPECT_EQ(RequestDigest(WireFrameType::kOpen),
            "2367efff8eca09fb09477f9e690ae067ee1956a7");
  EXPECT_EQ(RequestDigest(WireFrameType::kIngest),
            "e86538983d33a66b5eb3641356ece91185d1e5e9");
  EXPECT_EQ(RequestDigest(WireFrameType::kFlush),
            "5cb4c548c92cab2f5a60326932224aaeab1363f9");
  EXPECT_EQ(RequestDigest(WireFrameType::kDetect),
            "e86538983d33a66b5eb3641356ece91185d1e5e9");
  EXPECT_EQ(RequestDigest(WireFrameType::kFingerprint),
            "9dc164c7d57faf378eba7a6ca971292a56e53381");
  EXPECT_EQ(RequestDigest(WireFrameType::kClose),
            "c49e46840f90e06f76bc4b36a6cb50290c7c0b41");
}

// A second batch through the same encoder ships only the strings the
// first did not: the dictionary state is part of the bytes.
TEST(WireGoldenTest, SecondIngestReusesTheDictionary) {
  WireTableEncoder tables;
  const WireRequest request = GoldenRequest(WireFrameType::kIngest);
  EncodeWireRequest(request, &tables);
  EXPECT_EQ(Digest(EncodeWireRequest(request, &tables)),
            "5b17fc3cb51ab09455c7fad00518dd9cc1bad731");
}

WireResponse GoldenResponse(WireFrameType kind) {
  WireResponse response;
  response.kind = kind;
  response.threads_granted = 2;
  response.journal_status = Status::IOError("disk full");
  response.open.recovered = true;
  response.open.batches_applied = 5;
  response.open.epochs_sealed = 1;
  response.open.tail_truncated = true;
  response.open.emitted = GoldenTable();
  response.ingest.epoch = 2;
  response.ingest.flushed = true;
  response.ingest.rows_emitted = 3;
  response.ingest.rows_suppressed = 1;
  response.ingest.rows_buffered = 9;
  response.ingest.emitted = GoldenTable();
  response.flush.epoch = 3;
  response.flush.identifier_statistic = -0.0;
  response.flush.emitted = GoldenTable();
  response.reports = {GoldenVerdict(0).detection, GoldenVerdict(1).detection};
  response.fingerprints = GoldenFingerprintResponse().fingerprints;
  response.close.rows_ingested = 30;
  response.close.rows_emitted = 28;
  response.close.rows_suppressed = 2;
  for (uint64_t e = 0; e < 2; ++e) {
    WireEpochSummary epoch;
    epoch.epoch = e;
    epoch.rows_emitted = 14;
    epoch.rows_suppressed = e;
    epoch.wmd_size = 40 + e;
    epoch.identifier_statistic = 3.75 * static_cast<double>(e + 1);
    epoch.manifest_text = "PRIVMARK-MANIFESTv1\nepoch = " +
                          std::to_string(e) + "\n";
    response.close.epochs.push_back(epoch);
  }
  return response;
}

std::string ResponseDigest(WireFrameType kind) {
  WireTableEncoder tables;
  return Digest(EncodeWireResponse(GoldenResponse(kind), &tables));
}

TEST(WireGoldenTest, EveryOkResponseKind) {
  EXPECT_EQ(ResponseDigest(WireFrameType::kOpen),
            "74a98ad453d2afa47a872390257204374aff55a8");
  EXPECT_EQ(ResponseDigest(WireFrameType::kIngest),
            "f13a08feb0851af4dc4fccfd2a07f0d3f6f3979f");
  EXPECT_EQ(ResponseDigest(WireFrameType::kFlush),
            "91caca99ae8214d1f5f0f1ee66f7a9b8e3b4c6c1");
  EXPECT_EQ(ResponseDigest(WireFrameType::kDetect),
            "b789a58588caa9b7eff9ff32bea6fd10bd165fbd");
  EXPECT_EQ(ResponseDigest(WireFrameType::kFingerprint),
            "8fcf31116faac546923efda1d2d2dcc0723e2c0e");
  EXPECT_EQ(ResponseDigest(WireFrameType::kClose),
            "37a36fe8d95b1404b0f5ea892d6380c1c2ad8ba2");
}

}  // namespace
}  // namespace privmark
