// Wire-protocol codec suite: framing and payload round-trips, the
// columnar table codec's losslessness (bit-exact doubles, Null vs "",
// NUL-safe strings, incremental dictionaries), and — the half that
// matters for a network daemon — rejection of every malformed-frame
// shape: truncation at each byte, trailing bytes, unknown tags,
// oversized lengths, CRC damage, and out-of-range dictionary ids.

#include "service/wire.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/binenc.h"
#include "core/journal.h"
#include "relation/schema.h"
#include "relation/table.h"

namespace privmark {
namespace {

Schema TestSchema() {
  return Schema({{"id", ColumnRole::kIdentifying, ValueType::kString},
                 {"age", ColumnRole::kQuasiNumeric, ValueType::kInt64},
                 {"score", ColumnRole::kOther, ValueType::kDouble},
                 {"city", ColumnRole::kQuasiCategorical,
                  ValueType::kString}});
}

Table TestTable() {
  Table table(TestSchema());
  std::string with_nul("a\0b", 3);
  EXPECT_TRUE(table
                  .AppendRow({Value::String("s-1"), Value::Int64(-42),
                              Value::Double(-0.0), Value::String("rome")})
                  .ok());
  EXPECT_TRUE(table
                  .AppendRow({Value::String(with_nul),
                              Value::Int64(std::numeric_limits<int64_t>::min()),
                              Value::Double(1e-300), Value::String("")})
                  .ok());
  EXPECT_TRUE(table
                  .AppendRow({Value::Null(), Value::Int64(7),
                              Value::Double(0.0), Value::String("rome")})
                  .ok());
  return table;
}

std::string EncodeTable(WireTableEncoder* encoder, const Table& table) {
  std::string out;
  encoder->Encode(table, &out);
  return out;
}

Result<Table> DecodeTable(WireTableDecoder* decoder,
                          const std::string& block) {
  BinReader reader(block);
  auto table = decoder->Decode(&reader);
  if (table.ok() && !reader.Exhausted()) {
    return Status::InvalidArgument("trailing bytes after table block");
  }
  return table;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      EXPECT_EQ(a.at(r, c), b.at(r, c)) << "row " << r << " col " << c;
    }
  }
}

// ---- framing -------------------------------------------------------------

// A single-frame request/response envelope around `payload`.
Result<std::string> EncodeFrame(WireFrameType type, const std::string& payload,
                                uint64_t request_id = 1) {
  WireFrame frame;
  frame.type = type;
  frame.request_id = request_id;
  frame.payload = payload;
  return EncodeWireFrame(frame, kWireProtocolV2);
}

Result<WireFrame> DecodeFrame(const std::string& encoded) {
  PRIVMARK_ASSIGN_OR_RETURN(size_t body_length,
                            WireFrameBodyLength(encoded.data()));
  if (body_length != encoded.size() - kWireFrameHeaderBytes) {
    return Status::InvalidArgument("body length disagrees with the frame");
  }
  return DecodeWireFrameBody(encoded.data(),
                             encoded.substr(kWireFrameHeaderBytes));
}

// Re-stamps the CRC over a deliberately bent body, so the decoder sees
// the contradiction itself rather than a checksum mismatch.
void RestampCrc(std::string* frame) {
  const uint32_t crc = JournalCrc32(frame->data() + kWireFrameHeaderBytes,
                                    frame->size() - kWireFrameHeaderBytes);
  std::memcpy(frame->data() + 4, &crc, sizeof(crc));
}

TEST(WireFrameTest, RoundTrip) {
  auto frame = EncodeFrame(WireFrameType::kIngest, "payload", 42);
  ASSERT_TRUE(frame.ok());
  ASSERT_GE(frame->size(), kWireFrameHeaderBytes + 1 + kWireEnvelopeBytes);
  auto decoded = DecodeFrame(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, WireFrameType::kIngest);
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_TRUE(decoded->final_frame);
  EXPECT_FALSE(decoded->streamed);
  EXPECT_EQ(decoded->payload, "payload");
}

TEST(WireFrameTest, EmptyPayloadRoundTrips) {
  auto frame = EncodeFrame(WireFrameType::kClose, "");
  ASSERT_TRUE(frame.ok());
  auto body_length = WireFrameBodyLength(frame->data());
  ASSERT_TRUE(body_length.ok());
  // Just the type byte and the envelope.
  EXPECT_EQ(*body_length, 1 + kWireEnvelopeBytes);
  auto decoded = DecodeFrame(*frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->payload, "");
}

TEST(WireFrameTest, OversizedEncodeRefused) {
  std::string huge(kMaxWireFrameBytes + 1, 'x');
  auto frame = EncodeFrame(WireFrameType::kIngest, huge);
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFrameTest, OversizedLengthHeaderRefusedBeforeAllocation) {
  // A hostile peer claims a 4GiB-1 payload; the reader must refuse from
  // the 8 header bytes alone, never allocating the claimed size.
  char header[kWireFrameHeaderBytes];
  const uint32_t huge = std::numeric_limits<uint32_t>::max();
  std::memcpy(header, &huge, sizeof(huge));
  std::memset(header + 4, 0, 4);
  auto body_length = WireFrameBodyLength(header);
  EXPECT_FALSE(body_length.ok());
  EXPECT_EQ(body_length.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFrameTest, CrcDamageDetected) {
  auto frame = EncodeFrame(WireFrameType::kDetect, "abcdef");
  ASSERT_TRUE(frame.ok());
  // Flip one payload bit, then one request-id bit: the CRC covers the
  // whole body, envelope included.
  for (const size_t offset :
       {frame->size() - 3, kWireFrameHeaderBytes + 2}) {
    std::string bent = *frame;
    bent[offset] ^= 0x01;
    EXPECT_FALSE(DecodeFrame(bent).ok()) << "offset " << offset;
  }
}

TEST(WireFrameTest, UnknownTypeTagRefused) {
  for (const uint8_t tag : {uint8_t{0}, uint8_t{9}, uint8_t{255}}) {
    auto frame = EncodeFrame(static_cast<WireFrameType>(tag), "x");
    ASSERT_TRUE(frame.ok());  // encode is by-construction trusted
    EXPECT_FALSE(DecodeFrame(*frame).ok()) << "tag " << int{tag};
  }
}

TEST(WireFrameTest, TruncatedBodyRefused) {
  // A body shorter than the envelope cannot carry a frame at all.
  auto frame = EncodeFrame(WireFrameType::kFlush, "");
  ASSERT_TRUE(frame.ok());
  for (size_t body = 0; body < 1 + kWireEnvelopeBytes; ++body) {
    auto decoded = DecodeWireFrameBody(
        frame->data(), frame->substr(kWireFrameHeaderBytes, body));
    EXPECT_FALSE(decoded.ok()) << "body " << body;
  }
}

// One end of a socket pair whose peer wrote `bytes` and hung up.
class FrameStream {
 public:
  explicit FrameStream(const std::string& bytes) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    EXPECT_TRUE(WriteFullySocket(fds[0], bytes.data(), bytes.size()));
    ::close(fds[0]);
    fd_ = fds[1];
  }
  ~FrameStream() { ::close(fd_); }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

TEST(WireFrameTest, ReadWireFrameReadsBackToBackFramesOffASocket) {
  WireFrame streamed;
  streamed.type = WireFrameType::kPartial;
  streamed.request_id = 9;
  streamed.final_frame = false;
  streamed.streamed = true;
  streamed.payload = std::string("shard\0bytes", 11);
  auto first = EncodeWireFrame(streamed, kWireProtocolV2);
  auto second = EncodeFrame(WireFrameType::kClose, "", 10);
  ASSERT_TRUE(first.ok() && second.ok());
  FrameStream stream(*first + *second);

  auto read = ReadWireFrame(stream.fd());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->type, WireFrameType::kPartial);
  EXPECT_EQ(read->request_id, 9u);
  EXPECT_FALSE(read->final_frame);
  EXPECT_TRUE(read->streamed);
  EXPECT_EQ(read->payload, streamed.payload);
  read = ReadWireFrame(stream.fd());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->type, WireFrameType::kClose);
  EXPECT_EQ(read->request_id, 10u);
  EXPECT_EQ(read->payload, "");
  // The peer hung up between frames.
  read = ReadWireFrame(stream.fd());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

TEST(WireFrameTest, ReadWireFrameRefusesDamagedAndTruncatedFrames) {
  auto frame = EncodeFrame(WireFrameType::kDetect, "abcdef", 4);
  ASSERT_TRUE(frame.ok());
  std::string bent = *frame;
  bent[bent.size() - 2] ^= 0x01;
  EXPECT_EQ(ReadWireFrame(FrameStream(bent).fd()).status().code(),
            StatusCode::kInvalidArgument);
  std::string oversized = *frame;
  const uint32_t huge = std::numeric_limits<uint32_t>::max();
  std::memcpy(oversized.data(), &huge, sizeof(huge));
  EXPECT_EQ(ReadWireFrame(FrameStream(oversized).fd()).status().code(),
            StatusCode::kInvalidArgument);
  // The peer hung up mid-header and mid-body.
  for (const size_t cut : {size_t{3}, frame->size() - 1}) {
    EXPECT_EQ(
        ReadWireFrame(FrameStream(frame->substr(0, cut)).fd()).status().code(),
        StatusCode::kIOError)
        << "cut " << cut;
  }
}

TEST(WireFrameV2Test, EnvelopeRoundTripsIdAndFlags) {
  WireFrame frame;
  frame.type = WireFrameType::kFingerprint;
  frame.request_id = 0x0123456789abcdefULL;
  frame.final_frame = true;
  frame.streamed = true;
  frame.payload = "payload";
  auto encoded = EncodeWireFrame(frame, kWireProtocolV2);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  auto decoded = DecodeFrame(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, WireFrameType::kFingerprint);
  EXPECT_EQ(decoded->request_id, 0x0123456789abcdefULL);
  EXPECT_TRUE(decoded->final_frame);
  EXPECT_TRUE(decoded->streamed);
  EXPECT_EQ(decoded->payload, "payload");
}

TEST(WireFrameV2Test, PartialFrameRoundTrips) {
  WireFrame frame;
  frame.type = WireFrameType::kPartial;
  frame.request_id = 7;
  frame.final_frame = false;
  frame.streamed = true;
  frame.payload = "shard";
  auto encoded = EncodeWireFrame(frame, kWireProtocolV2);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  auto decoded = DecodeFrame(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, WireFrameType::kPartial);
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_FALSE(decoded->final_frame);
  EXPECT_TRUE(decoded->streamed);
}

TEST(WireFrameV2Test, FinalPartialRefusedAtBothEnds) {
  WireFrame frame;
  frame.type = WireFrameType::kPartial;
  frame.final_frame = true;
  frame.streamed = true;
  EXPECT_FALSE(EncodeWireFrame(frame, kWireProtocolV2).ok());
  // Hand-craft the same contradiction for the decoder: splice the
  // kFinal bit into a legally encoded partial.
  frame.final_frame = false;
  auto encoded = EncodeWireFrame(frame, kWireProtocolV2);
  ASSERT_TRUE(encoded.ok());
  std::string bent = *encoded;
  bent[kWireFrameHeaderBytes + 9] |= static_cast<char>(kWireFlagFinal);
  RestampCrc(&bent);
  EXPECT_FALSE(DecodeFrame(bent).ok());
}

TEST(WireFrameV2Test, UnknownFlagBitsRefused) {
  auto encoded = EncodeFrame(WireFrameType::kIngest, "x", 3);
  ASSERT_TRUE(encoded.ok());
  std::string bent = *encoded;
  bent[kWireFrameHeaderBytes + 9] |= 0x40;  // a flag never defined
  RestampCrc(&bent);
  EXPECT_FALSE(DecodeFrame(bent).ok());
}

TEST(WireFrameV2Test, V1EncoderRefusesV2Envelope) {
  // Protocol v1 is retired: asking the encoder for it (or any version
  // but kWireProtocolV2) is refused, with or without envelope fields.
  WireFrame frame;
  frame.type = WireFrameType::kIngest;
  frame.payload = "x";
  frame.request_id = 1;
  for (const uint8_t version : {uint8_t{0}, uint8_t{1}, uint8_t{3}}) {
    auto encoded = EncodeWireFrame(frame, version);
    ASSERT_FALSE(encoded.ok()) << "version " << int{version};
    EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);
  }
  frame.request_id = 0;
  EXPECT_FALSE(EncodeWireFrame(frame, 1).ok());
}

TEST(WireMagicTest, OnlyMagicIsPrvmnet2) {
  EXPECT_EQ(std::string(kWireMagic, kWireMagicSize), "PRVMNET2");
  EXPECT_EQ(kWireMagic[kWireMagicSize - 1], '0' + kWireProtocolV2);
}

// ---- table codec ---------------------------------------------------------

TEST(WireTableCodecTest, LosslessRoundTrip) {
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  const Table table = TestTable();
  auto decoded = DecodeTable(&decoder, EncodeTable(&encoder, table));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectTablesEqual(table, *decoded);
  // -0.0 must survive as -0.0, not 0.0.
  EXPECT_TRUE(std::signbit(decoded->at(0, 2).AsDouble()));
}

TEST(WireTableCodecTest, EmptyAndDefaultTablesRoundTrip) {
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  // Zero rows of the schema.
  auto empty = DecodeTable(&decoder, EncodeTable(&encoder, Table(TestSchema())));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_rows(), 0u);
  EXPECT_EQ(empty->num_columns(), TestSchema().num_columns());
  // A default-constructed Table (0x0) decodes as an empty schema table.
  auto zero = DecodeTable(&decoder, EncodeTable(&encoder, Table()));
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->num_rows(), 0u);
  EXPECT_EQ(zero->num_columns(), TestSchema().num_columns());
}

TEST(WireTableCodecTest, DictionaryShipsEachStringOnce) {
  Schema narrow({{"subject", ColumnRole::kOther, ValueType::kString}});
  WireTableEncoder encoder;
  WireTableDecoder decoder(narrow);
  Table batch(narrow);
  for (int r = 0; r < 64; ++r) {
    ASSERT_TRUE(
        batch.AppendRow({Value::String("subject-" + std::to_string(r))})
            .ok());
  }
  const std::string first = EncodeTable(&encoder, batch);
  const std::string second = EncodeTable(&encoder, batch);
  // The second block reuses the column's dictionary: it carries only
  // u32 ids, so it is much smaller than the first (which shipped every
  // string's bytes).
  EXPECT_LT(second.size(), first.size() / 2);
  auto first_decoded = DecodeTable(&decoder, first);
  ASSERT_TRUE(first_decoded.ok());
  ExpectTablesEqual(batch, *first_decoded);
  auto second_decoded = DecodeTable(&decoder, second);
  ASSERT_TRUE(second_decoded.ok());
  ExpectTablesEqual(batch, *second_decoded);
}

TEST(WireTableCodecTest, ColumnCountMismatchRefused) {
  WireTableEncoder encoder;
  Schema narrow({{"only", ColumnRole::kOther, ValueType::kString}});
  Table table(narrow);
  ASSERT_TRUE(table.AppendRow({Value::String("x")}).ok());
  WireTableDecoder decoder(TestSchema());
  auto decoded = DecodeTable(&decoder, EncodeTable(&encoder, table));
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTableCodecTest, TruncationAtEveryByteRefused) {
  WireTableEncoder encoder;
  const std::string block = EncodeTable(&encoder, TestTable());
  for (size_t cut = 0; cut < block.size(); ++cut) {
    WireTableDecoder decoder(TestSchema());
    auto decoded = DecodeTable(&decoder, block.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut << " of " << block.size();
  }
}

TEST(WireTableCodecTest, TrailingBytesRefused) {
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  auto decoded =
      DecodeTable(&decoder, EncodeTable(&encoder, TestTable()) + "x");
  EXPECT_FALSE(decoded.ok());
}

TEST(WireTableCodecTest, UnknownColumnEncodingRefused) {
  WireTableEncoder encoder;
  std::string block = EncodeTable(&encoder, TestTable());
  block[8] = static_cast<char>(0x7f);  // first column's encoding byte
  WireTableDecoder decoder(TestSchema());
  auto decoded = DecodeTable(&decoder, block);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTableCodecTest, OutOfRangeDictionaryIdRefused) {
  // One string column, one row: block is [rows][cols][enc][new=1]
  // [len]["city"][id]. Corrupt the trailing id.
  Schema narrow({{"city", ColumnRole::kOther, ValueType::kString}});
  Table table(narrow);
  ASSERT_TRUE(table.AppendRow({Value::String("rome")}).ok());
  WireTableEncoder encoder;
  std::string block = EncodeTable(&encoder, table);
  ASSERT_GE(block.size(), 4u);
  block[block.size() - 4] = 9;  // id 9 into a 1-entry dictionary
  WireTableDecoder decoder(narrow);
  auto decoded = DecodeTable(&decoder, block);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTableCodecTest, HostileRowCountRefusedBeforeAllocating) {
  // A 13-byte block claiming 2^32 - 1 rows. Every encoding spends at least
  // a byte per row, so the decoder must refuse from the bytes left rather
  // than size its columns from the claim (which would throw bad_alloc).
  for (const WireColumnEncoding encoding :
       {WireColumnEncoding::kInt64Dense, WireColumnEncoding::kDoubleDense,
        WireColumnEncoding::kStringDict, WireColumnEncoding::kCells}) {
    std::string block;
    AppendLe32(&block, 0xffffffffu);
    AppendLe32(&block, static_cast<uint32_t>(TestSchema().num_columns()));
    block.push_back(static_cast<char>(encoding));
    block.append(4, '\0');
    ASSERT_EQ(block.size(), 13u);
    const int tag = static_cast<int>(encoding);
    WireTableDecoder decoder(TestSchema());
    auto decoded = DecodeTable(&decoder, block);
    ASSERT_FALSE(decoded.ok()) << "encoding " << tag;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << "encoding " << tag;
  }
  // A 32 MiB block claiming 32Mi rows of 6 columns, the first a run of
  // 32Mi one-byte Null cells: each column alone fits the bytes left, but
  // the block's 192Mi cells do not. Sizing a column from the claim
  // before that check is a 1.25 GiB allocation.
  {
    constexpr uint32_t kClaimedRows = uint32_t{32} << 20;
    std::vector<ColumnSpec> columns;
    for (int c = 0; c < 6; ++c) {
      columns.push_back({"c" + std::to_string(c), ColumnRole::kOther,
                         ValueType::kString});
    }
    const Schema wide(columns);
    std::string block;
    AppendLe32(&block, kClaimedRows);
    AppendLe32(&block, 6);
    block.push_back(static_cast<char>(WireColumnEncoding::kCells));
    block.append(kClaimedRows, static_cast<char>(ValueType::kNull));
    WireTableDecoder decoder(wide);
    auto decoded = DecodeTable(&decoder, block);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  // Rows with no columns spend no bytes at all, so a column-less schema
  // refuses any row count rather than size rows from it.
  {
    std::string block;
    AppendLe32(&block, 0xffffffffu);
    AppendLe32(&block, 0);
    WireTableDecoder decoder{Schema()};
    auto decoded = DecodeTable(&decoder, block);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireTableCodecTest, DictionaryBytesAreExact) {
  // Batch 1 introduces "a", repeats it, then introduces "b"; batch 2
  // mixes "b", a new "c" and "a". Each block ships only its fresh
  // entries, in first-occurrence order, then every cell's id.
  Schema narrow({{"city", ColumnRole::kOther, ValueType::kString}});
  const auto make = [&](std::vector<std::string> cells) {
    Table table(narrow);
    for (std::string& cell : cells) {
      EXPECT_TRUE(table.AppendRow({Value::String(std::move(cell))}).ok());
    }
    return table;
  };
  const auto expected = [](std::vector<std::string> fresh,
                           std::vector<uint32_t> ids) {
    std::string block;
    AppendLe32(&block, static_cast<uint32_t>(ids.size()));
    AppendLe32(&block, 1);
    block.push_back(static_cast<char>(WireColumnEncoding::kStringDict));
    AppendLe32(&block, static_cast<uint32_t>(fresh.size()));
    for (const std::string& entry : fresh) AppendLengthPrefixed(&block, entry);
    for (uint32_t id : ids) AppendLe32(&block, id);
    return block;
  };
  const Table first = make({"a", "a", "b"});
  const Table second = make({"b", "c", "a"});
  WireTableEncoder encoder;
  const std::string first_block = EncodeTable(&encoder, first);
  const std::string second_block = EncodeTable(&encoder, second);
  EXPECT_EQ(first_block, expected({"a", "b"}, {0, 0, 1}));
  EXPECT_EQ(second_block, expected({"c"}, {1, 2, 0}));

  WireTableDecoder decoder(narrow);
  auto first_decoded = DecodeTable(&decoder, first_block);
  ASSERT_TRUE(first_decoded.ok()) << first_decoded.status().ToString();
  ExpectTablesEqual(first, *first_decoded);
  auto second_decoded = DecodeTable(&decoder, second_block);
  ASSERT_TRUE(second_decoded.ok()) << second_decoded.status().ToString();
  ExpectTablesEqual(second, *second_decoded);
}

// ---- request / response payloads -----------------------------------------

TEST(WireRequestTest, OpenRoundTripsEveryField) {
  WireRequest request;
  request.type = WireFrameType::kOpen;
  request.session = "hospital-7";
  request.open.k = 12;
  request.open.enforce_joint = true;
  request.open.auto_epsilon = true;
  request.open.num_threads = 3;
  request.open.passphrase = "pp";
  request.open.k1 = "key-one";
  request.open.k2 = "key-two";
  request.open.eta = 77;
  request.open.key_id = "recipient-a";
  request.open.on_unbinnable = 1;
  request.open.policy = 1;
  request.open.drift_threshold = 0.25;

  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  auto decoded = DecodeWireRequest(
      request.type, EncodeWireRequest(request, &encoder), &decoder);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->session, "hospital-7");
  EXPECT_EQ(decoded->open.k, 12u);
  EXPECT_TRUE(decoded->open.enforce_joint);
  EXPECT_TRUE(decoded->open.auto_epsilon);
  EXPECT_EQ(decoded->open.num_threads, 3u);
  EXPECT_EQ(decoded->open.passphrase, "pp");
  EXPECT_EQ(decoded->open.k1, "key-one");
  EXPECT_EQ(decoded->open.k2, "key-two");
  EXPECT_EQ(decoded->open.eta, 77u);
  EXPECT_EQ(decoded->open.key_id, "recipient-a");
  EXPECT_EQ(decoded->open.on_unbinnable, 1);
  EXPECT_EQ(decoded->open.policy, 1);
  EXPECT_EQ(decoded->open.drift_threshold, 0.25);
}

TEST(WireRequestTest, IngestCarriesTableAskAndDeadline) {
  WireRequest request;
  request.type = WireFrameType::kIngest;
  request.session = "s";
  request.ask = 4;
  request.deadline_ms = 1500;
  request.table = TestTable();
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  auto decoded = DecodeWireRequest(
      request.type, EncodeWireRequest(request, &encoder), &decoder);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->ask, 4u);
  EXPECT_EQ(decoded->deadline_ms, 1500);
  ExpectTablesEqual(request.table, decoded->table);
}

TEST(WireRequestTest, FingerprintCarriesRegistryText) {
  WireRequest request;
  request.type = WireFrameType::kFingerprint;
  request.session = "s";
  request.registry_text = "REGISTRYv1\n[key]\nname = a\n";
  request.table = TestTable();
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  auto decoded = DecodeWireRequest(
      request.type, EncodeWireRequest(request, &encoder), &decoder);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->registry_text, request.registry_text);
}

TEST(WireRequestTest, TrailingBytesRefused) {
  WireRequest request;
  request.type = WireFrameType::kClose;
  request.session = "s";
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  auto decoded = DecodeWireRequest(
      request.type, EncodeWireRequest(request, &encoder) + "!", &decoder);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireRequestTest, TruncationAtEveryByteRefused) {
  WireRequest request;
  request.type = WireFrameType::kIngest;
  request.session = "session-name";
  request.table = TestTable();
  WireTableEncoder encoder;
  const std::string payload = EncodeWireRequest(request, &encoder);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WireTableDecoder decoder(TestSchema());
    auto decoded =
        DecodeWireRequest(request.type, payload.substr(0, cut), &decoder);
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(WireResponseTest, ErrorResponseCarriesStatusAndRetryHint) {
  // The shed-response envelope contract: the status (with its typed
  // retry hint) travels; threads_granted is pinned to 0; the journal
  // status stays OK.
  WireResponse response;
  response.kind = WireFrameType::kIngest;
  response.status =
      Status::ResourceExhausted("queue full").WithRetryAfterMs(250);
  response.threads_granted = 0;  // the non-OK envelope convention
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  auto decoded =
      DecodeWireResponse(EncodeWireResponse(response, &encoder), &decoder);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, WireFrameType::kIngest);
  EXPECT_EQ(decoded->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->status.message(), "queue full");
  EXPECT_EQ(decoded->status.retry_after_ms(), 250);
  EXPECT_EQ(decoded->threads_granted, 0u);
  EXPECT_TRUE(decoded->journal_status.ok());
}

TEST(WireResponseTest, ShedResponseRoundTripsThreadsGranted) {
  // A shed response never granted threads; a served one reports its
  // grant. Both values must survive the wire exactly.
  for (const uint64_t granted : {uint64_t{0}, uint64_t{3}}) {
    WireResponse response;
    response.kind = WireFrameType::kFlush;
    response.threads_granted = granted;
    if (granted == 0) {
      response.status =
          Status::ResourceExhausted("shed").WithRetryAfterMs(40);
    }
    WireTableEncoder encoder;
    WireTableDecoder decoder(TestSchema());
    auto decoded =
        DecodeWireResponse(EncodeWireResponse(response, &encoder), &decoder);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->threads_granted, granted);
    EXPECT_EQ(decoded->status.retry_after_ms(), granted == 0 ? 40 : -1);
  }
}

TEST(WireResponseTest, IngestRoundTrip) {
  WireResponse response;
  response.kind = WireFrameType::kIngest;
  response.journal_status = Status::IOError("disk gone");
  response.threads_granted = 3;
  response.ingest.epoch = 2;
  response.ingest.flushed = true;
  response.ingest.rows_emitted = 10;
  response.ingest.rows_suppressed = 1;
  response.ingest.rows_buffered = 5;
  response.ingest.emitted = TestTable();
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  auto decoded =
      DecodeWireResponse(EncodeWireResponse(response, &encoder), &decoder);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->journal_status.code(), StatusCode::kIOError);
  EXPECT_EQ(decoded->threads_granted, 3u);
  EXPECT_EQ(decoded->ingest.epoch, 2u);
  EXPECT_TRUE(decoded->ingest.flushed);
  EXPECT_EQ(decoded->ingest.rows_emitted, 10u);
  EXPECT_EQ(decoded->ingest.rows_suppressed, 1u);
  EXPECT_EQ(decoded->ingest.rows_buffered, 5u);
  ExpectTablesEqual(response.ingest.emitted, decoded->ingest.emitted);
}

TEST(WireResponseTest, DetectRoundTripPreservesExactMargins) {
  WireResponse response;
  response.kind = WireFrameType::kDetect;
  DetectReport report;
  report.recovered = BitVector::FromString("1011").ValueOrDie();
  report.tuples_selected = 100;
  report.slots_read = 400;
  report.slots_skipped = 3;
  report.vote_margin = {0.1, -0.0, 1e-17, 12345.6789};
  report.bit_voted = {true, false, true, true};
  response.reports.push_back(report);
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  auto decoded =
      DecodeWireResponse(EncodeWireResponse(response, &encoder), &decoder);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->reports.size(), 1u);
  const DetectReport& out = decoded->reports[0];
  EXPECT_EQ(out.recovered.ToString(), "1011");
  EXPECT_EQ(out.tuples_selected, 100u);
  EXPECT_EQ(out.slots_read, 400u);
  EXPECT_EQ(out.slots_skipped, 3u);
  EXPECT_EQ(out.vote_margin, report.vote_margin);  // exact doubles
  EXPECT_EQ(out.bit_voted, report.bit_voted);
}

TEST(WireResponseTest, CloseRoundTripCarriesManifestText) {
  WireResponse response;
  response.kind = WireFrameType::kClose;
  response.close.rows_ingested = 30;
  response.close.rows_emitted = 28;
  response.close.rows_suppressed = 2;
  WireEpochSummary epoch;
  epoch.epoch = 1;
  epoch.rows_emitted = 28;
  epoch.wmd_size = 160;
  epoch.identifier_statistic = 3.75;
  epoch.manifest_text = "PRIVMARK-MANIFESTv1\nversion = 1\n";
  response.close.epochs.push_back(epoch);
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  auto decoded =
      DecodeWireResponse(EncodeWireResponse(response, &encoder), &decoder);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->close.epochs.size(), 1u);
  EXPECT_EQ(decoded->close.rows_ingested, 30u);
  EXPECT_EQ(decoded->close.epochs[0].manifest_text, epoch.manifest_text);
  EXPECT_EQ(decoded->close.epochs[0].identifier_statistic, 3.75);
}

TEST(WireResponseTest, TruncationAtEveryByteRefused) {
  WireResponse response;
  response.kind = WireFrameType::kFlush;
  response.flush.epoch = 1;
  response.flush.identifier_statistic = 2.5;
  response.flush.emitted = TestTable();
  WireTableEncoder encoder;
  const std::string payload = EncodeWireResponse(response, &encoder);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WireTableDecoder decoder(TestSchema());
    auto decoded = DecodeWireResponse(payload.substr(0, cut), &decoder);
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

// Every sequence ends its payload with one element encoded as small as
// it goes (empty strings and lists), so the count guard meets an element
// that is exactly its minimum size and must still accept it.
TEST(WireResponseTest, MinimalElementsRoundTrip) {
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  WireResponse response;
  response.kind = WireFrameType::kDetect;
  response.reports.resize(1);
  auto detect =
      DecodeWireResponse(EncodeWireResponse(response, &encoder), &decoder);
  ASSERT_TRUE(detect.ok()) << detect.status().ToString();
  EXPECT_EQ(detect->reports.size(), 1u);

  response.kind = WireFrameType::kFingerprint;
  response.fingerprints.resize(1);
  auto full =
      DecodeWireResponse(EncodeWireResponse(response, &encoder), &decoder);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->fingerprints.size(), 1u);
  auto tails = DecodeWireResponseStreamedTails(
      EncodeWireResponseStreamedTails(response));
  ASSERT_TRUE(tails.ok()) << tails.status().ToString();
  EXPECT_EQ(tails->fingerprints.size(), 1u);

  response.kind = WireFrameType::kClose;
  response.close.epochs.resize(1);
  auto close =
      DecodeWireResponse(EncodeWireResponse(response, &encoder), &decoder);
  ASSERT_TRUE(close.ok()) << close.status().ToString();
  EXPECT_EQ(close->close.epochs.size(), 1u);

  FingerprintShard shard;
  shard.verdicts.resize(1);
  auto decoded = DecodeWireFingerprintShard(EncodeWireFingerprintShard(shard));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->verdicts.size(), 1u);
}

// A count whose elements, held in memory at `element_bytes` each, take a
// little over 1 GiB: past the allocation cap CI runs this suite under.
uint32_t CountOver1GiB(size_t element_bytes) {
  return static_cast<uint32_t>((size_t{1} << 30) / element_bytes * 17 / 16);
}

// Swaps the trailing u32 count of an encoded empty sequence for `count`
// and pads the payload with `bytes_per_element` zero bytes per claimed
// element.
std::string WithClaimedCount(std::string payload, uint32_t count,
                             size_t bytes_per_element) {
  payload.resize(payload.size() - 4);
  AppendLe32(&payload, count);
  payload.append(size_t{count} * bytes_per_element, '\0');
  return payload;
}

// Each payload holds 4 (or, for shard verdicts, 8) bytes per claimed
// element — too few for any real element, but enough to pass a guard
// that only divides the bytes left by that much, after which sizing the
// list from the count allocates over 1 GiB. Each count must be refused
// from its element's minimum encoded size before anything is allocated.
TEST(WireResponseTest, HostileReportCountsRefusedBeforeAllocating) {
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  WireResponse response;
  response.kind = WireFrameType::kDetect;
  auto detect = DecodeWireResponse(
      WithClaimedCount(EncodeWireResponse(response, &encoder),
                       CountOver1GiB(sizeof(DetectReport)), 4),
      &decoder);
  ASSERT_FALSE(detect.ok());
  EXPECT_EQ(detect.status().code(), StatusCode::kInvalidArgument);

  response.kind = WireFrameType::kFingerprint;
  const uint32_t reports = CountOver1GiB(sizeof(FingerprintReport));
  auto full = DecodeWireResponse(
      WithClaimedCount(EncodeWireResponse(response, &encoder), reports, 4),
      &decoder);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kInvalidArgument);
  auto tails = DecodeWireResponseStreamedTails(WithClaimedCount(
      EncodeWireResponseStreamedTails(response), reports, 4));
  ASSERT_FALSE(tails.ok());
  EXPECT_EQ(tails.status().code(), StatusCode::kInvalidArgument);

  auto shard = DecodeWireFingerprintShard(
      WithClaimedCount(EncodeWireFingerprintShard(FingerprintShard()),
                       CountOver1GiB(sizeof(KeyVerdict)), 8));
  ASSERT_FALSE(shard.ok());
  EXPECT_EQ(shard.status().code(), StatusCode::kInvalidArgument);
}

// ---- typed backpressure hint ---------------------------------------------

TEST(RetryAfterTest, TypedHintTravelsOnTheStatus) {
  const Status shed =
      Status::ResourceExhausted("queue full").WithRetryAfterMs(350);
  EXPECT_EQ(shed.retry_after_ms(), 350);
  EXPECT_EQ(Status::ResourceExhausted("shed now")
                .WithRetryAfterMs(0)
                .retry_after_ms(),
            0);
  // The hint participates in equality: two otherwise-identical statuses
  // with different hints are different.
  EXPECT_FALSE(shed == Status::ResourceExhausted("queue full"));
}

TEST(RetryAfterTest, AbsentHintYieldsMinusOne) {
  EXPECT_EQ(Status::OK().retry_after_ms(), -1);
  EXPECT_EQ(Status::ResourceExhausted("no hint").retry_after_ms(), -1);
  // Message text mentioning the old convention is just text now.
  EXPECT_EQ(Status::ResourceExhausted("retry_after_ms=10").retry_after_ms(),
            -1);
}

// ---- streamed fingerprint frames -----------------------------------------

FingerprintShard TestShard() {
  FingerprintShard shard;
  shard.epoch = 1;
  shard.shard = 4;
  shard.first_key = 96;
  KeyVerdict a;
  a.key_name = "recipient-a";
  a.detected = true;
  a.score = 0.875;
  a.margin_ratio = 1.5;
  a.mark_match = 0.5;
  a.p_value = 1e-9;
  KeyVerdict b;
  b.key_name = "recipient-b";
  b.detected = false;
  b.score = -0.0;  // sign bit must survive
  shard.verdicts = {a, b};
  return shard;
}

TEST(WireFingerprintShardTest, RoundTripsEveryField) {
  const FingerprintShard shard = TestShard();
  auto decoded = DecodeWireFingerprintShard(EncodeWireFingerprintShard(shard));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch, 1u);
  EXPECT_EQ(decoded->shard, 4u);
  EXPECT_EQ(decoded->first_key, 96u);
  ASSERT_EQ(decoded->verdicts.size(), 2u);
  EXPECT_EQ(decoded->verdicts[0].key_name, "recipient-a");
  EXPECT_TRUE(decoded->verdicts[0].detected);
  EXPECT_EQ(decoded->verdicts[0].score, 0.875);
  EXPECT_EQ(decoded->verdicts[0].margin_ratio, 1.5);
  EXPECT_EQ(decoded->verdicts[0].mark_match, 0.5);
  EXPECT_EQ(decoded->verdicts[0].p_value, 1e-9);
  EXPECT_EQ(decoded->verdicts[1].key_name, "recipient-b");
  EXPECT_TRUE(std::signbit(decoded->verdicts[1].score));
}

TEST(WireFingerprintShardTest, TruncationAtEveryByteRefused) {
  const std::string payload = EncodeWireFingerprintShard(TestShard());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeWireFingerprintShard(payload.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  EXPECT_FALSE(DecodeWireFingerprintShard(payload + "x").ok());
}

// Builds a small fingerprint response whose verdicts are consistent
// with its ranking (the tails codec leans on that invariant).
WireResponse TestFingerprintResponse() {
  WireResponse response;
  response.kind = WireFrameType::kFingerprint;
  response.threads_granted = 2;
  FingerprintReport report;
  for (int i = 0; i < 3; ++i) {
    KeyVerdict v;
    v.key_name = "key-" + std::to_string(i);
    v.detected = i == 1;
    v.score = 0.25 * i;
    report.verdicts.push_back(v);
  }
  report.ranking = {1, 2, 0};
  report.keys_detected = 1;
  report.collusion = false;
  response.fingerprints.push_back(report);
  return response;
}

TEST(WireStreamedTailsTest, TailsRoundTripWithoutVerdicts) {
  const WireResponse response = TestFingerprintResponse();
  auto decoded =
      DecodeWireResponseStreamedTails(EncodeWireResponseStreamedTails(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, WireFrameType::kFingerprint);
  EXPECT_EQ(decoded->threads_granted, 2u);
  ASSERT_EQ(decoded->fingerprints.size(), 1u);
  const FingerprintReport& tail = decoded->fingerprints[0];
  // The tails deliberately omit the verdicts (they crossed in the
  // partial frames); the ranking still states how many there were.
  EXPECT_TRUE(tail.verdicts.empty());
  EXPECT_EQ(tail.ranking, (std::vector<size_t>{1, 2, 0}));
  EXPECT_EQ(tail.keys_detected, 1u);
  EXPECT_FALSE(tail.collusion);
}

TEST(WireStreamedTailsTest, ErrorTailsCarryStatus) {
  WireResponse response;
  response.kind = WireFrameType::kFingerprint;
  response.status = Status::InvalidArgument("bad registry");
  auto decoded =
      DecodeWireResponseStreamedTails(EncodeWireResponseStreamedTails(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(decoded->fingerprints.empty());
}

// A ranking must be a permutation of the verdict indices: a repeated
// index would make a client print one suspect twice and never another.
TEST(WireStreamedTailsTest, RankingWithARepeatedIndexRefused) {
  WireResponse response = TestFingerprintResponse();
  response.fingerprints[0].verdicts.resize(2);
  response.fingerprints[0].ranking = {0, 0};
  WireTableEncoder encoder;
  WireTableDecoder decoder(TestSchema());
  auto full =
      DecodeWireResponse(EncodeWireResponse(response, &encoder), &decoder);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kInvalidArgument);
  auto tails =
      DecodeWireResponseStreamedTails(EncodeWireResponseStreamedTails(response));
  ASSERT_FALSE(tails.ok());
  EXPECT_EQ(tails.status().code(), StatusCode::kInvalidArgument);
  // The same two verdicts ranked as a permutation still decode.
  response.fingerprints[0].ranking = {1, 0};
  EXPECT_TRUE(
      DecodeWireResponse(EncodeWireResponse(response, &encoder), &decoder)
          .ok());
}

TEST(WireStreamedTailsTest, TruncationAtEveryByteRefused) {
  const std::string payload =
      EncodeWireResponseStreamedTails(TestFingerprintResponse());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeWireResponseStreamedTails(payload.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  EXPECT_FALSE(DecodeWireResponseStreamedTails(payload + "x").ok());
}

}  // namespace
}  // namespace privmark
