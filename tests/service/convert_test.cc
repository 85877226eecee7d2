// The conversion-seam suite (service/convert.h): one conversion per
// request frame through ToServiceRequest, the frame/kind mapping, and
// the non-OK response envelope that ToWireResponse pins down
// (threads_granted = 0, journal_status OK, retry hint on the status). A field added to either request surface must fail here, not
// silently drop in a hand-copy.

#include "service/convert.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/manifest.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "watermark/key_registry.h"

namespace privmark {
namespace {

Schema TestSchema() {
  return Schema({{"id", ColumnRole::kIdentifying, ValueType::kString},
                 {"age", ColumnRole::kQuasiNumeric, ValueType::kInt64}});
}

Table TestTable() {
  Table table(TestSchema());
  EXPECT_TRUE(table.AppendRow({Value::String("s-1"), Value::Int64(41)}).ok());
  EXPECT_TRUE(table.AppendRow({Value::String("s-2"), Value::Int64(17)}).ok());
  return table;
}

std::shared_ptr<const KeyRegistry> TestRegistry() {
  KeyRegistry registry;
  Random rng(77);
  EXPECT_TRUE(registry.Add(GenerateKey("recipient-a", 10, &rng)).ok());
  EXPECT_TRUE(registry.Add(GenerateKey("recipient-b", 10, &rng)).ok());
  return std::make_shared<const KeyRegistry>(std::move(registry));
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

// ---- frame -> kind mapping ------------------------------------------------

// Every RequestKind, with the request frame type it travels as.
constexpr std::pair<WireFrameType, RequestKind> kAllKinds[] = {
    {WireFrameType::kIngest, RequestKind::kProtectBatch},
    {WireFrameType::kFlush, RequestKind::kFlush},
    {WireFrameType::kDetect, RequestKind::kDetect},
    {WireFrameType::kFingerprint, RequestKind::kDetectFingerprint},
    {WireFrameType::kClose, RequestKind::kCloseSession}};

WireFrameType FrameFor(RequestKind kind) {
  for (const auto& [frame, mapped] : kAllKinds) {
    if (mapped == kind) return frame;
  }
  ADD_FAILURE() << "no frame for " << RequestKindToString(kind);
  return WireFrameType::kResponse;
}

TEST(ConvertKindTest, EveryKindRoundTripsThroughItsFrame) {
  for (const auto& [frame, kind] : kAllKinds) {
    auto back = RequestKindForFrame(frame);
    ASSERT_TRUE(back.ok()) << RequestKindToString(kind);
    EXPECT_EQ(*back, kind) << RequestKindToString(kind);
  }
}

TEST(ConvertKindTest, NonRequestFramesHaveNoKind) {
  for (const WireFrameType type :
       {WireFrameType::kOpen, WireFrameType::kResponse,
        WireFrameType::kPartial}) {
    auto kind = RequestKindForFrame(type);
    ASSERT_FALSE(kind.ok()) << WireFrameTypeToString(type);
    EXPECT_EQ(kind.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---- per-kind request round-trips -----------------------------------------

// Builds the wire request `request` would travel as, sends it through
// ToServiceRequest, and checks the shared fields; returns the converted
// request for kind-specific assertions.
ServiceRequest RoundTrip(const ServiceRequest& request) {
  WireRequest wire;
  wire.type = FrameFor(request.kind);
  wire.session = request.session;
  wire.ask = static_cast<uint64_t>(request.num_threads);
  wire.deadline_ms = request.deadline_ms;
  wire.table = request.table;
  if (request.registry != nullptr) {
    wire.registry_text = request.registry->Serialize();
  }
  auto back = ToServiceRequest(wire);
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->kind, request.kind);
  EXPECT_EQ(back->session, request.session);
  EXPECT_EQ(back->num_threads, request.num_threads);
  EXPECT_EQ(back->deadline_ms, request.deadline_ms);
  return *std::move(back);
}

TEST(ConvertRequestTest, ProtectBatchRoundTripsTable) {
  ServiceRequest request;
  request.kind = RequestKind::kProtectBatch;
  request.session = "ward-a";
  request.table = TestTable();
  request.num_threads = 4;
  request.deadline_ms = 2500;
  const ServiceRequest back = RoundTrip(request);
  ExpectTablesEqual(request.table, back.table);
}

TEST(ConvertRequestTest, FlushRoundTripsSessionThreadsSentinel) {
  ServiceRequest request;
  request.kind = RequestKind::kFlush;
  request.session = "ward-b";
  // The defaults themselves must survive: kSessionThreads is a
  // sentinel, not a count, and must come back as exactly that value.
  const ServiceRequest back = RoundTrip(request);
  EXPECT_EQ(back.num_threads, kSessionThreads);
  EXPECT_EQ(back.deadline_ms, kDeadlineFromConfig);
}

TEST(ConvertRequestTest, DetectRoundTripsTable) {
  ServiceRequest request;
  request.kind = RequestKind::kDetect;
  request.session = "ward-c";
  request.table = TestTable();
  const ServiceRequest back = RoundTrip(request);
  ExpectTablesEqual(request.table, back.table);
}

TEST(ConvertRequestTest, FingerprintRoundTripsRegistryLosslessly) {
  ServiceRequest request;
  request.kind = RequestKind::kDetectFingerprint;
  request.session = "audit";
  request.table = TestTable();
  request.registry = TestRegistry();
  const ServiceRequest back = RoundTrip(request);
  ASSERT_NE(back.registry, nullptr);
  // Serialize/Parse is the wire's registry transport; the round-tripped
  // registry must be byte-identical under re-serialization (names,
  // order, key material, eta — everything).
  EXPECT_EQ(back.registry->Serialize(), request.registry->Serialize());
  // No sink crossed the seam: a sink is transport-local.
  EXPECT_EQ(back.fingerprint_sink, nullptr);
}

TEST(ConvertRequestTest, StreamFlagLeavesTheSinkToTheTransport) {
  // The stream flag asks the transport for a streamed response; the
  // sink that writes the partial frames is the transport's to attach,
  // so the conversion never invents one.
  WireRequest wire;
  wire.type = WireFrameType::kFingerprint;
  wire.session = "audit";
  wire.registry_text = TestRegistry()->Serialize();
  wire.stream = true;
  auto request = ToServiceRequest(wire);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->kind, RequestKind::kDetectFingerprint);
  EXPECT_EQ(request->fingerprint_sink, nullptr);
}

TEST(ConvertRequestTest, CloseRoundTrips) {
  ServiceRequest request;
  request.kind = RequestKind::kCloseSession;
  request.session = "done";
  RoundTrip(request);
}

TEST(ConvertRequestTest, MalformedRegistryTextRejected) {
  WireRequest wire;
  wire.type = WireFrameType::kFingerprint;
  wire.session = "audit";
  wire.registry_text = "not a registry";
  auto request = ToServiceRequest(wire);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
}

// ---- response envelope ----------------------------------------------------

TEST(ConvertResponseTest, NonOkResultPinsDownTheEnvelope) {
  const Status shed =
      Status::ResourceExhausted("queue full").WithRetryAfterMs(120);
  const WireResponse response = ToWireResponse(
      WireFrameType::kIngest, Result<ServiceResponse>(shed));
  EXPECT_EQ(response.kind, WireFrameType::kIngest);
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(response.status.retry_after_ms(), 120);
  EXPECT_EQ(response.threads_granted, 0u);
  EXPECT_TRUE(response.journal_status.ok());
}

TEST(ConvertResponseTest, IngestResultCopiesEveryField) {
  ServiceResponse executed;
  executed.kind = RequestKind::kProtectBatch;
  executed.threads_granted = 3;
  executed.journal_status = Status::IOError("barrier degraded");
  executed.ingest.epoch = 2;
  executed.ingest.flushed = true;
  executed.ingest.rows_emitted = 10;
  executed.ingest.rows_suppressed = 1;
  executed.ingest.rows_buffered = 4;
  executed.ingest.emitted = TestTable();
  const WireResponse response = ToWireResponse(
      WireFrameType::kIngest, Result<ServiceResponse>(std::move(executed)));
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.threads_granted, 3u);
  EXPECT_EQ(response.journal_status.code(), StatusCode::kIOError);
  EXPECT_EQ(response.ingest.epoch, 2u);
  EXPECT_TRUE(response.ingest.flushed);
  EXPECT_EQ(response.ingest.rows_emitted, 10u);
  EXPECT_EQ(response.ingest.rows_suppressed, 1u);
  EXPECT_EQ(response.ingest.rows_buffered, 4u);
  EXPECT_EQ(response.ingest.emitted.num_rows(), 2u);
}

TEST(ConvertResponseTest, CloseSerializesEachEpochManifest) {
  ServiceResponse executed;
  executed.kind = RequestKind::kCloseSession;
  executed.stats.rows_ingested = 30;
  executed.stats.rows_emitted = 28;
  executed.stats.rows_suppressed = 2;
  EpochRecord epoch;
  epoch.epoch = 1;
  epoch.rows_emitted = 28;
  executed.stats.epochs.push_back(epoch);
  ProtectionManifest manifest;
  manifest.mark_bits = 16;
  manifest.key_id = "clinic-a";
  executed.stats.manifests.push_back(manifest);
  const WireResponse response = ToWireResponse(
      WireFrameType::kClose, Result<ServiceResponse>(std::move(executed)));
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.close.epochs.size(), 1u);
  EXPECT_EQ(response.close.epochs[0].manifest_text,
            SerializeManifest(manifest));
  EXPECT_EQ(response.close.rows_ingested, 30u);
}

}  // namespace
}  // namespace privmark
