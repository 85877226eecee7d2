// Daemon robustness suite: the network front-end against well-formed
// clients, hostile peers (bad magic, oversized lengths, unknown tags,
// CRC damage, mid-frame disconnects), injected socket faults, overload
// (typed retry_after_ms shedding over the wire), and a peer that stops
// reading its responses. A protocol
// error must be fatal to the offending connection only — the daemon
// keeps serving everyone else.

#include "service/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/binenc.h"
#include "common/failpoint.h"
#include "core/journal.h"
#include "datagen/medical_data.h"
#include "relation/csv.h"
#include "service/client.h"

namespace privmark {
namespace {

constexpr size_t kRows = 1200;

struct Env {
  std::unique_ptr<MedicalDataset> dataset;
  std::unique_ptr<PrivmarkDaemon> daemon;
};

// A daemon on an ephemeral loopback port, serving the medical schema
// with the suite's ontologies.
Env StartDaemon(ServiceConfig service_config = ServiceConfig()) {
  Env env;
  MedicalDataSpec spec;
  spec.num_rows = kRows;
  spec.seed = 515151;
  env.dataset = std::make_unique<MedicalDataset>(
      std::move(GenerateMedicalDataset(spec)).ValueOrDie());
  MedicalDataset* ontologies = env.dataset.get();
  DaemonConfig config;
  config.service = std::move(service_config);
  config.schema = MedicalSchema();
  config.metrics_for_config =
      [ontologies](const FrameworkConfig& fc) -> Result<UsageMetrics> {
    if (fc.binning.enforce_joint) {
      return UnconstrainedMetrics(ontologies->trees());
    }
    return MetricsFromDepthCuts(ontologies->trees(), {2, 1, 2, 1, 1});
  };
  env.daemon = std::make_unique<PrivmarkDaemon>(std::move(config));
  EXPECT_TRUE(env.daemon->Start(0).ok());
  return env;
}

WireRequest OpenRequest(const std::string& session) {
  WireRequest request;
  request.type = WireFrameType::kOpen;
  request.session = session;
  request.open.k = 10;
  request.open.passphrase = session + "-pass";
  request.open.k1 = session + "-k1";
  request.open.k2 = session + "-k2";
  request.open.eta = 10;
  return request;
}

// Raw loopback socket for hostile-peer tests; -1 on failure.
int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One request frame under the wire envelope, as a client would send it.
std::string RequestFrame(WireFrameType type, const std::string& payload) {
  WireFrame frame;
  frame.type = type;
  frame.request_id = 1;
  frame.payload = payload;
  auto encoded = EncodeWireFrame(frame, kWireProtocolV2);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  return encoded.ok() ? *encoded : std::string();
}

// Sends `bytes` verbatim, then waits for the daemon to hang up (recv
// returning 0/-1 rather than more protocol bytes beyond `expect_back`).
void ExpectDisconnectAfter(int fd, const std::string& bytes,
                           size_t expect_back) {
  ASSERT_TRUE(WriteFullySocket(fd, bytes.data(), bytes.size()));
  std::string sink(expect_back + 1, '\0');
  size_t got = 0;
  while (got < sink.size()) {
    const ssize_t n = ::recv(fd, sink.data() + got, sink.size() - got, 0);
    if (n <= 0) break;  // daemon hung up — the expected outcome
    got += static_cast<size_t>(n);
  }
  EXPECT_LE(got, expect_back) << "daemon kept talking past the expected "
                                 "echo instead of hanging up";
  ::close(fd);
}

// The daemon must still serve a well-formed client (proof that a
// hostile connection did not take the process down with it).
void ExpectStillServing(PrivmarkDaemon* daemon, const std::string& session) {
  DaemonClient client(MedicalSchema());
  ASSERT_TRUE(client.Connect("127.0.0.1", daemon->port()).ok());
  auto open = client.Call(OpenRequest(session));
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_TRUE(open->status.ok()) << open->status.ToString();
  WireRequest close;
  close.type = WireFrameType::kClose;
  close.session = session;
  auto closed = client.Call(close);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed->status.ok());
}

// Entries of a /proc directory: /proc/self/fd counts open fds,
// /proc/self/task counts threads.
size_t CountEntries(const char* dir) {
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++count;
  }
  return count;
}

// ---- happy path -----------------------------------------------------------

TEST(DaemonTest, FullLifecycleOverTheWire) {
  Env env = StartDaemon();
  DaemonClient client(MedicalSchema());
  ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok());

  auto open = client.Call(OpenRequest("ward"));
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_TRUE(open->status.ok()) << open->status.ToString();
  EXPECT_FALSE(open->open.recovered);

  WireRequest ingest;
  ingest.type = WireFrameType::kIngest;
  ingest.session = "ward";
  ingest.table = env.dataset->table.Clone();
  auto ingested = client.Call(ingest);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  ASSERT_TRUE(ingested->status.ok()) << ingested->status.ToString();
  EXPECT_EQ(ingested->ingest.rows_buffered, kRows);

  WireRequest flush;
  flush.type = WireFrameType::kFlush;
  flush.session = "ward";
  auto flushed = client.Call(flush);
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  ASSERT_TRUE(flushed->status.ok()) << flushed->status.ToString();
  EXPECT_EQ(flushed->flush.emitted.num_rows(), kRows);

  WireRequest detect;
  detect.type = WireFrameType::kDetect;
  detect.session = "ward";
  detect.table = flushed->flush.emitted.Clone();
  auto detected = client.Call(detect);
  ASSERT_TRUE(detected.ok()) << detected.status().ToString();
  ASSERT_TRUE(detected->status.ok()) << detected->status.ToString();
  ASSERT_EQ(detected->reports.size(), 1u);
  EXPECT_GT(detected->reports[0].tuples_selected, 0u);

  WireRequest close;
  close.type = WireFrameType::kClose;
  close.session = "ward";
  auto closed = client.Call(close);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  ASSERT_TRUE(closed->status.ok()) << closed->status.ToString();
  EXPECT_EQ(closed->close.rows_ingested, kRows);
  ASSERT_EQ(closed->close.epochs.size(), 1u);
  // The manifest crossed the wire serialized; it must parse back.
  EXPECT_FALSE(closed->close.epochs[0].manifest_text.empty());

  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonTest, ServiceErrorsTravelAsResponsesNotDisconnects) {
  Env env = StartDaemon();
  DaemonClient client(MedicalSchema());
  ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok());
  // Ingest into a session that was never opened: a service-level error.
  WireRequest ingest;
  ingest.type = WireFrameType::kIngest;
  ingest.session = "nobody";
  auto response = client.Call(ingest);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->status.ok());
  // The connection survived the error; the client can keep using it.
  auto open = client.Call(OpenRequest("ward"));
  ASSERT_TRUE(open.ok());
  EXPECT_TRUE(open->status.ok());
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonTest, ZeroEtaOpenIsRefusedAndTheConnectionKeepsServing) {
  Env env = StartDaemon();
  DaemonClient client(MedicalSchema());
  ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok());
  WireRequest zero = OpenRequest("ward");
  zero.open.eta = 0;
  auto refused = client.Call(zero);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->status.code(), StatusCode::kInvalidArgument)
      << refused->status.ToString();

  // Same connection: a valid session opens, ingests and flushes.
  auto open = client.Call(OpenRequest("ward"));
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_TRUE(open->status.ok()) << open->status.ToString();
  WireRequest ingest;
  ingest.type = WireFrameType::kIngest;
  ingest.session = "ward";
  ingest.table = env.dataset->table.Clone();
  auto ingested = client.Call(ingest);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  ASSERT_TRUE(ingested->status.ok()) << ingested->status.ToString();
  WireRequest flush;
  flush.type = WireFrameType::kFlush;
  flush.session = "ward";
  auto flushed = client.Call(flush);
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  ASSERT_TRUE(flushed->status.ok()) << flushed->status.ToString();
  EXPECT_EQ(flushed->flush.emitted.num_rows(), kRows);
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonTest, ZeroKOpenIsRefusedAndTheConnectionKeepsServing) {
  Env env = StartDaemon();
  DaemonClient client(MedicalSchema());
  ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok());
  WireRequest zero = OpenRequest("ward");
  zero.open.k = 0;
  auto refused = client.Call(zero);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->status.code(), StatusCode::kInvalidArgument)
      << refused->status.ToString();

  // Same connection, same name: a valid session opens and flushes.
  auto open = client.Call(OpenRequest("ward"));
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_TRUE(open->status.ok()) << open->status.ToString();
  WireRequest ingest;
  ingest.type = WireFrameType::kIngest;
  ingest.session = "ward";
  ingest.table = env.dataset->table.Clone();
  auto ingested = client.Call(ingest);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  ASSERT_TRUE(ingested->status.ok()) << ingested->status.ToString();
  WireRequest flush;
  flush.type = WireFrameType::kFlush;
  flush.session = "ward";
  auto flushed = client.Call(flush);
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  ASSERT_TRUE(flushed->status.ok()) << flushed->status.ToString();
  EXPECT_EQ(flushed->flush.emitted.num_rows(), kRows);
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonTest, NonFiniteDriftThresholdOpenIsRefused) {
  Env env = StartDaemon();
  DaemonClient client(MedicalSchema());
  ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok());
  WireRequest nan = OpenRequest("ward");
  nan.open.policy = 1;  // RebinPolicy::kRebinOnDrift
  nan.open.drift_threshold = std::numeric_limits<double>::quiet_NaN();
  auto refused = client.Call(nan);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->status.code(), StatusCode::kInvalidArgument)
      << refused->status.ToString();

  // Same connection, same name: a finite threshold opens.
  WireRequest finite = OpenRequest("ward");
  finite.open.policy = 1;
  auto open = client.Call(finite);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_TRUE(open->status.ok()) << open->status.ToString();
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

// ---- hostile peers --------------------------------------------------------

TEST(DaemonTest, BadMagicIsFatalToTheConnectionOnly) {
  Env env = StartDaemon();
  const int fd = RawConnect(env.daemon->port());
  ASSERT_GE(fd, 0);
  ExpectDisconnectAfter(fd, "HTTP/1.1 GET / please", /*expect_back=*/0);
  ExpectStillServing(env.daemon.get(), "after-bad-magic");
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonTest, OversizedLengthFrameIsFatalToTheConnectionOnly) {
  Env env = StartDaemon();
  const int fd = RawConnect(env.daemon->port());
  ASSERT_GE(fd, 0);
  std::string bytes(kWireMagic, kWireMagicSize);
  // A frame header claiming a 4GiB-1 payload. The daemon must refuse
  // from the header alone (no allocation) and hang up after the echo.
  const uint32_t huge = 0xffffffffu;
  bytes.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  bytes.append(4, '\0');
  ExpectDisconnectAfter(fd, bytes, /*expect_back=*/kWireMagicSize);
  ExpectStillServing(env.daemon.get(), "after-oversized");
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonTest, UnknownFrameTagIsFatalToTheConnectionOnly) {
  Env env = StartDaemon();
  const int fd = RawConnect(env.daemon->port());
  ASSERT_GE(fd, 0);
  std::string bytes(kWireMagic, kWireMagicSize);
  // Encode is by-construction trusted; the daemon's decode is not.
  bytes += RequestFrame(static_cast<WireFrameType>(0x2a), "payload");
  ExpectDisconnectAfter(fd, bytes, /*expect_back=*/kWireMagicSize);
  ExpectStillServing(env.daemon.get(), "after-unknown-tag");
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonTest, CorruptCrcIsFatalToTheConnectionOnly) {
  Env env = StartDaemon();
  const int fd = RawConnect(env.daemon->port());
  ASSERT_GE(fd, 0);
  std::string bytes(kWireMagic, kWireMagicSize);
  WireTableEncoder encoder;
  WireRequest request;
  request.type = WireFrameType::kClose;
  request.session = "x";
  std::string frame =
      RequestFrame(WireFrameType::kClose, EncodeWireRequest(request, &encoder));
  ASSERT_FALSE(frame.empty());
  frame[frame.size() - 1] ^= 0x40;  // damage the payload, not the CRC
  bytes += frame;
  ExpectDisconnectAfter(fd, bytes, /*expect_back=*/kWireMagicSize);
  ExpectStillServing(env.daemon.get(), "after-crc");
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonTest, HostileRowCountIngestIsFatalToTheConnectionOnly) {
  Env env = StartDaemon();
  // Connected before the attack; must still be served after it.
  DaemonClient bystander(MedicalSchema());
  ASSERT_TRUE(bystander.Connect("127.0.0.1", env.daemon->port()).ok());

  const int fd = RawConnect(env.daemon->port());
  ASSERT_GE(fd, 0);
  // A well-formed ingest envelope whose table block claims 2^32 - 1 rows
  // in 13 bytes. Decoding must refuse it without sizing anything from the
  // claim; the daemon then hangs up on this connection alone.
  WireTableEncoder encoder;
  WireRequest ingest;
  ingest.type = WireFrameType::kIngest;
  ingest.session = "victim";
  std::string payload = EncodeWireRequest(ingest, &encoder);
  payload.resize(payload.size() - 8);  // the empty table's 0x0 header
  AppendLe32(&payload, 0xffffffffu);
  AppendLe32(&payload, static_cast<uint32_t>(MedicalSchema().num_columns()));
  payload.push_back(static_cast<char>(WireColumnEncoding::kCells));
  payload.append(4, '\0');
  std::string bytes(kWireMagic, kWireMagicSize);
  bytes += RequestFrame(WireFrameType::kIngest, payload);
  ExpectDisconnectAfter(fd, bytes, /*expect_back=*/kWireMagicSize);

  auto open = bystander.Call(OpenRequest("bystander"));
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_TRUE(open->status.ok()) << open->status.ToString();
  WireRequest close;
  close.type = WireFrameType::kClose;
  close.session = "bystander";
  auto closed = bystander.Call(close);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_TRUE(closed->status.ok());
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonTest, MidFrameDisconnectLeavesTheDaemonServing) {
  Env env = StartDaemon();
  const int fd = RawConnect(env.daemon->port());
  ASSERT_GE(fd, 0);
  std::string bytes(kWireMagic, kWireMagicSize);
  WireTableEncoder encoder;
  const std::string frame = RequestFrame(
      WireFrameType::kOpen, EncodeWireRequest(OpenRequest("torn"), &encoder));
  ASSERT_FALSE(frame.empty());
  // Half the frame, then hang up mid-read.
  bytes += frame.substr(0, frame.size() / 2);
  ASSERT_TRUE(WriteFullySocket(fd, bytes.data(), bytes.size()));
  char echo[kWireMagicSize];
  ASSERT_TRUE(ReadFullySocket(fd, echo, sizeof(echo)));
  ::close(fd);
  ExpectStillServing(env.daemon.get(), "after-torn-frame");
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

// ---- injected socket faults -----------------------------------------------

TEST(DaemonFailpointTest, InjectedReadFaultFailsTheCallNotTheProcess) {
  Env env = StartDaemon();
  {
    DaemonClient client(MedicalSchema());
    ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok());
    // Arm after the handshake (which itself runs through the failpointed
    // helpers): the next read — client or daemon side — fails.
    ASSERT_TRUE(FailpointRegistry::Instance()
                    .Configure("wire.read", "once:1")
                    .ok());
    auto response = client.Call(OpenRequest("faulty"));
    FailpointRegistry::Instance().Reset();
    EXPECT_FALSE(response.ok());
    EXPECT_FALSE(client.connected());
  }
  ExpectStillServing(env.daemon.get(), "after-read-fault");
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonFailpointTest, InjectedWriteFaultFailsTheCallNotTheProcess) {
  Env env = StartDaemon();
  {
    DaemonClient client(MedicalSchema());
    ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok());
    ASSERT_TRUE(FailpointRegistry::Instance()
                    .Configure("wire.write", "once:1")
                    .ok());
    auto response = client.Call(OpenRequest("faulty"));
    FailpointRegistry::Instance().Reset();
    EXPECT_FALSE(response.ok());
    EXPECT_FALSE(client.connected());
  }
  ExpectStillServing(env.daemon.get(), "after-write-fault");
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

// ---- overload: typed backpressure over the wire ---------------------------

TEST(DaemonTest, ShedRequestsCarryTypedRetryAfterMs) {
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  service_config.max_queue_depth = 1;
  Env env = StartDaemon(service_config);

  // One connection opens the session and keeps its strand busy with
  // full-pipeline flushes; rival connections hammer the same session
  // until the depth cap sheds one of them. The assertion is on the
  // *typed* field — a client never parses message text.
  DaemonClient owner(MedicalSchema());
  ASSERT_TRUE(owner.Connect("127.0.0.1", env.daemon->port()).ok());
  auto open = owner.Call(OpenRequest("ward"));
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(open->status.ok());

  std::atomic<bool> shed_seen{false};
  std::atomic<int64_t> shed_hint{-1};
  std::atomic<bool> hard_failure{false};
  constexpr int kRivals = 3;
  constexpr int kAttempts = 120;
  std::vector<std::thread> rivals;
  for (int i = 0; i < kRivals; ++i) {
    rivals.emplace_back([&env, &shed_seen, &shed_hint, &hard_failure, i] {
      DaemonClient rival(MedicalSchema());
      if (!rival.Connect("127.0.0.1", env.daemon->port()).ok()) {
        hard_failure.store(true);
        return;
      }
      MedicalDataSpec spec;
      spec.num_rows = 400;
      spec.seed = 9000 + i;
      MedicalDataset data =
          std::move(GenerateMedicalDataset(spec)).ValueOrDie();
      for (int attempt = 0; attempt < kAttempts && !shed_seen.load();
           ++attempt) {
        WireRequest ingest;
        ingest.type = WireFrameType::kIngest;
        ingest.session = "ward";
        ingest.table = data.table.Clone();
        auto response = rival.Call(ingest);
        if (!response.ok()) {
          hard_failure.store(true);  // transport must never break here
          return;
        }
        if (response->status.code() == StatusCode::kResourceExhausted) {
          shed_hint.store(response->status.retry_after_ms());
          shed_seen.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& rival : rivals) rival.join();
  EXPECT_FALSE(hard_failure.load());
  ASSERT_TRUE(shed_seen.load()) << "queue never filled across "
                                << kRivals * kAttempts << " attempts";
  EXPECT_GT(shed_hint.load(), 0) << "shed response lacked the typed hint";

  WireRequest close;
  close.type = WireFrameType::kClose;
  close.session = "ward";
  auto closed = owner.Call(close);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed->status.ok());  // close is exempt from shedding
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

// ---- handshake -------------------------------------------------------------

TEST(DaemonNegotiationTest, V2PeersNegotiateV2) {
  Env env = StartDaemon();
  DaemonClient client(MedicalSchema());
  ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok());
  auto open = client.Call(OpenRequest("v2v2"));
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_TRUE(open->status.ok()) << open->status.ToString();
  WireRequest ingest;
  ingest.type = WireFrameType::kIngest;
  ingest.session = "v2v2";
  ingest.table = env.dataset->table.Clone();
  auto ingested = client.Call(ingest);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  ASSERT_TRUE(ingested->status.ok()) << ingested->status.ToString();
  WireRequest close;
  close.type = WireFrameType::kClose;
  close.session = "v2v2";
  auto closed = client.Call(close);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  ASSERT_TRUE(closed->status.ok()) << closed->status.ToString();
  EXPECT_EQ(closed->close.rows_ingested, env.dataset->table.num_rows());
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonNegotiationTest, V1MagicGetsNoEchoAndAHangUp) {
  Env env = StartDaemon();
  // A client still speaking the retired lock-step protocol: its magic
  // and a well-formed v1 open frame behind it. The daemon must not echo
  // anything (there is no version to agree on) and must hang up.
  const int fd = RawConnect(env.daemon->port());
  ASSERT_GE(fd, 0);
  std::string bytes = "PRVMNET1";
  WireTableEncoder encoder;
  const std::string payload = EncodeWireRequest(OpenRequest("v1"), &encoder);
  const std::string body =
      std::string(1, static_cast<char>(WireFrameType::kOpen)) + payload;
  AppendLe32(&bytes, static_cast<uint32_t>(payload.size()));
  AppendLe32(&bytes, JournalCrc32(body.data(), body.size()));
  bytes += body;
  ExpectDisconnectAfter(fd, bytes, /*expect_back=*/0);
  ExpectStillServing(env.daemon.get(), "after-v1-magic");
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonNegotiationTest, MixedMagicIsFatal) {
  Env env = StartDaemon();
  // Right prefix, unknown version byte: the daemon must hang up without
  // echoing anything (there is no version to agree on).
  const int fd = RawConnect(env.daemon->port());
  ASSERT_GE(fd, 0);
  ExpectDisconnectAfter(fd, "PRVMNET9", /*expect_back=*/0);
  ExpectStillServing(env.daemon.get(), "after-mixed-magic");
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonNegotiationTest, UnknownFrameTypeUnderV2ClosesConnection) {
  Env env = StartDaemon();
  const int fd = RawConnect(env.daemon->port());
  ASSERT_GE(fd, 0);
  std::string bytes(kWireMagic, kWireMagicSize);
  bytes += RequestFrame(static_cast<WireFrameType>(0x2a), "payload");
  ExpectDisconnectAfter(fd, bytes, /*expect_back=*/kWireMagicSize);
  ExpectStillServing(env.daemon.get(), "after-v2-unknown-tag");
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonNegotiationTest, ResponseTypedFrameFromClientIsFatal) {
  Env env = StartDaemon();
  const int fd = RawConnect(env.daemon->port());
  ASSERT_GE(fd, 0);
  std::string bytes(kWireMagic, kWireMagicSize);
  // Clients never send a response frame.
  bytes += RequestFrame(WireFrameType::kResponse, "");
  ExpectDisconnectAfter(fd, bytes, /*expect_back=*/kWireMagicSize);
  ExpectStillServing(env.daemon.get(), "after-response-frame");
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

// ---- multiplexing ----------------------------------------------------------

TEST(DaemonMultiplexTest, PipelinedCallsCompleteAndMatchTheirIds) {
  Env env = StartDaemon();
  DaemonClient client(MedicalSchema());
  ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok());

  // Pipeline open + ingest + flush + close on one session without
  // waiting in between: same-session order is FIFO by send order, so
  // the whole batch must succeed exactly as a lock-step run would.
  std::vector<DaemonClient::PendingCall> calls;
  auto push = [&calls, &client](const WireRequest& request) {
    auto call = client.CallAsync(request);
    ASSERT_TRUE(call.ok()) << call.status().ToString();
    calls.push_back(*std::move(call));
  };
  push(OpenRequest("pipe"));
  WireRequest ingest;
  ingest.type = WireFrameType::kIngest;
  ingest.session = "pipe";
  ingest.table = env.dataset->table.Clone();
  push(ingest);
  WireRequest flush;
  flush.type = WireFrameType::kFlush;
  flush.session = "pipe";
  push(flush);
  WireRequest close;
  close.type = WireFrameType::kClose;
  close.session = "pipe";
  push(close);

  // Wait in reverse order: the demux must route each response to its
  // id no matter which future the caller collects first.
  for (size_t i = calls.size(); i-- > 0;) {
    auto response = calls[i].Wait();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->status.ok())
        << "call " << i << ": " << response->status.ToString();
    EXPECT_EQ(response->request_id, calls[i].request_id());
  }
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

TEST(DaemonMultiplexTest, PipelinedIngestsLeaveNoThreadsBehind) {
  Env env = StartDaemon();
  DaemonClient client(MedicalSchema());
  ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok());
  auto open = client.Call(OpenRequest("window"));
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_TRUE(open->status.ok()) << open->status.ToString();
  const size_t threads_after_open = CountEntries("/proc/self/task");

  // A full in-flight window of ingests on one connection. Responses are
  // written by the threads that complete the requests, so answering
  // them must not leave any thread behind.
  const Table batch = env.dataset->table.Slice(0, 40);
  std::vector<DaemonClient::PendingCall> calls;
  for (size_t i = 0; i < kMaxInflightPerConnection; ++i) {
    WireRequest ingest;
    ingest.type = WireFrameType::kIngest;
    ingest.session = "window";
    ingest.table = batch.Clone();
    auto call = client.CallAsync(ingest);
    ASSERT_TRUE(call.ok()) << call.status().ToString();
    calls.push_back(*std::move(call));
  }
  for (DaemonClient::PendingCall& call : calls) {
    auto response = call.Wait();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  }
  EXPECT_EQ(CountEntries("/proc/self/task"), threads_after_open);
  EXPECT_TRUE(env.daemon->Shutdown().ok());
}

// ---- a peer that stops reading --------------------------------------------

// A raw peer with a tiny receive buffer (set before connect, so the
// window stays small) on a cap-1 daemon. It opens a session, freezes its
// bins (ingest + flush), so every later ingest answers with its whole
// batch emitted, then pipelines 16 big ingests whose answers hold about
// three times what the loopback buffers take. It reads its answers only
// as the test says.
class StalledPeer {
 public:
  explicit StalledPeer(uint16_t port) {
    MedicalDataSpec spec;
    spec.num_rows = 12000;
    spec.seed = 737373;
    const MedicalDataset big =
        std::move(GenerateMedicalDataset(spec)).ValueOrDie();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int rcvbuf = 4096;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    char echo[kWireMagicSize];
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
            0 &&
        WriteFullySocket(fd_, kWireMagic, kWireMagicSize) &&
        ReadFullySocket(fd_, echo, sizeof(echo));

    WireTableEncoder encoder;
    uint64_t request_id = 0;
    auto append = [&](const WireRequest& request) {
      WireFrame frame;
      frame.type = request.type;
      frame.request_id = ++request_id;
      frame.payload = EncodeWireRequest(request, &encoder);
      bytes_ += EncodeWireFrame(frame, kWireProtocolV2).ValueOrDie();
    };
    append(OpenRequest("stalled"));
    WireRequest ingest;
    ingest.type = WireFrameType::kIngest;
    ingest.session = "stalled";
    ingest.table = big.table.Slice(0, 2000);
    append(ingest);
    WireRequest flush;
    flush.type = WireFrameType::kFlush;
    flush.session = "stalled";
    append(flush);
    ingest.table = big.table.Clone();
    for (int i = 0; i < 16; ++i) append(ingest);
  }

  ~StalledPeer() { ::close(fd_); }

  bool connected() const { return connected_; }

  // Sends every request from a thread of its own (the daemon's reader
  // may stop reading at its in-flight cap).
  void SendAll() {
    sender_ = std::thread([this] {
      (void)WriteFullySocket(fd_, bytes_.data(), bytes_.size());
    });
  }

  // Reads `chunk` bytes of its answers every `period` until HangUp.
  void Trickle(size_t chunk, std::chrono::milliseconds period) {
    reader_ = std::thread([this, chunk, period] {
      std::vector<char> buffer(chunk);
      while (!hung_up_.load()) {
        if (::recv(fd_, buffer.data(), buffer.size(), 0) <= 0) return;
        std::this_thread::sleep_for(period);
      }
    });
  }

  void HangUp() {
    hung_up_.store(true);
    ::shutdown(fd_, SHUT_RDWR);
    if (sender_.joinable()) sender_.join();
    if (reader_.joinable()) reader_.join();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string bytes_;
  std::thread sender_;
  std::thread reader_;
  std::atomic<bool> hung_up_{false};
};

// A well-behaved client opens a session and ingests; true iff both
// answered OK.
bool ServeBystander(const Env& env) {
  DaemonClient client(MedicalSchema());
  if (!client.Connect("127.0.0.1", env.daemon->port()).ok()) return false;
  auto open = client.Call(OpenRequest("bystander"));
  if (!open.ok() || !open->status.ok()) return false;
  WireRequest request;
  request.type = WireFrameType::kIngest;
  request.session = "bystander";
  request.table = env.dataset->table.Clone();
  auto response = client.Call(request);
  return response.ok() && response->status.ok();
}

// Starts `peer`, lets its answers fill the loopback buffers (each is
// ~700 KB, so a handful do, about 0.6 s in, in a Release build), then
// checks that a bystander on the same cap-1 daemon is still served. A
// service worker blocked writing to the peer would stall every session's
// turn; the connection's own writer blocks instead.
void ExpectBystanderServed(Env* env, StalledPeer* peer) {
  peer->SendAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  auto served =
      std::async(std::launch::async, [env] { return ServeBystander(*env); });
  const bool answered =
      served.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(answered) << "a peer that does not read stalled another client";

  // Unblock everything either way: hang up the stalled peer, then shut
  // the daemon down (which also fails a client call still waiting).
  peer->HangUp();
  EXPECT_TRUE(env->daemon->Shutdown().ok());
  const bool ok = served.get();
  if (answered) {
    EXPECT_TRUE(ok);
  }
}

TEST(DaemonStalledPeerTest, NonReadingPeerDoesNotStallOtherClients) {
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  Env env = StartDaemon(service_config);
  StalledPeer peer(env.daemon->port());
  ASSERT_TRUE(peer.connected());
  ExpectBystanderServed(&env, &peer);
}

TEST(DaemonStalledPeerTest, TricklingPeerDoesNotStallOtherClients) {
  // A peer that reads a little every second keeps each write making
  // progress, so no per-write timeout would ever fire on it.
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  Env env = StartDaemon(service_config);
  StalledPeer peer(env.daemon->port());
  ASSERT_TRUE(peer.connected());
  peer.Trickle(512, std::chrono::milliseconds(1000));
  ExpectBystanderServed(&env, &peer);
}

// ---- connection lifetime ---------------------------------------------------

TEST(DaemonTest, FinishedConnectionsAreReaped) {
  Env env = StartDaemon();
  const size_t fds_before = CountEntries("/proc/self/fd");
  const size_t threads_before = CountEntries("/proc/self/task");
  for (int i = 0; i < 500; ++i) {
    DaemonClient client(MedicalSchema());
    ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok()) << i;
  }
  // Each accept reaps the connections that finished before it; only the
  // last few may still be winding down.
  EXPECT_LE(CountEntries("/proc/self/fd"), fds_before + 16);
  EXPECT_LE(CountEntries("/proc/self/task"), threads_before + 16);
  ExpectStillServing(env.daemon.get(), "after-churn");
  EXPECT_TRUE(env.daemon->Shutdown().ok());
  EXPECT_EQ(env.daemon->connections_accepted(), 501u);
}

// The body of AcceptSurvivesFdExhaustion, run in a forked child so the
// lowered fd limit dies with it. Returns 0 on success, else the number
// of the step that failed.
int HandshakeAfterFdExhaustion() {
  Env env = StartDaemon();
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 1;
  limit.rlim_cur = CountEntries("/proc/self/fd") + 8;
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) return 2;
  // Take every free fd, then give one back for the client's socket: the
  // daemon's accept of that connection fails with EMFILE.
  std::vector<int> hogs;
  for (int fd; (fd = ::dup(STDERR_FILENO)) >= 0;) hogs.push_back(fd);
  if (errno != EMFILE || hogs.empty()) return 3;
  ::close(hogs.back());
  hogs.pop_back();
  const int fd = RawConnect(env.daemon->port());
  if (fd < 0) return 4;
  // Without a retrying accept loop the echo never comes: time out
  // instead of hanging.
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int hog : hogs) ::close(hog);
  if (!WriteFullySocket(fd, kWireMagic, kWireMagicSize)) return 5;
  char echo[kWireMagicSize];
  if (!ReadFullySocket(fd, echo, sizeof(echo))) return 6;
  if (std::memcmp(echo, kWireMagic, kWireMagicSize) != 0) return 7;
  return 0;
}

TEST(DaemonTest, AcceptSurvivesFdExhaustion) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << std::strerror(errno);
  if (pid == 0) ::_exit(HandshakeAfterFdExhaustion());
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child did not exit normally";
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "child failed at step " << WEXITSTATUS(status);
}

// ---- shutdown -------------------------------------------------------------

TEST(DaemonTest, ShutdownDisconnectsIdleClientsAndIsIdempotent) {
  Env env = StartDaemon();
  DaemonClient client(MedicalSchema());
  ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok());
  EXPECT_TRUE(env.daemon->Shutdown().ok());
  EXPECT_TRUE(env.daemon->Shutdown().ok());  // idempotent
  // The daemon hung up; the next call reports the lost connection.
  auto response = client.Call(OpenRequest("late"));
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(env.daemon->connections_accepted(), 1u);
}

}  // namespace
}  // namespace privmark
