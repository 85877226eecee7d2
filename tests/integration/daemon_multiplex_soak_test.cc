// Multiplexed-connection soak: many sessions pipelined over ONE v2
// connection from many threads at once — request ids interleave on the
// wire, streamed fingerprint kPartial shards interleave with other
// sessions' responses, and the leader/follower pump hands every frame to
// the right PendingCall. The bar is the same byte-identity claim the
// per-connection soak makes: emitted tables (CSV), per-epoch fingerprint
// verdicts (exact doubles), and rankings must equal a serial in-process
// replay on a bare ProtectionSession. Runs in the TSan lane (ci.sh) —
// the demux path, not just the strands, must be race-free.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/session.h"
#include "datagen/medical_data.h"
#include "relation/csv.h"
#include "service/client.h"
#include "service/daemon.h"
#include "watermark/key_registry.h"

namespace privmark {
namespace {

constexpr size_t kSessions = 8;
constexpr size_t kRows = 300;
constexpr size_t kBatch = 150;
constexpr size_t kDecoys = 12;

struct Stream {
  std::string name;
  std::unique_ptr<MedicalDataset> dataset;
  UsageMetrics metrics;
  FrameworkConfig config;
  std::shared_ptr<const KeyRegistry> registry;

  // Serial in-process reference.
  std::string reference_csv;
  std::vector<FingerprintReport> reference_reports;

  // What the multiplexed run produced, filled by the driver thread.
  std::string daemon_csv;
  std::vector<FingerprintReport> daemon_reports;
  std::vector<FingerprintShard> daemon_shards;
  std::string failure;  // non-empty = this stream's run broke
};

Stream MakeStream(size_t index) {
  Stream stream;
  stream.name = "tenant-" + std::to_string(index);
  MedicalDataSpec spec;
  spec.num_rows = kRows;
  spec.seed = 70000 + index;
  stream.dataset = std::make_unique<MedicalDataset>(
      std::move(GenerateMedicalDataset(spec)).ValueOrDie());
  stream.metrics =
      MetricsFromDepthCuts(stream.dataset->trees(), {2, 1, 2, 1, 1})
          .ValueOrDie();
  stream.config.binning.k = 5;
  stream.config.binning.enforce_joint = false;
  stream.config.binning.mono.on_unbinnable = UnbinnablePolicy::kSuppress;
  stream.config.binning.encryption_passphrase = stream.name + "-pass";
  stream.config.binning.num_threads = 1;
  stream.config.watermark.num_threads = 1;
  stream.config.key = {stream.name + "-k1", stream.name + "-k2", /*eta=*/10};

  KeyRegistry registry;
  EXPECT_TRUE(registry.Add(NamedKey{stream.name, stream.config.key}).ok());
  Random keygen(9000 + index);
  for (size_t i = 0; i < kDecoys; ++i) {
    EXPECT_TRUE(
        registry.Add(GenerateKey("decoy-" + std::to_string(i), 10, &keygen))
            .ok());
  }
  stream.registry =
      std::make_shared<const KeyRegistry>(std::move(registry));
  return stream;
}

void ExpectReportsEqual(const FingerprintReport& a, const FingerprintReport& b,
                        const std::string& what) {
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size()) << what;
  for (size_t i = 0; i < a.verdicts.size(); ++i) {
    const KeyVerdict& x = a.verdicts[i];
    const KeyVerdict& y = b.verdicts[i];
    EXPECT_EQ(x.key_name, y.key_name) << what << " key " << i;
    EXPECT_EQ(x.margin_ratio, y.margin_ratio) << what << " key " << i;
    EXPECT_EQ(x.mark_match, y.mark_match) << what << " key " << i;
    EXPECT_EQ(x.p_value, y.p_value) << what << " key " << i;
    EXPECT_EQ(x.score, y.score) << what << " key " << i;
    EXPECT_EQ(x.detected, y.detected) << what << " key " << i;
    ASSERT_EQ(x.detection.vote_margin.size(), y.detection.vote_margin.size())
        << what << " key " << i;
    for (size_t j = 0; j < x.detection.vote_margin.size(); ++j) {
      EXPECT_EQ(x.detection.vote_margin[j], y.detection.vote_margin[j])
          << what << " key " << i << " bit " << j;
    }
  }
  EXPECT_EQ(a.ranking, b.ranking) << what;
  EXPECT_EQ(a.keys_detected, b.keys_detected) << what;
  EXPECT_EQ(a.collusion, b.collusion) << what;
}

void BuildReference(Stream* stream) {
  ProtectionSession session(stream->metrics, stream->config, SessionConfig());
  Table concat(stream->dataset->table.schema());
  auto append = [&concat](const Table& emitted) {
    for (size_t r = 0; r < emitted.num_rows(); ++r) {
      (void)concat.AppendRow(emitted.row(r));
    }
  };
  for (size_t begin = 0; begin < kRows; begin += kBatch) {
    auto ingested =
        session.Ingest(stream->dataset->table.Slice(begin, begin + kBatch));
    ASSERT_TRUE(ingested.ok())
        << stream->name << ": " << ingested.status().ToString();
    append(ingested->emitted);
  }
  auto flushed = session.Flush();
  ASSERT_TRUE(flushed.ok())
      << stream->name << ": " << flushed.status().ToString();
  append(flushed->outcome.watermarked);
  stream->reference_csv = TableToCsv(concat);
  auto reports = session.FingerprintAcrossEpochs(concat, *stream->registry);
  ASSERT_TRUE(reports.ok())
      << stream->name << ": " << reports.status().ToString();
  stream->reference_reports = *std::move(reports);
}

// One stream's lifecycle over the SHARED client: every request is
// pipelined via CallAsync, the batch of handles waited only after the
// last send, and the closing fingerprint is streamed so this stream's
// kPartial frames interleave with its co-tenants' traffic. gtest
// assertions are not thread-safe, so failures travel as strings.
void DriveStream(DaemonClient* client, Stream* stream) {
  auto fail = [stream](const std::string& what, const Status& status) {
    stream->failure = what + ": " + status.ToString();
  };

  WireRequest open;
  open.type = WireFrameType::kOpen;
  open.session = stream->name;
  open.open.k = stream->config.binning.k;
  open.open.enforce_joint = stream->config.binning.enforce_joint;
  open.open.passphrase = stream->config.binning.encryption_passphrase;
  open.open.k1 = stream->config.key.k1;
  open.open.k2 = stream->config.key.k2;
  open.open.eta = stream->config.key.eta;
  open.open.on_unbinnable = 1;

  // Pipeline the whole lifecycle prefix: open, both ingests, the flush —
  // four requests on the wire before the first response is waited on.
  std::vector<DaemonClient::PendingCall> calls;
  auto send = [&](const WireRequest& request) -> bool {
    auto pending = client->CallAsync(request);
    if (!pending.ok()) {
      fail("send " + std::string(WireFrameTypeToString(request.type)),
           pending.status());
      return false;
    }
    calls.push_back(*std::move(pending));
    return true;
  };
  if (!send(open)) return;
  for (size_t begin = 0; begin < kRows; begin += kBatch) {
    WireRequest ingest;
    ingest.type = WireFrameType::kIngest;
    ingest.session = stream->name;
    ingest.table = stream->dataset->table.Slice(begin, begin + kBatch);
    if (!send(ingest)) return;
  }
  WireRequest flush;
  flush.type = WireFrameType::kFlush;
  flush.session = stream->name;
  if (!send(flush)) return;

  Table concat(stream->dataset->table.schema());
  auto append = [&concat](const Table& emitted) {
    for (size_t r = 0; r < emitted.num_rows(); ++r) {
      (void)concat.AppendRow(emitted.row(r));
    }
  };
  for (DaemonClient::PendingCall& call : calls) {
    auto response = call.Wait();
    if (!response.ok()) return fail("wait transport", response.status());
    if (!response->status.ok()) return fail("wait", response->status);
    if (response->kind == WireFrameType::kIngest) {
      append(response->ingest.emitted);
    } else if (response->kind == WireFrameType::kFlush) {
      append(response->flush.emitted);
    }
  }
  stream->daemon_csv = TableToCsv(concat);

  WireRequest scan;
  scan.type = WireFrameType::kFingerprint;
  scan.session = stream->name;
  scan.table = concat.Clone();
  scan.registry_text = stream->registry->Serialize();
  scan.stream = true;
  auto pending = client->CallAsync(scan);
  if (!pending.ok()) return fail("fingerprint send", pending.status());
  FingerprintShard shard;
  while (true) {
    auto more = pending->NextShard(&shard);
    if (!more.ok()) return fail("shard", more.status());
    if (!*more) break;
    stream->daemon_shards.push_back(std::move(shard));
  }
  auto scanned = pending->Wait();
  if (!scanned.ok()) return fail("fingerprint transport", scanned.status());
  if (!scanned->status.ok()) return fail("fingerprint", scanned->status);
  stream->daemon_reports = std::move(scanned->fingerprints);

  WireRequest close;
  close.type = WireFrameType::kClose;
  close.session = stream->name;
  auto closed = client->Call(close);
  if (!closed.ok()) return fail("close transport", closed.status());
  if (!closed->status.ok()) return fail("close", closed->status);
}

TEST(DaemonMultiplexSoakTest, PipelinedSessionsOnOneConnectionMatchReplay) {
  std::vector<Stream> streams;
  streams.reserve(kSessions);
  for (size_t i = 0; i < kSessions; ++i) streams.push_back(MakeStream(i));
  for (Stream& stream : streams) {
    BuildReference(&stream);
    if (::testing::Test::HasFatalFailure()) return;
  }

  DaemonConfig config;
  config.schema = MedicalSchema();
  config.metrics_for_config =
      [&streams](const FrameworkConfig& fc) -> Result<UsageMetrics> {
    for (const Stream& stream : streams) {
      if (stream.config.binning.encryption_passphrase ==
          fc.binning.encryption_passphrase) {
        return MetricsFromDepthCuts(stream.dataset->trees(), {2, 1, 2, 1, 1});
      }
    }
    return Status::InvalidArgument("no stream for this config");
  };
  PrivmarkDaemon daemon(std::move(config));
  ASSERT_TRUE(daemon.Start(0).ok());

  // ONE connection, one driver thread per session, all multiplexed.
  DaemonClient client(MedicalSchema());
  ASSERT_TRUE(client.Connect("127.0.0.1", daemon.port()).ok());
  {
    std::vector<std::thread> drivers;
    drivers.reserve(streams.size());
    for (Stream& stream : streams) {
      drivers.emplace_back(DriveStream, &client, &stream);
    }
    for (std::thread& driver : drivers) driver.join();
  }
  EXPECT_EQ(daemon.connections_accepted(), 1u);
  EXPECT_TRUE(client.connected());

  for (Stream& stream : streams) {
    ASSERT_TRUE(stream.failure.empty())
        << stream.name << ": " << stream.failure;
    EXPECT_EQ(stream.daemon_csv, stream.reference_csv) << stream.name;

    ASSERT_EQ(stream.daemon_reports.size(), stream.reference_reports.size())
        << stream.name;
    for (size_t e = 0; e < stream.daemon_reports.size(); ++e) {
      ExpectReportsEqual(stream.daemon_reports[e],
                         stream.reference_reports[e],
                         stream.name + " epoch " + std::to_string(e));
    }

    // The interleaved shards, reassembled, are the reference verdicts.
    std::vector<std::vector<KeyVerdict>> epochs;
    std::vector<uint64_t> next_shard;
    for (const FingerprintShard& shard : stream.daemon_shards) {
      if (shard.epoch == epochs.size()) {
        epochs.emplace_back();
        next_shard.push_back(0);
      }
      ASSERT_FALSE(epochs.empty()) << stream.name;
      ASSERT_EQ(shard.epoch, epochs.size() - 1) << stream.name;
      EXPECT_EQ(shard.shard, next_shard.back()++) << stream.name;
      EXPECT_EQ(shard.first_key, epochs.back().size()) << stream.name;
      epochs.back().insert(epochs.back().end(), shard.verdicts.begin(),
                           shard.verdicts.end());
    }
    ASSERT_EQ(epochs.size(), stream.reference_reports.size()) << stream.name;
    for (size_t e = 0; e < epochs.size(); ++e) {
      const auto& expected = stream.reference_reports[e].verdicts;
      ASSERT_EQ(epochs[e].size(), expected.size())
          << stream.name << " epoch " << e;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(epochs[e][i].key_name, expected[i].key_name);
        EXPECT_EQ(epochs[e][i].score, expected[i].score)
            << stream.name << " epoch " << e << " key " << i;
        EXPECT_EQ(epochs[e][i].detected, expected[i].detected);
      }
    }
  }
  client.Disconnect();
}

}  // namespace
}  // namespace privmark
