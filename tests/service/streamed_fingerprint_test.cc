// Streamed-fingerprint equivalence suite — the protocol-v2 guarantee
// that streaming is an ordering of the one-shot scan, never a different
// computation:
//
//  1. In process: a kDetectFingerprint request with a sink, over a
//     300+-key registry, across thread counts, must emit shards whose
//     concatenation is byte-identical (exact doubles, full DetectReports)
//     to the sink-less request's response — and the streamed
//     call's own terminal response must equal it too (verdicts, ranking,
//     margins, collusion).
//  2. Over the wire: a v2 streamed scan's kPartial shards and reassembled
//     terminal response must equal the same connection's non-streamed
//     Call() for the same suspect table and registry.
//
// Shard sequencing (epoch monotonic without gaps, shard ordinals
// sequential, first_key contiguous) is validated while reassembling.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "datagen/medical_data.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/service.h"
#include "watermark/key_registry.h"

namespace privmark {
namespace {

constexpr size_t kRows = 1800;
constexpr size_t kDecoyKeys = 300;  // registry = 1 owner + 300 decoys
constexpr uint64_t kSeed = 20050405;

size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<size_t>(hw);
}

// Thread counts the acceptance bar names: serial, minimal parallelism,
// and whatever the host actually has.
std::vector<size_t> ThreadCounts() {
  std::vector<size_t> counts = {1, 2};
  if (HardwareThreads() > 2) counts.push_back(HardwareThreads());
  return counts;
}

void ExpectDetectReportsEqual(const DetectReport& a, const DetectReport& b,
                              const std::string& what) {
  EXPECT_EQ(a.recovered.ToString(), b.recovered.ToString()) << what;
  EXPECT_EQ(a.bit_voted, b.bit_voted) << what;
  EXPECT_EQ(a.tuples_selected, b.tuples_selected) << what;
  EXPECT_EQ(a.slots_read, b.slots_read) << what;
  EXPECT_EQ(a.slots_skipped, b.slots_skipped) << what;
  ASSERT_EQ(a.vote_margin.size(), b.vote_margin.size()) << what;
  for (size_t j = 0; j < a.vote_margin.size(); ++j) {
    // Exact double equality: tallies sum whole 1.0 votes, so margins
    // must match bit for bit.
    EXPECT_EQ(a.vote_margin[j], b.vote_margin[j]) << what << " bit " << j;
  }
}

void ExpectKeyVerdictsEqual(const KeyVerdict& a, const KeyVerdict& b,
                            const std::string& what) {
  EXPECT_EQ(a.key_name, b.key_name) << what;
  ExpectDetectReportsEqual(a.detection, b.detection, what);
  EXPECT_EQ(a.margin_ratio, b.margin_ratio) << what;
  EXPECT_EQ(a.mark_match, b.mark_match) << what;
  EXPECT_EQ(a.p_value, b.p_value) << what;
  EXPECT_EQ(a.score, b.score) << what;
  EXPECT_EQ(a.detected, b.detected) << what;
}

void ExpectReportsEqual(const FingerprintReport& a, const FingerprintReport& b,
                        const std::string& what) {
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size()) << what;
  for (size_t i = 0; i < a.verdicts.size(); ++i) {
    ExpectKeyVerdictsEqual(a.verdicts[i], b.verdicts[i],
                           what + " key " + std::to_string(i));
  }
  EXPECT_EQ(a.ranking, b.ranking) << what;
  EXPECT_EQ(a.keys_detected, b.keys_detected) << what;
  EXPECT_EQ(a.collusion, b.collusion) << what;
}

// Validates the shard sequence invariants while concatenating each
// epoch's verdicts back together: epochs arrive monotonically without
// gaps, shard ordinals count up from 0 per epoch, and first_key makes
// every run contiguous with its predecessor.
template <typename Shard>
std::vector<std::vector<KeyVerdict>> Reassemble(
    const std::vector<Shard>& shards, const std::string& what) {
  std::vector<std::vector<KeyVerdict>> epochs;
  std::vector<uint64_t> next_shard;
  for (const Shard& shard : shards) {
    if (shard.epoch == epochs.size()) {
      epochs.emplace_back();
      next_shard.push_back(0);
    }
    EXPECT_FALSE(epochs.empty()) << what;
    EXPECT_EQ(shard.epoch, epochs.size() - 1)
        << what << ": epochs must arrive in order without gaps";
    EXPECT_EQ(shard.shard, next_shard.back()++) << what;
    EXPECT_EQ(shard.first_key, epochs.back().size())
        << what << ": shards must cover contiguous key runs";
    EXPECT_FALSE(shard.verdicts.empty()) << what;
    epochs.back().insert(epochs.back().end(), shard.verdicts.begin(),
                         shard.verdicts.end());
  }
  return epochs;
}

// ---- in-process: service seam ---------------------------------------------

struct Fixture {
  std::unique_ptr<MedicalDataset> dataset;
  FrameworkConfig config;
  std::shared_ptr<const KeyRegistry> registry;
  std::unique_ptr<PrivmarkService> service;  // session "audit" stays open
  Table suspect;                  // both epochs' emitted rows, in order
  ServiceResponse baseline;       // one-shot fingerprint at 1 thread
};

// A kDetectFingerprint request scanning the fixture's suspect table
// against its registry.
ServiceRequest ScanRequest(const Fixture& f, FingerprintShardSink sink,
                           size_t num_threads) {
  ServiceRequest request;
  request.kind = RequestKind::kDetectFingerprint;
  request.session = "audit";
  request.table = f.suspect.Clone();
  request.registry = f.registry;
  request.fingerprint_sink = std::move(sink);
  request.num_threads = num_threads;
  return request;
}

// Built once: a two-epoch protected stream, a 301-key registry (the
// embedding key + 300 decoys), and the serial one-shot scan every other
// run is measured against.
Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture();
    MedicalDataSpec spec;
    spec.num_rows = kRows;
    spec.seed = kSeed;
    f->dataset = std::make_unique<MedicalDataset>(
        std::move(GenerateMedicalDataset(spec)).ValueOrDie());

    f->config.binning.k = 10;
    f->config.binning.enforce_joint = false;
    f->config.binning.mono.on_unbinnable = UnbinnablePolicy::kSuppress;
    f->config.binning.num_threads = 1;
    f->config.watermark.num_threads = 1;
    f->config.key = {"owner-k1", "owner-k2", /*eta=*/10};

    KeyRegistry registry;
    EXPECT_TRUE(registry.Add(NamedKey{"owner", f->config.key}).ok());
    Random keygen(4242);
    for (size_t i = 0; i < kDecoyKeys; ++i) {
      EXPECT_TRUE(
          registry
              .Add(GenerateKey("decoy-" + std::to_string(i), 10, &keygen))
              .ok());
    }
    f->registry = std::make_shared<const KeyRegistry>(std::move(registry));

    ServiceConfig service_config;
    service_config.thread_cap = HardwareThreads();
    f->service = std::make_unique<PrivmarkService>(service_config);
    const UsageMetrics metrics =
        MetricsFromDepthCuts(f->dataset->trees(), {2, 1, 2, 1, 1})
            .ValueOrDie();
    // Drift policy with a threshold nothing crosses: each half stays
    // buffered until its flush, giving the two sealed epochs the epoch
    // dimension of the streaming contract needs.
    SessionConfig session_config;
    session_config.policy = RebinPolicy::kRebinOnDrift;
    session_config.drift_threshold = 1.5;
    EXPECT_TRUE(
        f->service->OpenSession("audit", metrics, f->config, session_config)
            .ok());

    // Two epochs: first half, flush, second half, flush.
    f->suspect = Table(f->dataset->table.schema());
    for (const size_t boundary : {kRows / 2, kRows}) {
      const size_t begin = boundary == kRows / 2 ? 0 : kRows / 2;
      auto ingested =
          f->service
              ->ProtectBatch("audit",
                             f->dataset->table.Slice(begin, boundary))
              .get();
      EXPECT_TRUE(ingested.ok()) << ingested.status().ToString();
      auto flushed = f->service->Flush("audit").get();
      EXPECT_TRUE(flushed.ok()) << flushed.status().ToString();
      const Table& emitted = flushed->epoch.outcome.watermarked;
      for (size_t r = 0; r < emitted.num_rows(); ++r) {
        Row row;
        for (size_t c = 0; c < emitted.num_columns(); ++c) {
          row.push_back(emitted.at(r, c));
        }
        EXPECT_TRUE(f->suspect.AppendRow(std::move(row)).ok());
      }
    }

    auto baseline =
        f->service->Submit(ScanRequest(*f, /*sink=*/nullptr, 1)).get();
    EXPECT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_EQ(baseline->fingerprints.size(), 2u);
    f->baseline = *std::move(baseline);
    return f;
  }();
  return *fixture;
}

TEST(StreamedFingerprintTest, BaselineDetectsTheOwnerInBothEpochs) {
  Fixture& f = SharedFixture();
  ASSERT_EQ(f.baseline.fingerprints.size(), 2u);
  for (size_t e = 0; e < f.baseline.fingerprints.size(); ++e) {
    const FingerprintReport& report = f.baseline.fingerprints[e];
    ASSERT_EQ(report.verdicts.size(), 1 + kDecoyKeys) << e;
    EXPECT_EQ(report.verdicts[report.ranking[0]].key_name, "owner") << e;
    EXPECT_TRUE(report.verdicts[report.ranking[0]].detected) << e;
    EXPECT_EQ(report.keys_detected, 1u) << e;
    EXPECT_FALSE(report.collusion) << e;
  }
}

TEST(StreamedFingerprintTest, ShardsConcatenateToTheOneShotScan) {
  Fixture& f = SharedFixture();
  for (const size_t threads : ThreadCounts()) {
    const std::string what = std::to_string(threads) + " threads";
    std::vector<FingerprintShard> shards;
    auto streamed =
        f.service
            ->Submit(ScanRequest(
                f,
                [&shards](const FingerprintShard& shard) {
                  shards.push_back(shard);
                },
                threads))
            .get();
    ASSERT_TRUE(streamed.ok()) << what << ": " << streamed.status().ToString();

    // The sink's concatenation IS the one-shot scan's verdict list.
    const auto epochs = Reassemble(shards, what);
    ASSERT_EQ(epochs.size(), f.baseline.fingerprints.size()) << what;
    for (size_t e = 0; e < epochs.size(); ++e) {
      const auto& expected = f.baseline.fingerprints[e].verdicts;
      ASSERT_EQ(epochs[e].size(), expected.size()) << what;
      for (size_t i = 0; i < expected.size(); ++i) {
        ExpectKeyVerdictsEqual(
            epochs[e][i], expected[i],
            what + ", epoch " + std::to_string(e) + ", key " +
                std::to_string(i));
      }
    }

    // The streamed call's own terminal response equals the one-shot
    // response too — ranking, margins, collusion, everything.
    ASSERT_EQ(streamed->fingerprints.size(), f.baseline.fingerprints.size())
        << what;
    for (size_t e = 0; e < streamed->fingerprints.size(); ++e) {
      ExpectReportsEqual(streamed->fingerprints[e], f.baseline.fingerprints[e],
                         what + ", epoch " + std::to_string(e));
    }
    EXPECT_TRUE(streamed->journal_status.ok()) << what;
  }
}

TEST(StreamedFingerprintTest, NullSinkIsExactlyTheOneShotCall) {
  Fixture& f = SharedFixture();
  auto scanned =
      f.service->Submit(ScanRequest(f, /*sink=*/nullptr, 2)).get();
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_EQ(scanned->fingerprints.size(), f.baseline.fingerprints.size());
  for (size_t e = 0; e < scanned->fingerprints.size(); ++e) {
    ExpectReportsEqual(scanned->fingerprints[e], f.baseline.fingerprints[e],
                       "null sink, epoch " + std::to_string(e));
  }
}

// ---- over the wire: daemon + v2 client ------------------------------------

struct WireEnv {
  std::unique_ptr<MedicalDataset> dataset;
  std::unique_ptr<PrivmarkDaemon> daemon;
};

WireEnv StartDaemon() {
  WireEnv env;
  MedicalDataSpec spec;
  spec.num_rows = 1200;
  spec.seed = 515151;
  env.dataset = std::make_unique<MedicalDataset>(
      std::move(GenerateMedicalDataset(spec)).ValueOrDie());
  MedicalDataset* ontologies = env.dataset.get();
  DaemonConfig config;
  config.schema = MedicalSchema();
  config.metrics_for_config =
      [ontologies](const FrameworkConfig&) -> Result<UsageMetrics> {
    return MetricsFromDepthCuts(ontologies->trees(), {2, 1, 2, 1, 1});
  };
  env.daemon = std::make_unique<PrivmarkDaemon>(std::move(config));
  EXPECT_TRUE(env.daemon->Start(0).ok());
  return env;
}

TEST(StreamedFingerprintTest, WireStreamMatchesTheOneShotCall) {
  WireEnv env = StartDaemon();
  DaemonClient client(MedicalSchema());
  ASSERT_TRUE(client.Connect("127.0.0.1", env.daemon->port()).ok());

  WireRequest open;
  open.type = WireFrameType::kOpen;
  open.session = "audit-wire";
  open.open.k = 10;
  open.open.passphrase = "audit-wire-pass";
  open.open.k1 = "audit-wire-k1";
  open.open.k2 = "audit-wire-k2";
  open.open.eta = 10;
  open.open.on_unbinnable = 1;  // suppress: half-size windows may thin out
  open.open.policy = 1;         // drift policy, threshold never crossed:
  open.open.drift_threshold = 1.5;  // each half seals as its own epoch
  auto opened = client.Call(open);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened->status.ok()) << opened->status.ToString();

  // Two epochs' worth of protected output, concatenated.
  Table suspect(env.dataset->table.schema());
  const size_t rows = env.dataset->table.num_rows();
  for (const size_t boundary : {rows / 2, rows}) {
    WireRequest ingest;
    ingest.type = WireFrameType::kIngest;
    ingest.session = "audit-wire";
    ingest.table = env.dataset->table.Slice(
        boundary == rows / 2 ? 0 : rows / 2, boundary);
    auto ingested = client.Call(ingest);
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    ASSERT_TRUE(ingested->status.ok()) << ingested->status.ToString();
    WireRequest flush;
    flush.type = WireFrameType::kFlush;
    flush.session = "audit-wire";
    auto flushed = client.Call(flush);
    ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    ASSERT_TRUE(flushed->status.ok()) << flushed->status.ToString();
    const Table& emitted = flushed->flush.emitted;
    for (size_t r = 0; r < emitted.num_rows(); ++r) {
      Row row;
      for (size_t c = 0; c < emitted.num_columns(); ++c) {
        row.push_back(emitted.at(r, c));
      }
      ASSERT_TRUE(suspect.AppendRow(std::move(row)).ok());
    }
  }

  KeyRegistry registry;
  ASSERT_TRUE(
      registry.Add(NamedKey{"owner", {"audit-wire-k1", "audit-wire-k2", 10}})
          .ok());
  Random keygen(99);
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        registry.Add(GenerateKey("decoy-" + std::to_string(i), 10, &keygen))
            .ok());
  }

  WireRequest scan;
  scan.type = WireFrameType::kFingerprint;
  scan.session = "audit-wire";
  scan.table = suspect.Clone();
  scan.registry_text = registry.Serialize();
  auto one_shot = client.Call(scan);
  ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
  ASSERT_TRUE(one_shot->status.ok()) << one_shot->status.ToString();
  ASSERT_EQ(one_shot->fingerprints.size(), 2u);

  // Same scan, streamed: drain every kPartial shard, then Wait() for the
  // reassembled terminal response.
  scan.table = suspect.Clone();
  scan.stream = true;
  auto pending = client.CallAsync(scan);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  std::vector<FingerprintShard> shards;
  FingerprintShard shard;
  while (true) {
    auto more = pending->NextShard(&shard);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    shards.push_back(std::move(shard));
  }
  auto streamed = pending->Wait();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_TRUE(streamed->status.ok()) << streamed->status.ToString();

  const auto epochs = Reassemble(shards, "wire stream");
  ASSERT_EQ(epochs.size(), one_shot->fingerprints.size());
  for (size_t e = 0; e < epochs.size(); ++e) {
    const auto& expected = one_shot->fingerprints[e].verdicts;
    ASSERT_EQ(epochs[e].size(), expected.size()) << e;
    for (size_t i = 0; i < expected.size(); ++i) {
      ExpectKeyVerdictsEqual(epochs[e][i], expected[i],
                             "wire shard, epoch " + std::to_string(e) +
                                 ", key " + std::to_string(i));
    }
  }
  ASSERT_EQ(streamed->fingerprints.size(), one_shot->fingerprints.size());
  for (size_t e = 0; e < streamed->fingerprints.size(); ++e) {
    ExpectReportsEqual(streamed->fingerprints[e], one_shot->fingerprints[e],
                       "wire terminal, epoch " + std::to_string(e));
  }
  EXPECT_EQ(streamed->request_id, pending->request_id());

  WireRequest close;
  close.type = WireFrameType::kClose;
  close.session = "audit-wire";
  ASSERT_TRUE(client.Call(close).ok());
  client.Disconnect();
}

}  // namespace
}  // namespace privmark
