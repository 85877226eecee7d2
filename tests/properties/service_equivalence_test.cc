// Concurrency-equivalence property suite for the service front-end: N
// sessions driven by interleaved concurrent requests must produce epoch
// tables, manifests, and detection vote margins byte-identical to each
// session replayed serially on a bare ProtectionSession — across thread
// caps {1, 2, hardware}.
//
// This is the service's whole determinism contract in one claim: the
// strand-per-session design may interleave *different* sessions' turns
// arbitrarily on the shared pool (and a request may run at any width the
// cap allows), but a session's own request sequence serializes in
// arrival order, and every pipeline stage is byte-identical for any
// worker count — so nothing the scheduler does can show up in the
// bytes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.h"
#include "core/manifest.h"
#include "core/session.h"
#include "datagen/medical_data.h"
#include "relation/csv.h"
#include "service/service.h"

namespace privmark {
namespace {

constexpr size_t kSessions = 3;
constexpr size_t kRows = 2000;
constexpr size_t kBatch = 500;

// One stream's scripted workload and its serial-reference outcome.
struct Stream {
  std::string name;
  std::unique_ptr<MedicalDataset> dataset;
  UsageMetrics metrics;
  FrameworkConfig config;
  SessionConfig session_config;

  // Serial reference, per request index: the emitted rows' CSV (empty
  // when the request emitted nothing).
  std::vector<std::string> reference_emitted_csv;
  std::vector<std::string> reference_manifests;
  std::vector<std::vector<double>> reference_margins;  // per epoch
  std::string reference_concat_csv;
};

// Distinct data, keys, policies, and k per stream — equivalence must
// hold for heterogeneous co-tenants, not just clones of one config.
Stream MakeStream(size_t index) {
  Stream stream;
  stream.name = "stream-" + std::to_string(index);
  MedicalDataSpec spec;
  spec.num_rows = kRows;
  spec.seed = 7000 + index;
  stream.dataset = std::make_unique<MedicalDataset>(
      std::move(GenerateMedicalDataset(spec)).ValueOrDie());
  stream.metrics =
      MetricsFromDepthCuts(stream.dataset->trees(), {2, 1, 2, 1, 1})
          .ValueOrDie();
  stream.config.binning.k = index == 0 ? 20 : 10;
  stream.config.binning.enforce_joint = false;
  stream.config.binning.encryption_passphrase = stream.name + "-pass";
  // Asks differ per stream so grants genuinely vary under small caps.
  stream.config.binning.num_threads = index + 1;
  stream.config.watermark.num_threads = index + 1;
  stream.config.key = {stream.name + "-k1", stream.name + "-k2",
                       /*eta=*/10};
  if (index == 2) {
    // One drift stream: multi-epoch output must also be reproduced. Its
    // 500-row re-bin windows can hit thin maximal subtrees (< k tuples),
    // so it runs the paper's suppression fallback instead of erroring —
    // which equivalence must reproduce too.
    stream.session_config.policy = RebinPolicy::kRebinOnDrift;
    stream.session_config.drift_threshold = 0.5;
    stream.config.binning.mono.on_unbinnable = UnbinnablePolicy::kSuppress;
  }
  return stream;
}

// The scripted request sequence, identical for the serial replay and the
// service run: every batch, then one final flush (drift streams flush
// epoch 0 after the first batch, so later batches stream live).
struct Request {
  bool flush = false;
  size_t begin = 0;
};

std::vector<Request> Script(const Stream& stream) {
  std::vector<Request> script;
  bool first = true;
  for (size_t begin = 0; begin < kRows; begin += kBatch) {
    script.push_back({false, begin});
    if (first &&
        stream.session_config.policy == RebinPolicy::kRebinOnDrift) {
      script.push_back({true, 0});
    }
    first = false;
  }
  script.push_back({true, 0});
  return script;
}

void BuildReference(Stream* stream) {
  ProtectionSession session(stream->metrics, stream->config,
                            stream->session_config);
  Table concat(stream->dataset->table.schema());
  auto append = [&concat](const Table& emitted) {
    for (size_t r = 0; r < emitted.num_rows(); ++r) {
      (void)concat.AppendRow(emitted.row(r));
    }
  };
  for (const Request& request : Script(*stream)) {
    if (request.flush) {
      auto flushed = session.Flush();
      ASSERT_TRUE(flushed.ok())
          << stream->name << ": " << flushed.status().ToString();
      append(flushed->outcome.watermarked);
      stream->reference_emitted_csv.push_back(
          TableToCsv(flushed->outcome.watermarked));
    } else {
      auto ingested = session.Ingest(
          stream->dataset->table.Slice(request.begin, request.begin + kBatch));
      ASSERT_TRUE(ingested.ok())
          << stream->name << ": " << ingested.status().ToString();
      append(ingested->emitted);
      stream->reference_emitted_csv.push_back(TableToCsv(ingested->emitted));
    }
  }
  for (const EpochRecord& epoch : session.epochs()) {
    stream->reference_manifests.push_back(SerializeManifest(
        std::move(ManifestFromEpoch(epoch, stream->dataset->table.schema(),
                                    stream->metrics, stream->config))
            .ValueOrDie()));
  }
  auto reports = session.DetectAcrossEpochs(concat);
  ASSERT_TRUE(reports.ok()) << stream->name;
  for (const DetectReport& report : *reports) {
    stream->reference_margins.push_back(report.vote_margin);
  }
  stream->reference_concat_csv = TableToCsv(concat);
}

void RunServiceAndCompare(std::vector<Stream>* streams, size_t thread_cap) {
  const std::string context = "cap=" + std::to_string(thread_cap);
  ServiceConfig service_config;
  service_config.thread_cap = thread_cap;
  PrivmarkService service(service_config);
  for (Stream& stream : *streams) {
    ASSERT_TRUE(service
                    .OpenSession(stream.name, stream.metrics, stream.config,
                                 stream.session_config)
                    .ok())
        << context;
  }

  // Interleaved concurrent submission: one driver thread per stream,
  // firing its whole script without waiting between requests.
  std::vector<std::vector<ServiceFuture>> futures(streams->size());
  {
    std::vector<std::thread> drivers;
    for (size_t i = 0; i < streams->size(); ++i) {
      drivers.emplace_back([&service, &futures, i, streams] {
        Stream& stream = (*streams)[i];
        for (const Request& request : Script(stream)) {
          if (request.flush) {
            futures[i].push_back(service.Flush(stream.name));
          } else {
            futures[i].push_back(service.ProtectBatch(
                stream.name,
                stream.dataset->table.Slice(request.begin,
                                            request.begin + kBatch)));
          }
        }
      });
    }
    for (std::thread& driver : drivers) driver.join();
  }

  for (size_t i = 0; i < streams->size(); ++i) {
    Stream& stream = (*streams)[i];
    Table concat(stream.dataset->table.schema());
    ASSERT_EQ(futures[i].size(), stream.reference_emitted_csv.size())
        << context;
    for (size_t r = 0; r < futures[i].size(); ++r) {
      auto result = futures[i][r].get();
      ASSERT_TRUE(result.ok()) << context << " " << stream.name;
      ASSERT_GE(result->threads_granted, 1u) << context;
      ASSERT_LE(result->threads_granted, service.thread_cap()) << context;
      const Table& emitted = result->kind == RequestKind::kFlush
                                 ? result->epoch.outcome.watermarked
                                 : result->ingest.emitted;
      // Per-request byte identity: each response carries exactly the
      // rows the serial replay emitted at the same script position.
      EXPECT_EQ(TableToCsv(emitted), stream.reference_emitted_csv[r])
          << context << " " << stream.name << " request " << r;
      for (size_t row = 0; row < emitted.num_rows(); ++row) {
        (void)concat.AppendRow(emitted.row(row));
      }
    }
    EXPECT_EQ(TableToCsv(concat), stream.reference_concat_csv)
        << context << " " << stream.name;

    // Epoch manifests and detection vote margins, through the service's
    // own Detect request.
    auto detect = service.Detect(stream.name, concat.Clone());
    auto close = service.CloseSession(stream.name);
    auto reports = detect.get();
    auto stats = close.get();
    ASSERT_TRUE(reports.ok()) << context;
    ASSERT_TRUE(stats.ok()) << context;
    ASSERT_EQ(stats->stats.epochs.size(), stream.reference_manifests.size())
        << context;
    for (size_t e = 0; e < stats->stats.epochs.size(); ++e) {
      EXPECT_EQ(SerializeManifest(
                    std::move(ManifestFromEpoch(
                                  stats->stats.epochs[e],
                                  stream.dataset->table.schema(),
                                  stream.metrics, stream.config))
                        .ValueOrDie()),
                stream.reference_manifests[e])
          << context << " " << stream.name << " epoch " << e;
    }
    ASSERT_EQ(reports->reports.size(), stream.reference_margins.size())
        << context;
    for (size_t e = 0; e < reports->reports.size(); ++e) {
      // Exact double equality: the margins must come out of the same
      // arithmetic, not merely land close.
      EXPECT_EQ(reports->reports[e].vote_margin,
                stream.reference_margins[e])
          << context << " " << stream.name << " epoch " << e;
    }
  }
  service.Shutdown();
}

TEST(ServiceEquivalenceTest, ConcurrentStreamsMatchSerialReplayAcrossCaps) {
  std::vector<Stream> streams;
  for (size_t i = 0; i < kSessions; ++i) streams.push_back(MakeStream(i));
  for (Stream& stream : streams) {
    BuildReference(&stream);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (const size_t cap : {size_t{1}, size_t{2}, size_t{0}}) {  // 0 = hw
    RunServiceAndCompare(&streams, cap);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Repeated service runs under real concurrency must keep reproducing the
// same bytes — a scheduler-sensitivity probe beyond the single pass.
TEST(ServiceEquivalenceTest, RepeatedConcurrentRunsStayDeterministic) {
  std::vector<Stream> streams;
  for (size_t i = 0; i < kSessions; ++i) streams.push_back(MakeStream(i));
  for (Stream& stream : streams) {
    BuildReference(&stream);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (int round = 0; round < 3; ++round) {
    RunServiceAndCompare(&streams, 2);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace privmark
