// Unit tests for the async service front-end (service/service.h):
// session lifecycle, request widths (asks above the
// cap, zero-thread asks), same-session serialization (Detect racing
// Flush), the shutdown drain guarantee, and the thread bound: strands
// are turns on the cap workers, whatever the session count. The
// byte-identity claims against serial replay live in
// tests/properties/service_equivalence_test.cc.

#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/framework.h"
#include "datagen/medical_data.h"
#include "relation/csv.h"
#include "watermark/key_registry.h"

namespace privmark {
namespace {

constexpr size_t kRows = 1800;
constexpr size_t kBatch = 600;
constexpr uint64_t kSeed = 515151;

struct Env {
  std::unique_ptr<MedicalDataset> dataset;
  UsageMetrics metrics;
  FrameworkConfig config;
};

// OpenSession never blocks on a draining predecessor — it returns
// AlreadyExists until the retired strand is reaped — so name reuse in
// tests retries with a bounded wait.
Status OpenRetrying(PrivmarkService* service, const std::string& name,
                    const UsageMetrics& metrics,
                    const FrameworkConfig& config) {
  Status status = Status::OK();
  for (int spin = 0; spin < 2000; ++spin) {
    status = service->OpenSession(name, metrics, config);
    if (status.ok()) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return status;
}

Env MakeEnv(size_t num_threads = 1) {
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
  env.config.binning.num_threads = num_threads;
  env.config.watermark.num_threads = num_threads;
  env.config.key = {"svc-k1", "svc-k2", /*eta=*/10};
  return env;
}

// ---- PrivmarkService ------------------------------------------------------

TEST(PrivmarkServiceTest, LifecycleAndRegistryErrors) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 2;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());
  EXPECT_EQ(service.num_sessions(), 1u);

  const Status duplicate =
      service.OpenSession("ward", env.metrics, env.config);
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);

  auto unknown = service.Flush("nowhere").get();
  EXPECT_EQ(unknown.status().code(), StatusCode::kKeyError);

  auto closed = service.CloseSession("ward").get();
  ASSERT_TRUE(closed.ok());
  auto after_close = service.Flush("ward").get();
  // Before the retired strand is reaped the name reads as closed
  // (InvalidArgument); afterwards it is simply unknown (KeyError).
  // Either way the submit fails without being accepted.
  EXPECT_FALSE(after_close.ok());
  EXPECT_TRUE(after_close.status().code() == StatusCode::kInvalidArgument ||
              after_close.status().code() == StatusCode::kKeyError)
      << after_close.status().ToString();

  // A closed name is reusable once its strand is reaped (retry until
  // the drain finishes — OpenSession refuses to block on it).
  EXPECT_TRUE(OpenRetrying(&service, "ward", env.metrics, env.config).ok());

  service.Shutdown();
  auto after_shutdown = service.Flush("ward").get();
  EXPECT_EQ(after_shutdown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      service.OpenSession("other", env.metrics, env.config).ok());
}

TEST(PrivmarkServiceTest, NonFiniteDriftThresholdIsRefusedAtOpen) {
  Env env = MakeEnv();
  PrivmarkService service;
  for (const double threshold : {std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity()}) {
    SessionConfig session;
    session.policy = RebinPolicy::kRebinOnDrift;
    session.drift_threshold = threshold;
    const Status refused =
        service.OpenSession("ward", env.metrics, env.config, session);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
        << threshold << ": " << refused.ToString();
    EXPECT_EQ(service.num_sessions(), 0u) << threshold;
  }
  // The name was never taken.
  EXPECT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());
}

TEST(PrivmarkServiceTest, ZeroEtaIsRefusedAtOpen) {
  Env env = MakeEnv();
  PrivmarkService service;
  FrameworkConfig zero_eta = env.config;
  zero_eta.key.eta = 0;
  const Status refused = service.OpenSession("ward", env.metrics, zero_eta);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
      << refused.ToString();
  EXPECT_EQ(service.num_sessions(), 0u);

  // The name was never taken: a valid open and flush still work.
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());
  ASSERT_TRUE(service.ProtectBatch("ward", env.dataset->table.Clone())
                  .get()
                  .ok());
  auto flushed = service.Flush("ward").get();
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  EXPECT_EQ(flushed->epoch.outcome.watermarked.num_rows(), kRows);
}

TEST(PrivmarkServiceTest, ZeroKIsRefusedAtOpen) {
  Env env = MakeEnv();
  PrivmarkService service;
  FrameworkConfig zero_k = env.config;
  zero_k.binning.k = 0;
  const Status refused = service.OpenSession("ward", env.metrics, zero_k);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
      << refused.ToString();
  EXPECT_EQ(service.num_sessions(), 0u);

  // The name was never taken: a valid open and flush still work.
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());
  ASSERT_TRUE(service.ProtectBatch("ward", env.dataset->table.Clone())
                  .get()
                  .ok());
  auto flushed = service.Flush("ward").get();
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  EXPECT_EQ(flushed->epoch.outcome.watermarked.num_rows(), kRows);
}

TEST(PrivmarkServiceTest, ProtectFlushDetectMatchesDirectSession) {
  Env env = MakeEnv();
  // Serial reference: the same request sequence straight on a session.
  ProtectionSession reference(env.metrics, env.config);
  ASSERT_TRUE(reference.Ingest(env.dataset->table).ok());
  const auto reference_flush = reference.Flush();
  ASSERT_TRUE(reference_flush.ok());
  const Table& reference_table = reference_flush->outcome.watermarked;

  ServiceConfig service_config;
  service_config.thread_cap = 2;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());
  auto ingest = service.ProtectBatch("ward", env.dataset->table.Clone());
  auto flush = service.Flush("ward");
  auto flushed = flush.get();
  ASSERT_TRUE(ingest.get().ok());
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(TableToCsv(flushed->epoch.outcome.watermarked),
            TableToCsv(reference_table));

  auto detect = service.Detect("ward", reference_table.Clone()).get();
  ASSERT_TRUE(detect.ok());
  ASSERT_EQ(detect->reports.size(), 1u);
  EXPECT_EQ(detect->reports[0].recovered.ToString(),
            reference_flush->outcome.mark.ToString());
}

TEST(PrivmarkServiceTest, DetectFingerprintScansRegistryUnderAGrant) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 2;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());
  ASSERT_TRUE(
      service.ProtectBatch("ward", env.dataset->table.Clone()).get().ok());
  auto flushed = service.Flush("ward").get();
  ASSERT_TRUE(flushed.ok());
  const Table& emitted = flushed->epoch.outcome.watermarked;

  auto registry = std::make_shared<KeyRegistry>();
  ASSERT_TRUE(registry->Add(NamedKey{"owner", env.config.key}).ok());
  Random rng(5);
  ASSERT_TRUE(registry->Add(GenerateKey("decoy", 10, &rng)).ok());

  ServiceRequest request;
  request.kind = RequestKind::kDetectFingerprint;
  request.session = "ward";
  request.table = emitted.Clone();
  request.registry = registry;
  auto scanned = service.Submit(std::move(request)).get();
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(scanned->kind, RequestKind::kDetectFingerprint);
  EXPECT_GE(scanned->threads_granted, 1u);
  ASSERT_EQ(scanned->fingerprints.size(), 1u);  // one emitted epoch
  const FingerprintReport& report = scanned->fingerprints[0];
  ASSERT_EQ(report.verdicts.size(), 2u);
  EXPECT_EQ(report.verdicts[report.ranking[0]].key_name, "owner");
  EXPECT_TRUE(report.verdicts[report.ranking[0]].detected);
  EXPECT_FALSE(report.verdicts[report.ranking[1]].detected);
  EXPECT_FALSE(report.collusion);

  // A missing registry fails the request without killing the strand.
  ServiceRequest unkeyed;
  unkeyed.kind = RequestKind::kDetectFingerprint;
  unkeyed.session = "ward";
  unkeyed.table = emitted.Clone();
  auto missing = service.Submit(std::move(unkeyed)).get();
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(service.Detect("ward", emitted.Clone()).get().ok());
}

TEST(PrivmarkServiceTest, AdmissionClampsDemandAboveTheCap) {
  // A request's width is its ask, clamped to the cap.
  Env env = MakeEnv(/*num_threads=*/64);  // session demands 64 threads
  ServiceConfig service_config;
  service_config.thread_cap = 2;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("greedy", env.metrics, env.config).ok());
  auto ingest =
      service.ProtectBatch("greedy", env.dataset->table.Clone()).get();
  ASSERT_TRUE(ingest.ok());
  EXPECT_LE(ingest->threads_granted, 2u);
  EXPECT_GE(ingest->threads_granted, 1u);
  auto flush = service.Flush("greedy", /*num_threads=*/64).get();
  ASSERT_TRUE(flush.ok());
  EXPECT_LE(flush->threads_granted, 2u);
}

TEST(PrivmarkServiceTest, ZeroThreadAskMeansWholeCap) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 3;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());
  auto ingest = service
                    .ProtectBatch("ward", env.dataset->table.Clone(),
                                  /*num_threads=*/0)
                    .get();
  ASSERT_TRUE(ingest.ok());
  // Alone on the service, a zero ask gets everything.
  EXPECT_EQ(ingest->threads_granted, 3u);
}

TEST(PrivmarkServiceTest, DetectRacingFlushSerializesInArrivalOrder) {
  Env env = MakeEnv();
  // Deterministic pipeline: an identical serial replay predicts the
  // epoch-0 output byte for byte.
  ProtectionSession reference(env.metrics, env.config);
  ASSERT_TRUE(reference.Ingest(env.dataset->table).ok());
  const auto reference_flush = reference.Flush();
  ASSERT_TRUE(reference_flush.ok());
  const Table& epoch0 = reference_flush->outcome.watermarked;

  // Submit ingest + flush + detect back to back, waiting on nothing.
  // Had Detect overtaken Flush it would see a session with no epochs and
  // fail (row-count mismatch); serialized in arrival order it sees the
  // freshly flushed epoch and recovers its mark.
  ServiceConfig service_config;
  service_config.thread_cap = 2;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());
  auto ingest = service.ProtectBatch("ward", env.dataset->table.Clone());
  auto flush = service.Flush("ward");
  auto detect = service.Detect("ward", epoch0.Clone());
  auto report = detect.get();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->reports.size(), 1u);
  EXPECT_EQ(report->reports[0].recovered.ToString(),
            reference_flush->outcome.mark.ToString());
  ASSERT_TRUE(ingest.get().ok());
  ASSERT_TRUE(flush.get().ok());
}

TEST(PrivmarkServiceTest, ShutdownDrainsEveryAcceptedRequest) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  auto service = std::make_unique<PrivmarkService>(service_config);
  ASSERT_TRUE(service->OpenSession("ward", env.metrics, env.config).ok());
  // Queue a full stream and shut down immediately: everything accepted
  // must still execute (futures complete OK), nothing may hang or drop.
  std::vector<ServiceFuture> futures;
  for (size_t begin = 0; begin < kRows; begin += kBatch) {
    futures.push_back(service->ProtectBatch(
        "ward", env.dataset->table.Slice(begin, begin + kBatch)));
  }
  futures.push_back(service->Flush("ward"));
  service->Shutdown();
  size_t emitted = 0;
  for (ServiceFuture& future : futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    if (result->kind == RequestKind::kFlush) {
      emitted += result->epoch.outcome.watermarked.num_rows();
    }
  }
  EXPECT_GT(emitted, 0u);
  service.reset();  // double-shutdown via the destructor is harmless
}

TEST(PrivmarkServiceTest, ClosedSessionsAreReclaimed) {
  // A long-lived service must not accumulate retired sessions' state:
  // a closed strand (session epochs, lease, queue) is freed by the turn
  // that drains its queue.
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  PrivmarkService service(service_config);
  const Table batch = env.dataset->table.Slice(0, kBatch);
  for (size_t i = 0; i < 8; ++i) {
    const std::string name = "stream-" + std::to_string(i);
    ASSERT_TRUE(OpenRetrying(&service, name, env.metrics, env.config).ok());
    ASSERT_TRUE(service.ProtectBatch(name, batch.Clone()).get().ok());
    ASSERT_TRUE(service.CloseSession(name).get().ok());
  }
  // The close futures resolved, so every strand's last turn has run its
  // completion and is about to free the strand. Allow a bounded wait for
  // the last one.
  size_t strands = service.num_strands();
  for (int spin = 0; spin < 200 && strands > 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(OpenRetrying(&service, "probe", env.metrics, env.config).ok());
    ASSERT_TRUE(service.CloseSession("probe").get().ok());
    strands = service.num_strands();
  }
  EXPECT_LE(strands, 2u);  // at most the last probe + one laggard
  EXPECT_EQ(service.num_sessions(), 0u);
}

TEST(PrivmarkServiceTest, ConcurrentSessionsShareThePoolUnderTheCap) {
  Env env_a = MakeEnv(/*num_threads=*/2);
  Env env_b = MakeEnv(/*num_threads=*/2);
  ServiceConfig service_config;
  service_config.thread_cap = 2;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("a", env_a.metrics, env_a.config).ok());
  ASSERT_TRUE(service.OpenSession("b", env_b.metrics, env_b.config).ok());
  std::vector<ServiceFuture> futures;
  for (size_t begin = 0; begin < kRows; begin += kBatch) {
    futures.push_back(service.ProtectBatch(
        "a", env_a.dataset->table.Slice(begin, begin + kBatch)));
    futures.push_back(service.ProtectBatch(
        "b", env_b.dataset->table.Slice(begin, begin + kBatch)));
  }
  futures.push_back(service.Flush("a"));
  futures.push_back(service.Flush("b"));
  for (ServiceFuture& future : futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    // No request runs wider than the cap.
    EXPECT_LE(result->threads_granted, 2u);
    EXPECT_GE(result->threads_granted, 1u);
  }
}

// ---- Thread bound ---------------------------------------------------------

// The process's thread count, from the Threads: line of /proc/self/status.
size_t ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<size_t>(std::stoul(line.substr(8)));
    }
  }
  ADD_FAILURE() << "no Threads: line in /proc/self/status";
  return 0;
}

TEST(ServiceThreadBoundTest, ThreadCountIsTheCapWhateverTheSessionCount) {
  Env env = MakeEnv();
  // The sanitizer runtimes start a helper thread with the process's
  // first thread; start one first, so the baseline counts the helper.
  std::thread([] {}).join();
  const size_t before = ProcessThreads();
  ServiceConfig service_config;
  service_config.thread_cap = 2;
  PrivmarkService service(service_config);
  const Table batch = env.dataset->table.Slice(0, kBatch);
  std::vector<ServiceFuture> futures;
  for (size_t i = 0; i < 64; ++i) {
    const std::string name = "ward-" + std::to_string(i);
    ASSERT_TRUE(service.OpenSession(name, env.metrics, env.config).ok());
    futures.push_back(service.ProtectBatch(name, batch.Clone()));
  }
  // Every session holds a request in flight (or just answered one): the
  // pool's cap workers are still the only threads the service added.
  EXPECT_LE(ProcessThreads(), before + service_config.thread_cap);
  for (ServiceFuture& future : futures) ASSERT_TRUE(future.get().ok());
  EXPECT_LE(ProcessThreads(), before + service_config.thread_cap);
}

TEST(ServiceThreadBoundTest, SessionsTakeTurnsOnOneWorker) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("a", env.metrics, env.config).ok());
  ASSERT_TRUE(service.OpenSession("b", env.metrics, env.config).ok());

  std::mutex mu;
  std::vector<std::string> order;  // guarded by mu: completion order
  // Declared after the service, so a failed assertion still opens the
  // gate before the service drains.
  struct Gate {
    std::promise<void> promise;
    bool open = false;
    void Open() {
      if (!open) promise.set_value();
      open = true;
    }
    ~Gate() { Open(); }
  } gate;
  std::shared_future<void> opened = gate.promise.get_future().share();

  const Table batch = env.dataset->table.Slice(0, kBatch);
  std::vector<std::future<void>> done;
  auto submit = [&](const std::string& session, const std::string& tag,
                    bool gated) {
    auto finished = std::make_shared<std::promise<void>>();
    done.push_back(finished->get_future());
    ServiceRequest request;
    request.kind = RequestKind::kProtectBatch;
    request.session = session;
    request.table = batch.Clone();
    service.Submit(std::move(request),
                   [&mu, &order, tag, gated, opened,
                    finished](Result<ServiceResponse> result) {
                     EXPECT_TRUE(result.ok()) << tag;
                     if (gated) opened.wait();
                     {
                       std::lock_guard<std::mutex> lock(mu);
                       order.push_back(tag);
                     }
                     finished->set_value();
                   });
  };
  // a1's completion holds the only worker; a2..a5 queue behind it, and
  // b1 arrives last.
  submit("a", "a1", /*gated=*/true);
  for (int i = 2; i <= 5; ++i) {
    submit("a", "a" + std::to_string(i), /*gated=*/false);
  }
  submit("b", "b1", /*gated=*/false);
  gate.Open();
  for (std::future<void>& future : done) future.wait();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(order.size(), 6u);
  const auto position = [&order](const std::string& tag) {
    return std::find(order.begin(), order.end(), tag) - order.begin();
  };
  // One request per turn: b's turn was posted while a1 ran, so it comes
  // before a's remaining requests — certainly before a5.
  EXPECT_LT(position("b1"), position("a5"));
  // Same-session order is still arrival order.
  for (int i = 2; i <= 5; ++i) {
    EXPECT_LT(position("a" + std::to_string(i - 1)),
              position("a" + std::to_string(i)));
  }
}

}  // namespace
}  // namespace privmark
