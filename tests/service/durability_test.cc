// Durability and overload-control tests for the service front-end:
// queue abandonment, per-request deadlines, queue-depth shedding,
// journal-backed OpenSession recovery, and the deadline-bounded
// Shutdown. The crash-under-kill acceptance
// suite lives in tests/integration/crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/framework.h"
#include "core/journal.h"
#include "core/session.h"
#include "datagen/medical_data.h"
#include "relation/csv.h"
#include "service/service.h"
#include "testing/temp_dir.h"

namespace privmark {
namespace {

constexpr size_t kRows = 1800;
constexpr size_t kBatch = 600;
constexpr uint64_t kSeed = 626262;

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
  env.config.binning.num_threads = 1;
  env.config.watermark.num_threads = 1;
  env.config.key = {"dur-k1", "dur-k2", /*eta=*/10};
  env.config.key_id = "dur-owner";
  return env;
}

// A per-test journal directory (flat; the service requires it to exist).
std::string FreshJournalDir(const std::string& tag) {
  const std::string dir = TestTempPath("privmark_dur_" + tag);
  std::remove((dir + "/ward.wal").c_str());
  ::system(("mkdir -p '" + dir + "'").c_str());
  return dir;
}

void AppendAll(Table* all, const Table& rows) {
  if (rows.num_rows() == 0) return;
  if (all->schema().num_columns() == 0) *all = Table(rows.schema());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    ASSERT_TRUE(all->AppendRow(rows.row(r)).ok());
  }
}

// ---- ServiceQueue::Abandon ------------------------------------------------

TEST(ServiceQueueAbandonTest, FailsQueuedPromisesAndClosesIntake) {
  ServiceQueue queue;
  std::vector<Status> completed;
  for (size_t i = 0; i < 3; ++i) {
    ServiceQueue::Item item;
    item.request.session = "s";
    item.done = [&completed](Result<ServiceResponse> result) {
      completed.push_back(result.status());
    };
    ASSERT_TRUE(queue.Push(std::move(item)));
  }
  const size_t abandoned =
      queue.Abandon(Status::DeadlineExceeded("shutdown deadline"));
  EXPECT_EQ(abandoned, 3u);
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.size(), 0u);
  ASSERT_EQ(completed.size(), 3u);
  for (const Status& status : completed) {
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  }
  ServiceQueue::Item rejected;
  EXPECT_FALSE(queue.Push(std::move(rejected)));
  // Idempotent on an empty closed queue.
  EXPECT_EQ(queue.Abandon(Status::DeadlineExceeded("again")), 0u);
}

// ---- Per-request deadlines ------------------------------------------------

// Holds a session's strand on one request. The gated request's completion
// blocks until Open(), and the strand pops its next request only after
// that completion returns (service.h completion contract), so everything
// queued behind it waits exactly as long as the test says. Declare the
// gate after the service: its destructor opens it, so a failed assertion
// cannot leave the service's drain waiting on the strand.
class StrandGate {
 public:
  ~StrandGate() { Open(); }

  ServiceFuture Submit(PrivmarkService* service, ServiceRequest request) {
    auto result = std::make_shared<std::promise<Result<ServiceResponse>>>();
    ServiceFuture future = result->get_future();
    service->Submit(std::move(request),
                    [result, opened = opened_](Result<ServiceResponse> r) {
                      result->set_value(std::move(r));
                      opened.wait();
                    });
    return future;
  }

  void Open() {
    if (open_) return;
    open_ = true;
    release_.set_value();
  }

 private:
  bool open_ = false;
  std::promise<void> release_;
  std::shared_future<void> opened_ = release_.get_future().share();
};

// An ingest of the whole table that never expires.
ServiceRequest UnboundedIngest(const Env& env) {
  ServiceRequest request;
  request.kind = RequestKind::kProtectBatch;
  request.session = "ward";
  request.table = env.dataset->table.Clone();
  request.deadline_ms = 0;
  return request;
}

// Keeps the gate shut until requests submitted with a 1ms deadline have
// been queued for longer than that.
void OutwaitOneMillisecondDeadlines(StrandGate* gate) {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gate->Open();
}

TEST(ServiceDeadlineTest, QueuedPastDeadlineFailsWithoutExecuting) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());

  StrandGate gate;
  auto ingest = gate.Submit(&service, UnboundedIngest(env));
  ServiceRequest late;
  late.kind = RequestKind::kFlush;
  late.session = "ward";
  late.deadline_ms = 1;
  auto expired = service.Submit(std::move(late));
  auto flush = service.Flush("ward");
  OutwaitOneMillisecondDeadlines(&gate);

  ASSERT_TRUE(ingest.get().ok());
  auto result = expired.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // The expired flush never executed: the rows were still buffered for
  // the flush behind it, and the session holds exactly its one epoch.
  auto flushed = flush.get();
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  auto stats = service.CloseSession("ward").get();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->stats.epochs.size(), 1u);
}

TEST(ServiceDeadlineTest, DefaultDeadlineComesFromConfig) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  service_config.default_deadline_ms = 1;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());

  StrandGate gate;
  auto ingest = gate.Submit(&service, UnboundedIngest(env));
  // Inherits the 1ms service default...
  auto expired = service.Flush("ward");
  // ...while an explicit 0 opts out of any deadline.
  ServiceRequest unbounded;
  unbounded.kind = RequestKind::kFlush;
  unbounded.session = "ward";
  unbounded.deadline_ms = 0;
  auto no_deadline = service.Submit(std::move(unbounded));
  OutwaitOneMillisecondDeadlines(&gate);

  ASSERT_TRUE(ingest.get().ok());
  auto expired_result = expired.get();
  ASSERT_FALSE(expired_result.ok());
  EXPECT_EQ(expired_result.status().code(), StatusCode::kDeadlineExceeded);
  auto unbounded_result = no_deadline.get();
  EXPECT_TRUE(unbounded_result.ok()) << unbounded_result.status().ToString();
}

// ---- Queue-depth shedding -------------------------------------------------

TEST(ServiceSheddingTest, FullQueueShedsWithRetryHintButCloseStillLands) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  service_config.max_queue_depth = 1;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());

  // Keep the strand busy (full-pipeline flush), then stack requests
  // until the depth cap sheds one. The strand drains concurrently, so
  // submit until we observe a shed rather than asserting on exact
  // positions.
  auto ingest = service.ProtectBatch("ward", env.dataset->table);
  auto flush = service.Flush("ward");
  std::vector<ServiceFuture> extras;
  Status shed_status = Status::OK();
  for (int i = 0; i < 64 && shed_status.ok(); ++i) {
    auto future = service.Flush("ward");
    if (future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      auto result = future.get();
      if (!result.ok() &&
          result.status().code() == StatusCode::kResourceExhausted) {
        shed_status = result.status();
        break;
      }
      continue;
    }
    extras.push_back(std::move(future));
  }
  ASSERT_FALSE(shed_status.ok()) << "queue never filled";
  EXPECT_GT(shed_status.retry_after_ms(), 0)
      << "shed status lacked the typed backpressure hint";

  // CloseSession is exempt from shedding: an overloaded session must
  // still be closable.
  auto close = service.CloseSession("ward");
  (void)ingest.get();
  (void)flush.get();
  for (auto& future : extras) (void)future.get();
  EXPECT_TRUE(close.get().ok());
}

// ---- Journal-backed OpenSession -------------------------------------------

TEST(ServiceJournalTest, FreshOpenStartsAJournalAndReportsNoRecovery) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  service_config.journal_dir = FreshJournalDir("fresh");
  PrivmarkService service(service_config);
  SessionRecovery recovery;
  recovery.recovered = true;  // must be overwritten
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config,
                                  SessionConfig(), &recovery)
                  .ok());
  EXPECT_FALSE(recovery.recovered);
  EXPECT_EQ(recovery.batches_applied, 0u);
  // The journal file exists from the moment the session opens.
  auto contents =
      SessionJournal::ReadAll(service_config.journal_dir + "/ward.wal");
  ASSERT_TRUE(contents.ok());
}

TEST(ServiceJournalTest, ReopenRecoversTheStreamByteIdentically) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  service_config.journal_dir = FreshJournalDir("reopen");

  // Reference: one uninterrupted, unjournaled session over all three
  // batches — flush once after the first batch; under the default
  // freeze-bins policy the later batches then emit directly at ingest.
  Table ref_emitted;
  {
    Env ref_env = MakeEnv();
    ProtectionSession reference(ref_env.metrics, ref_env.config);
    for (size_t begin = 0; begin < kRows; begin += kBatch) {
      auto ingest =
          reference.Ingest(env.dataset->table.Slice(begin, begin + kBatch));
      ASSERT_TRUE(ingest.ok()) << ingest.status().message();
      AppendAll(&ref_emitted, ingest->emitted);
      if (begin == 0) {
        auto flush = reference.Flush();
        ASSERT_TRUE(flush.ok()) << flush.status().message();
        AppendAll(&ref_emitted, flush->outcome.watermarked);
      }
    }
  }

  // Phase 1: journaled service ingests the first two batches, then the
  // whole service goes away (clean shutdown here; the kill-mid-write
  // variant lives in the crash suite).
  Table live_emitted;
  {
    PrivmarkService service(service_config);
    ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());
    for (size_t begin = 0; begin < 2 * kBatch; begin += kBatch) {
      auto ingest = service
                        .ProtectBatch("ward",
                                      env.dataset->table.Slice(begin, begin + kBatch))
                        .get();
      ASSERT_TRUE(ingest.ok()) << ingest.status().message();
      AppendAll(&live_emitted, ingest->ingest.emitted);
      if (begin == 0) {
        auto flush = service.Flush("ward").get();
        ASSERT_TRUE(flush.ok()) << flush.status().message();
        AppendAll(&live_emitted, flush->epoch.outcome.watermarked);
      }
    }
  }

  // Phase 2: a new service over the same journal_dir recovers the
  // stream, replays the identical emissions, and continues it.
  PrivmarkService service(service_config);
  SessionRecovery recovery;
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config,
                                  SessionConfig(), &recovery)
                  .ok());
  EXPECT_TRUE(recovery.recovered);
  EXPECT_EQ(recovery.batches_applied, 2u);
  EXPECT_EQ(recovery.epochs_sealed, 1u);
  EXPECT_FALSE(recovery.tail_truncated);
  EXPECT_EQ(TableToCsv(recovery.emitted), TableToCsv(live_emitted));

  Table resumed = recovery.emitted;
  auto ingest = service
                    .ProtectBatch("ward",
                                  env.dataset->table.Slice(2 * kBatch, 3 * kBatch))
                    .get();
  ASSERT_TRUE(ingest.ok()) << ingest.status().message();
  AppendAll(&resumed, ingest->ingest.emitted);
  EXPECT_EQ(TableToCsv(resumed), TableToCsv(ref_emitted));

  // The recovered stream still detects its own marks: one report per
  // epoch, each recovering the epoch's embedded mark exactly.
  auto reports = service.Detect("ward", resumed).get();
  ASSERT_TRUE(reports.ok()) << reports.status().message();
  auto stats = service.CloseSession("ward").get();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->stats.epochs.size(), reports->reports.size());
  ASSERT_GE(reports->reports.size(), 1u);
  for (size_t e = 0; e < reports->reports.size(); ++e) {
    EXPECT_EQ(reports->reports[e].recovered.ToString(),
              stats->stats.epochs[e].mark.ToString())
        << "epoch " << e;
  }
}

TEST(ServiceJournalTest, RecoveryRejectsAMismatchedConfig) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  service_config.journal_dir = FreshJournalDir("mismatch");
  {
    PrivmarkService service(service_config);
    ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());
    ASSERT_TRUE(
        service.ProtectBatch("ward", env.dataset->table.Slice(0, kBatch))
            .get()
            .ok());
  }
  PrivmarkService service(service_config);
  Env other = MakeEnv();
  other.config.binning.k = 20;  // not the journaled stream's config
  const Status status =
      service.OpenSession("ward", other.metrics, other.config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("config"), std::string::npos);
}

TEST(ServiceJournalTest, SessionNamesAreEscapedToJournalBasenames) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  service_config.journal_dir = FreshJournalDir("sanitize");
  PrivmarkService service(service_config);
  ASSERT_TRUE(
      service.OpenSession("ward/../x", env.metrics, env.config).ok());
  auto contents = SessionJournal::ReadAll(service_config.journal_dir +
                                          "/ward%2F..%2Fx.wal");
  EXPECT_TRUE(contents.ok()) << contents.status().message();
}

TEST(ServiceJournalTest, DistinctNamesNeverShareAJournal) {
  // "a b" and "a_b" collided under the old '_'-replacement scheme: the
  // second open would silently Resume — and corrupt — the first
  // session's live WAL. The injective escaping gives each its own file.
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  service_config.journal_dir = FreshJournalDir("collide");
  std::remove((service_config.journal_dir + "/a%20b.wal").c_str());
  std::remove((service_config.journal_dir + "/a_b.wal").c_str());
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("a b", env.metrics, env.config).ok());
  ASSERT_TRUE(service.OpenSession("a_b", env.metrics, env.config).ok());
  auto first = service.ProtectBatch("a b", env.dataset->table.Slice(0, kBatch))
                   .get();
  ASSERT_TRUE(first.ok()) << first.status().message();
  auto second =
      service.ProtectBatch("a_b", env.dataset->table.Slice(0, kBatch)).get();
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_TRUE(
      SessionJournal::ReadAll(service_config.journal_dir + "/a%20b.wal").ok());
  EXPECT_TRUE(
      SessionJournal::ReadAll(service_config.journal_dir + "/a_b.wal").ok());
}

// ---- Deadline-bounded Shutdown --------------------------------------------

TEST(ServiceShutdownTest, DeadlineShutdownAbandonsQueuedWorkVisibly) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());

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

  // The first request's completion holds the cap-1 worker until the gate
  // opens, so everything submitted after it is still queued at Shutdown.
  std::promise<void> started;
  std::promise<Status> first;
  std::future<Status> first_status = first.get_future();
  ServiceRequest request;
  request.kind = RequestKind::kProtectBatch;
  request.session = "ward";
  request.table = env.dataset->table.Slice(0, kBatch);
  service.Submit(std::move(request),
                 [&started, &first, opened](Result<ServiceResponse> result) {
                   started.set_value();
                   if (result.ok()) opened.wait();
                   first.set_value(result.status());
                 });
  started.get_future().wait();

  constexpr size_t kQueued = 11;
  std::vector<ServiceFuture> futures;
  for (size_t i = 0; i < kQueued; ++i) {
    futures.push_back(
        i % 2 == 0 ? service.ProtectBatch(
                         "ward", env.dataset->table.Slice(0, kBatch))
                   : service.Flush("ward"));
  }
  // Only Shutdown(0)'s abandon can complete the last queued request while
  // the worker is held; once it has, let the held request finish.
  std::thread opener([&futures, &gate] {
    futures.back().wait();
    gate.Open();
  });
  const Status status = service.Shutdown(0);
  opener.join();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("abandoned " + std::to_string(kQueued) +
                                  " queued request(s)"),
            std::string::npos)
      << status.ToString();
  EXPECT_TRUE(first_status.get().ok());

  size_t abandoned = 0;
  for (auto& future : futures) {
    auto result = future.get();  // every future completes either way
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    ++abandoned;
  }
  EXPECT_EQ(abandoned, kQueued);
  // Idempotent afterwards.
  EXPECT_TRUE(service.Shutdown(0).ok());
}

TEST(ServiceShutdownTest, GenerousDeadlineDrainsCleanly) {
  Env env = MakeEnv();
  ServiceConfig service_config;
  service_config.thread_cap = 1;
  PrivmarkService service(service_config);
  ASSERT_TRUE(service.OpenSession("ward", env.metrics, env.config).ok());
  auto ingest =
      service.ProtectBatch("ward", env.dataset->table.Slice(0, kBatch));
  auto flush = service.Flush("ward");
  EXPECT_TRUE(service.Shutdown(60'000).ok());
  EXPECT_TRUE(ingest.get().ok());
  EXPECT_TRUE(flush.get().ok());
}

}  // namespace
}  // namespace privmark
