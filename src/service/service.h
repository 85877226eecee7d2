// In-process async protect/detect service — the long-lived form of the
// paper's outsourcing scenario: a hospital does not protect one frozen
// relation, it keeps publishing protected batches of a stream (and
// occasionally audits the outsourced copy for its mark).
//
// The service fronts any number of named streams with one shared worker
// pool:
//
//   ServiceConfig cfg;
//   cfg.thread_cap = 8;
//   cfg.journal_dir = "/var/lib/privmark/journals";  // durable streams
//   PrivmarkService service(cfg);
//   service.OpenSession("ward-a", metrics, config);
//   auto f1 = service.ProtectBatch("ward-a", batch1);   // futures
//   auto f2 = service.ProtectBatch("ward-a", batch2);
//   auto f3 = service.Flush("ward-a");
//   auto f4 = service.Detect("ward-a", outsourced_copy);
//   auto f5 = service.CloseSession("ward-a");
//
// Execution model — the two properties everything else hangs off:
//
//  1. Same-session requests SERIALIZE in arrival order. Each session is a
//     strand: one FIFO of pending requests, kept under the service's one
//     lock, that owns no thread. While its queue is non-empty the strand
//     is posted to the service's worker pool, and each turn runs ONE
//     request before the strand goes to the back of the pool's queue
//     again, so sessions take turns. A session's epoch output is
//     therefore byte-identical to a serial replay of the same request
//     sequence — concurrency never reorders a stream (proven by the
//     service-equivalence property suite across caps).
//
//  2. Different-session requests run CONCURRENTLY on that one pool of
//     thread_cap workers. The pool is the only place service work runs,
//     so the cap is the service's thread count whatever the number of
//     sessions. Each request runs `width` threads wide: its session's
//     num_threads (or a per-request override), 0 and asks above the cap
//     meaning the cap. The width reaches the agents through a ThreadPool
//     lease whose reported worker count IS the width, so they shard
//     exactly that wide; a turn that shards helps run its own batch, so
//     a width-w request holds at most w workers.
//
// Shutdown drains: once a request is accepted (Submit did not reject
// it), it executes — Shutdown() closes intake and waits until every
// strand has drained its queue. Accepted work is never dropped. The
// deadline form, Shutdown(deadline_ms), trades that guarantee for
// boundedness: when the deadline passes, still-queued requests fail
// DeadlineExceeded without executing (in-flight ones always finish —
// they cannot be safely interrupted) and the call reports how many were
// abandoned. An abandoned request fails visibly, so its caller can
// resubmit after recovery; everything that DID execute before the
// deadline is already in the journal and survives.
//
// Durability: give ServiceConfig a journal_dir and every session writes
// a write-ahead journal at <journal_dir>/<name>.wal (core/journal.h).
// OpenSession finds an existing journal for the name and RECOVERS the
// session from it — replaying the journaled stream to byte-identical
// state — before accepting new requests; a crash between Submit and the
// request's completion therefore costs at most the un-journaled tail of
// the in-flight batch.
//
// Overload control: per-request deadlines (deadline_ms, counted from
// Submit) fail still-queued requests with DeadlineExceeded instead of
// letting them camp; a queue-depth cap sheds new load with
// ResourceExhausted (the Status carries a typed retry_after_ms() hint)
// instead of growing unbounded.

#ifndef PRIVMARK_SERVICE_SERVICE_H_
#define PRIVMARK_SERVICE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/manifest.h"
#include "core/session.h"

namespace privmark {

/// \brief Run "as wide as the session's config asks" (the default
/// per-request width).
inline constexpr size_t kSessionThreads = static_cast<size_t>(-1);

/// \brief Per-request deadline sentinel: use the service config's
/// default_deadline_ms.
inline constexpr int64_t kDeadlineFromConfig = -1;

/// \brief The request types the service executes.
enum class RequestKind {
  /// Ingest one batch of original rows (ProtectionSession::Ingest).
  kProtectBatch,
  /// Force an epoch boundary (ProtectionSession::Flush).
  kFlush,
  /// Detect every epoch's mark in a concatenation of the session's
  /// emitted output (ProtectionSession::DetectAcrossEpochs).
  kDetect,
  /// Scan a suspect table against a key registry
  /// (ProtectionSession::FingerprintAcrossEpochs).
  kDetectFingerprint,
  /// Drain the session and retire it; its name becomes reusable.
  kCloseSession,
};

const char* RequestKindToString(RequestKind kind);

/// \brief One typed request. `table` carries the kProtectBatch batch or
/// the kDetect / kDetectFingerprint concatenation; unused otherwise.
struct ServiceRequest {
  RequestKind kind = RequestKind::kProtectBatch;
  std::string session;
  Table table;
  /// kDetectFingerprint: the candidate keys to scan against. Shared
  /// (not copied) because a registry can hold thousands of keys and one
  /// audit typically scans many suspect tables against the same one;
  /// callers must not mutate it after submitting.
  std::shared_ptr<const KeyRegistry> registry;
  /// kDetectFingerprint only: when non-null, per-key-shard verdicts are
  /// streamed through this sink as each epoch's scan completes them, in
  /// deterministic (epoch, shard) order, BEFORE the request's completion
  /// runs. The sink runs on the pool worker running the session's turn,
  /// so it must not block on the request's own result, and a slow sink
  /// holds one of the cap workers. The concatenation of the
  /// streamed shard verdicts is byte-identical to the final response's
  /// per-epoch FingerprintReport verdicts (fingerprint.h contract).
  FingerprintShardSink fingerprint_sink;
  /// Thread ask for this request; kSessionThreads = the session
  /// config's own num_threads knobs. 0 = the whole thread cap, and an
  /// ask above the cap runs at the cap.
  size_t num_threads = kSessionThreads;
  /// Deadline in milliseconds, counted from Submit(). The request fails
  /// with DeadlineExceeded if it is still queued when the deadline
  /// passes (it never executes). kDeadlineFromConfig (-1) = the
  /// service's default_deadline_ms; 0 = no deadline, and so is one too
  /// far off for the steady clock to hold (INT64_MAX, say).
  int64_t deadline_ms = kDeadlineFromConfig;
};

/// \brief Terminal snapshot of a closed session (kCloseSession result).
struct SessionStats {
  size_t rows_ingested = 0;
  size_t rows_emitted = 0;
  size_t rows_suppressed = 0;
  std::vector<EpochRecord> epochs;
  /// One manifest per entry of `epochs`, built from the session's own
  /// schema, metrics and config (SessionManifests, core/manifest.h).
  std::vector<ProtectionManifest> manifests;
};

/// \brief One request's result; `kind` says which member is meaningful.
struct ServiceResponse {
  RequestKind kind = RequestKind::kProtectBatch;
  IngestResult ingest;                // kProtectBatch
  EpochOutput epoch;                  // kFlush
  std::vector<DetectReport> reports;  // kDetect
  /// kDetectFingerprint: one registry scan per epoch, in epoch order.
  std::vector<FingerprintReport> fingerprints;
  SessionStats stats;                 // kCloseSession
  /// The width the request ran at: its thread ask with 0 and asks above
  /// the cap normalized to the cap (1 for kCloseSession, which does no
  /// data-parallel work).
  size_t threads_granted = 1;
  /// The session's sticky journal state as of this request
  /// (ProtectionSession::journal_status): OK until an epoch seals in
  /// memory but its seal record or fsync fails — the request still
  /// succeeds, so this field is how a client learns its stream's
  /// epoch-boundary durability barrier degraded. Always OK for
  /// unjournaled sessions.
  Status journal_status;
};

/// \brief Future type the future-returning Submit returns; errors
/// travel as the Result's Status (the service never throws across the
/// future).
using ServiceFuture = std::future<Result<ServiceResponse>>;

/// \brief Receives one request's result (see PrivmarkService::Submit
/// for when and where it runs).
using ServiceCompletion = std::function<void(Result<ServiceResponse>)>;

/// \brief Service-wide configuration.
struct ServiceConfig {
  /// The shared pool's worker count, which is every thread that runs
  /// service work, and the widest a request runs. 0 = hardware
  /// concurrency.
  size_t thread_cap = 0;
  /// Directory for per-session write-ahead journals; empty = no
  /// durability. Each session journals to <journal_dir>/<name>.wal with
  /// the name percent-escaped to [A-Za-z0-9._-] — the encoding is
  /// injective, so distinct session names never share a journal file.
  /// OpenSession recovers from an existing journal. The directory must
  /// already exist.
  std::string journal_dir;
  /// Default per-request deadline in milliseconds, applied when a
  /// request leaves deadline_ms at kDeadlineFromConfig. 0 = none.
  int64_t default_deadline_ms = 0;
  /// Submit sheds with ResourceExhausted when the target session's
  /// queue already holds this many requests. 0 = unbounded.
  size_t max_queue_depth = 0;
};

/// \brief What OpenSession found in a pre-existing journal (all zeros
/// for a fresh session).
struct SessionRecovery {
  /// True iff the session was rebuilt from a journal rather than
  /// created fresh.
  bool recovered = false;
  size_t batches_applied = 0;
  size_t epochs_sealed = 0;
  /// True iff a torn tail (partial final record) was discarded.
  bool tail_truncated = false;
  /// Everything the recovered session had emitted before the crash —
  /// the rows the outsourced copy should already hold.
  Table emitted;
};

/// \brief The async protect/detect service.
class PrivmarkService {
 public:
  explicit PrivmarkService(ServiceConfig config = ServiceConfig());
  /// Drains (Shutdown()), then joins the pool's workers.
  ~PrivmarkService();

  PrivmarkService(const PrivmarkService&) = delete;
  PrivmarkService& operator=(const PrivmarkService&) = delete;

  /// \brief Registers a named stream: builds its ProtectionSession with
  /// the service's shared pool leased in (any pool the caller put into
  /// `config` is overridden — sessions of one service share one pool by
  /// construction) and registers its strand. AlreadyExists for a live name
  /// and for a closed name whose strand is still draining (retry; the
  /// name frees the moment the drain finishes — OpenSession never
  /// blocks the registry on another session's backlog). InvalidArgument
  /// for a key with eta == 0 or a config with k == 0, before anything
  /// is registered.
  ///
  /// With a journal_dir configured, the session is durable: a fresh
  /// name starts a new journal; a name whose journal already exists is
  /// RECOVERED from it (byte-identical replay, core/journal.h) before
  /// the strand accepts requests — reopening a crashed (or closed)
  /// stream resumes it where its last fsynced record left off. Pass
  /// `recovery` to learn what was replayed. Recovery replays under the
  /// registry lock, so opening a long journal delays other OpenSession/
  /// Submit calls — recover big streams before going live.
  Status OpenSession(const std::string& name, UsageMetrics metrics,
                     FrameworkConfig config,
                     SessionConfig session = SessionConfig(),
                     SessionRecovery* recovery = nullptr);

  /// \brief Enqueues one typed request; `done` receives its result.
  ///
  /// The completion contract: `done` runs exactly once, and never with
  /// the service's registry lock held.
  ///  - An early rejection (unknown or closed session, shut-down
  ///    service, a full queue) runs it inline, before Submit returns.
  ///  - An executed request runs it on the pool worker running the
  ///    session's turn, after Execute returns; the strand takes its next
  ///    turn only after `done` returns, so a slow completion delays its
  ///    own session AND holds one of the cap workers meanwhile. It must
  ///    not wait for another request of this service: at cap 1 that
  ///    request needs the very worker the completion holds.
  ///  - A request that expires while queued, or that Shutdown(deadline)
  ///    abandons, runs it with DeadlineExceeded without executing.
  /// A kDetectFingerprint request's sink calls all happen before `done`.
  void Submit(ServiceRequest request, ServiceCompletion done);

  /// \brief Submit with a future: completes when `done` would run.
  /// Errors travel as the Result's Status (never a throw).
  ServiceFuture Submit(ServiceRequest request);

  // Typed conveniences over Submit(). A fingerprint scan has none: it
  // submits a kDetectFingerprint request, whose registry and sink fields
  // are the scan's whole configuration.
  ServiceFuture ProtectBatch(const std::string& session, Table batch,
                             size_t num_threads = kSessionThreads);
  ServiceFuture Flush(const std::string& session,
                      size_t num_threads = kSessionThreads);
  ServiceFuture Detect(const std::string& session, Table concatenated,
                       size_t num_threads = kSessionThreads);
  ServiceFuture CloseSession(const std::string& session);

  /// \brief Closes intake on every session and waits until every queue
  /// has drained. Idempotent. Called by the destructor.
  void Shutdown();

  /// \brief Deadline-bounded Shutdown. Closes intake and drains until
  /// `deadline_ms` elapses; requests still queued then fail with
  /// DeadlineExceeded without executing (the in-flight request per
  /// strand always finishes). Returns OK on a clean drain, else
  /// DeadlineExceeded naming how many requests were abandoned. An
  /// abandoned request never executed, so its caller can resubmit it
  /// after recovery; everything executed before the deadline is already
  /// journaled. deadline_ms < 0 waits forever (== Shutdown()), and so
  /// does a deadline too far off for the steady clock to hold; 0
  /// abandons whatever is queued at the call, without waiting.
  Status Shutdown(int64_t deadline_ms);

  /// \brief Live (not yet closed) sessions.
  size_t num_sessions() const;

  /// \brief All strands still held, including closed ones whose queue
  /// has not yet drained (diagnostic; a closed strand is freed by the
  /// turn that drains it).
  size_t num_strands() const;

  size_t thread_cap() const { return thread_cap_; }

 private:
  // One accepted, not yet executed request.
  struct Item {
    ServiceRequest request;
    ServiceCompletion done;
    // The strand fails the item without executing it when popped at or
    // past this point; time_point::max() = no deadline.
    std::chrono::steady_clock::time_point deadline;
  };

  // One named stream: session + its capped pool lease + request queue.
  // Its queue and flags are guarded by the service's mu_.
  struct Strand {
    std::string name;
    std::unique_ptr<ThreadPool> lease;  // capped view of the shared pool
    std::unique_ptr<ProtectionSession> session;
    std::deque<Item> queue;  // FIFO; a turn pops the front
    size_t default_ask = 1;  // the session config's own thread ask
    bool closing = false;    // CloseSession accepted: intake is closed
    bool scheduled = false;  // a turn is posted
  };

  // One turn of `strand` on a pool worker: runs its next request, then
  // posts the strand again if more are queued.
  void RunTurn(Strand* strand);
  Result<ServiceResponse> Execute(Strand* strand, ServiceRequest* request);
  // Submit's registry half: queues the request with `*done` moved into
  // its item, or returns the rejection (leaving `*done` to the caller,
  // which runs it after mu_ is released).
  Status Enqueue(ServiceRequest request, ServiceCompletion* done);

  const ServiceConfig config_;
  const size_t thread_cap_;

  mutable std::mutex mu_;
  std::condition_variable idle_;  // scheduled_ dropped to 0
  // unique_ptr values: a posted turn holds its strand's address.
  std::unordered_map<std::string, std::unique_ptr<Strand>> strands_;
  size_t scheduled_ = 0;  // guarded by mu_: strands with a turn posted
  bool shutdown_ = false;
  // Declared last, so it is destroyed first: its workers are joined
  // before anything a turn touches goes away.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace privmark

#endif  // PRIVMARK_SERVICE_SERVICE_H_
