#include "service/service.h"

#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "common/kv_text.h"
#include "core/journal.h"

namespace privmark {

namespace {

using Clock = std::chrono::steady_clock;

// The point `ms` milliseconds from now; Clock::time_point::max() (no
// deadline) when ms <= 0 or when the point lies past what the clock can
// hold. Adding such a count to now() would overflow, and the deadline
// would read as already past.
Clock::time_point DeadlineAfter(int64_t ms) {
  if (ms <= 0) return Clock::time_point::max();
  const Clock::time_point now = Clock::now();
  const auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - now);
  if (ms >= room.count()) return Clock::time_point::max();
  return now + std::chrono::milliseconds(ms);
}

// Journals live in one flat directory, so session names must become
// safe basename characters. The encoding is injective (percent-escapes,
// '%' itself included): two distinct names can never map to one journal
// path, where the second OpenSession would silently resume — and
// corrupt — the first session's live WAL.
std::string JournalBaseName(const std::string& name) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    if (safe) {
      out.push_back(c);
    } else {
      const auto u = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xf]);
    }
  }
  // Escapes are always "%XX", so a bare '%' cannot collide with any
  // non-empty name's encoding.
  if (out.empty()) out = "%";
  return out;
}

}  // namespace

const char* RequestKindToString(RequestKind kind) {
  switch (kind) {
    case RequestKind::kProtectBatch:
      return "ProtectBatch";
    case RequestKind::kFlush:
      return "Flush";
    case RequestKind::kDetect:
      return "Detect";
    case RequestKind::kDetectFingerprint:
      return "DetectFingerprint";
    case RequestKind::kCloseSession:
      return "CloseSession";
  }
  return "Unknown";
}

PrivmarkService::PrivmarkService(ServiceConfig config)
    : config_(std::move(config)),
      thread_cap_(NormalizeThreadCount(config_.thread_cap)),
      // One slot more than the cap: the pool counts its caller, and here
      // the callers of Run() are the cap workers' own turns.
      pool_(std::make_unique<ThreadPool>(thread_cap_ + 1)) {}

PrivmarkService::~PrivmarkService() { Shutdown(); }

Status PrivmarkService::OpenSession(const std::string& name,
                                    UsageMetrics metrics,
                                    FrameworkConfig config,
                                    SessionConfig session,
                                    SessionRecovery* recovery) {
  // Checked here, not at the first flush: every selection hash divides by
  // eta, and a session that cannot flush must never be opened.
  if (config.key.eta == 0) {
    return Status::InvalidArgument("OpenSession: watermark key eta is 0");
  }
  // Likewise k: every flush would fail in MonoAttributeBin.
  if (config.binning.k == 0) {
    return Status::InvalidArgument("OpenSession: anonymity level k is 0");
  }
  // The key_id is written into every manifest as `key_id = <id>`; one the
  // text format cannot hold would make manifests ParseManifest refuses.
  if (!config.key_id.empty() && !IsKvTextValue(config.key_id)) {
    return Status::InvalidArgument(
        "OpenSession: key_id '" + config.key_id +
        "' must be on one line, without NUL bytes or surrounding whitespace");
  }
  // A NaN threshold compares false against every drift: the session
  // would silently never re-bin.
  if (!std::isfinite(session.drift_threshold)) {
    return Status::InvalidArgument(
        "OpenSession: drift threshold is not a finite number");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status::InvalidArgument("OpenSession: service is shut down");
  }
  auto it = strands_.find(name);
  if (it != strands_.end()) {
    if (!it->second->closing) {
      return Status::AlreadyExists("OpenSession: session '" + name +
                                   "' is already open");
    }
    // Closed but still draining accepted requests. Waiting here would
    // hold mu_ — and with it every other session's intake — for the
    // whole drain, so the caller retries instead; the turn that drains
    // the strand frees the name.
    return Status::AlreadyExists("OpenSession: session '" + name +
                                 "' is still draining; retry shortly");
  }

  auto strand = std::make_unique<Strand>();
  strand->name = name;
  strand->default_ask = SessionThreadAsk(config);
  // All sessions of one service share the one pool; each request re-caps
  // the lease to its width, so whatever pools the caller configured are
  // overridden.
  strand->lease = ThreadPool::Lease(pool_.get(), 1);
  config.binning.pool = strand->lease.get();
  config.watermark.pool = strand->lease.get();
  SessionRecovery recovered;
  if (config_.journal_dir.empty()) {
    strand->session = std::make_unique<ProtectionSession>(
        std::move(metrics), std::move(config), session);
  } else {
    // Create-or-recover, race-free via the journal's O_EXCL create: a
    // fresh name starts a new journal, an existing one replays it. The
    // pools were leased into `config` above, so the recovered session
    // shares the service pool like any other (replay itself runs serial
    // — the lease starts at limit 1 — which is fine: every stage is
    // byte-identical at any width).
    const std::string path =
        config_.journal_dir + "/" + JournalBaseName(name) + ".wal";
    auto created = SessionJournal::Create(path);
    if (created.ok()) {
      strand->session = std::make_unique<ProtectionSession>(
          std::move(metrics), std::move(config), session);
      PRIVMARK_RETURN_NOT_OK(
          strand->session->AttachJournal(std::move(*created)));
    } else if (created.status().code() == StatusCode::kAlreadyExists) {
      PRIVMARK_ASSIGN_OR_RETURN(
          RecoveredSession rec,
          ProtectionSession::Recover(path, std::move(metrics),
                                     std::move(config), session));
      strand->session = std::move(rec.session);
      recovered.recovered = true;
      recovered.batches_applied = rec.batches_applied;
      recovered.epochs_sealed = rec.epochs_sealed;
      recovered.tail_truncated = rec.tail_truncated;
      recovered.emitted = std::move(rec.emitted);
    } else {
      return created.status();
    }
  }
  if (recovery != nullptr) *recovery = std::move(recovered);
  strands_.emplace(name, std::move(strand));
  return Status::OK();
}

void PrivmarkService::Submit(ServiceRequest request, ServiceCompletion done) {
  Status rejected = Enqueue(std::move(request), &done);
  if (!rejected.ok()) done(Result<ServiceResponse>(std::move(rejected)));
}

ServiceFuture PrivmarkService::Submit(ServiceRequest request) {
  // shared_ptr: std::function needs a copyable callable.
  auto promise = std::make_shared<std::promise<Result<ServiceResponse>>>();
  ServiceFuture future = promise->get_future();
  Submit(std::move(request), [promise](Result<ServiceResponse> result) {
    promise->set_value(std::move(result));
  });
  return future;
}

Status PrivmarkService::Enqueue(ServiceRequest request,
                                ServiceCompletion* done) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status::InvalidArgument("Submit: service is shut down");
  }
  auto it = strands_.find(request.session);
  if (it == strands_.end()) {
    return Status::KeyError("Submit: unknown session '" + request.session +
                            "'");
  }
  Strand* strand = it->second.get();
  if (strand->closing) {
    return Status::InvalidArgument("Submit: session '" + request.session +
                                   "' is closed");
  }

  const bool closes = request.kind == RequestKind::kCloseSession;
  // Queue-depth shed — but never for CloseSession: an overloaded
  // session must still be closable, and the close itself adds no work
  // beyond what is already queued.
  if (!closes && config_.max_queue_depth > 0) {
    const size_t depth = strand->queue.size();
    if (depth >= config_.max_queue_depth) {
      // Crude service-time guess (~50ms/request) for the typed hint.
      const int64_t retry_after_ms = 50 * static_cast<int64_t>(depth);
      return Status::ResourceExhausted("Submit: session '" +
                                       request.session + "' queue is full (" +
                                       std::to_string(depth) + " pending)")
          .WithRetryAfterMs(retry_after_ms);
    }
  }
  const int64_t deadline_ms = request.deadline_ms == kDeadlineFromConfig
                                  ? config_.default_deadline_ms
                                  : request.deadline_ms;
  strand->queue.push_back(
      {std::move(request), std::move(*done), DeadlineAfter(deadline_ms)});
  // Under mu_: every earlier Submit already queued, no later one passes
  // the `closing` check, and the strand drains what was accepted — the
  // close request itself runs last.
  if (closes) strand->closing = true;
  if (!strand->scheduled) {
    strand->scheduled = true;
    ++scheduled_;
    pool_->Post([this, strand] { RunTurn(strand); });
  }
  return Status::OK();
}

ServiceFuture PrivmarkService::ProtectBatch(const std::string& session,
                                            Table batch, size_t num_threads) {
  ServiceRequest request;
  request.kind = RequestKind::kProtectBatch;
  request.session = session;
  request.table = std::move(batch);
  request.num_threads = num_threads;
  return Submit(std::move(request));
}

ServiceFuture PrivmarkService::Flush(const std::string& session,
                                     size_t num_threads) {
  ServiceRequest request;
  request.kind = RequestKind::kFlush;
  request.session = session;
  request.num_threads = num_threads;
  return Submit(std::move(request));
}

ServiceFuture PrivmarkService::Detect(const std::string& session,
                                      Table concatenated, size_t num_threads) {
  ServiceRequest request;
  request.kind = RequestKind::kDetect;
  request.session = session;
  request.table = std::move(concatenated);
  request.num_threads = num_threads;
  return Submit(std::move(request));
}

ServiceFuture PrivmarkService::CloseSession(const std::string& session) {
  ServiceRequest request;
  request.kind = RequestKind::kCloseSession;
  request.session = session;
  return Submit(std::move(request));
}

void PrivmarkService::RunTurn(Strand* strand) {
  {
    // Scoped to the turn, so a completion's captures die with its
    // request. The queue is empty here only if Shutdown abandoned it.
    std::optional<Item> item;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!strand->queue.empty()) {
        item.emplace(std::move(strand->queue.front()));
        strand->queue.pop_front();
      }
    }
    if (item.has_value()) {
      if (Clock::now() >= item->deadline) {
        // Expired while queued: fail without executing. The session
        // state is untouched, so the stream stays byte-identical to a
        // replay that never submitted this request.
        item->done(Result<ServiceResponse>(Status::DeadlineExceeded(
            std::string("request '") +
            RequestKindToString(item->request.kind) +
            "' spent its whole deadline queued; it was not executed")));
      } else {
        item->done(Execute(strand, &item->request));
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!strand->queue.empty()) {
    // To the back of the pool's queue: other sessions' turns go first.
    pool_->Post([this, strand] { RunTurn(strand); });
    return;
  }
  strand->scheduled = false;
  // A closing strand is now drained for good: free it and its name (no
  // open can have reused the name yet). Once Shutdown has taken every
  // strand the find misses, leaving the strand to Shutdown. Erase by
  // iterator: strand->name dies with the node.
  if (strand->closing) {
    auto it = strands_.find(strand->name);
    if (it != strands_.end()) strands_.erase(it);
  }
  if (--scheduled_ == 0) idle_.notify_all();
}

Result<ServiceResponse> PrivmarkService::Execute(Strand* strand,
                                                 ServiceRequest* request) {
  ServiceResponse response;
  response.kind = request->kind;

  if (request->kind == RequestKind::kCloseSession) {
    // Pure bookkeeping — no data-parallel work; earlier requests already
    // drained (FIFO strand).
    const ProtectionSession& session = *strand->session;
    response.stats.rows_ingested = session.rows_ingested();
    response.stats.rows_emitted = session.rows_emitted();
    response.stats.rows_suppressed = session.rows_suppressed();
    response.stats.epochs = session.epochs();
    PRIVMARK_ASSIGN_OR_RETURN(response.stats.manifests,
                              SessionManifests(session));
    response.journal_status = session.journal_status();
    return response;
  }

  const size_t ask = request->num_threads == kSessionThreads
                         ? strand->default_ask
                         : request->num_threads;
  const size_t width = ask == 0 || ask > thread_cap_ ? thread_cap_ : ask;
  response.threads_granted = width;
  // The width IS the lease's limit: agents shard by the lease's reported
  // worker count, so at most `width` of the shared workers ever touch
  // this request.
  strand->lease->set_limit(width);

  try {
    switch (request->kind) {
      case RequestKind::kProtectBatch: {
        PRIVMARK_ASSIGN_OR_RETURN(response.ingest,
                                  strand->session->Ingest(
                                      std::move(request->table)));
        break;
      }
      case RequestKind::kFlush: {
        PRIVMARK_ASSIGN_OR_RETURN(response.epoch, strand->session->Flush());
        break;
      }
      case RequestKind::kDetect: {
        PRIVMARK_ASSIGN_OR_RETURN(
            response.reports,
            strand->session->DetectAcrossEpochs(request->table));
        break;
      }
      case RequestKind::kDetectFingerprint: {
        if (request->registry == nullptr) {
          return Status::InvalidArgument(
              "DetectFingerprint: request carries no key registry");
        }
        PRIVMARK_ASSIGN_OR_RETURN(
            response.fingerprints,
            strand->session->FingerprintAcrossEpochs(
                request->table, *request->registry,
                request->fingerprint_sink));
        break;
      }
      case RequestKind::kCloseSession:
        break;  // handled above
    }
  } catch (const std::exception& e) {
    // The core library reports data-dependent failures as Status; an
    // exception here is a programming error surfaced by the pool. Turn
    // it into a failed result rather than losing the strand.
    return Status::InvalidArgument(std::string("request '") +
                                   RequestKindToString(request->kind) +
                                   "' threw: " + e.what());
  }
  // Surface the session's sticky durability state on every response: a
  // post-commit seal failure degrades the epoch-boundary barrier without
  // failing any request, so this is the client's only signal.
  response.journal_status = strand->session->journal_status();
  return response;
}

void PrivmarkService::Shutdown() {
  // Unbounded: never abandons, so the Status is always OK.
  (void)Shutdown(-1);
}

Status PrivmarkService::Shutdown(int64_t deadline_ms) {
  // Take ownership of every strand under the lock: a turn that drains a
  // taken strand leaves it here, and a repeated Shutdown finds an empty
  // registry. Every caller waits for the turns still scheduled.
  std::unordered_map<std::string, std::unique_ptr<Strand>> taken;
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  taken = std::move(strands_);
  strands_.clear();
  const auto idle = [this] { return scheduled_ == 0; };
  // A zero deadline does not wait at all: even a wait that times out at
  // once releases mu_, and the workers could drain the very queues the
  // caller asked to abandon. A deadline the clock cannot hold waits
  // forever, like a negative one.
  bool expired = deadline_ms == 0 && !idle();
  if (deadline_ms > 0) {
    const Clock::time_point until = DeadlineAfter(deadline_ms);
    expired = until != Clock::time_point::max() &&
              !idle_.wait_until(lock, until, idle);
  }
  size_t abandoned = 0;
  if (expired) {
    // Take the queued items under mu_, where turns pop, then fail them
    // outside it: their completions run here.
    std::vector<Item> items;
    for (auto& [name, strand] : taken) {
      for (Item& item : strand->queue) items.push_back(std::move(item));
      strand->queue.clear();
    }
    lock.unlock();
    for (Item& item : items) {
      item.done(Result<ServiceResponse>(Status::DeadlineExceeded(
          "service shutdown deadline passed before this request ran")));
    }
    abandoned = items.size();
    items.clear();
    lock.lock();
  }
  // Bounded once queues are drained or abandoned: the wait covers only
  // the in-flight requests, which always complete — one cannot be
  // safely interrupted mid-epoch.
  idle_.wait(lock, idle);
  lock.unlock();
  if (abandoned > 0) {
    return Status::DeadlineExceeded(
        "Shutdown: abandoned " + std::to_string(abandoned) +
        " queued request(s) at the " + std::to_string(deadline_ms) +
        "ms deadline; abandoned requests never executed and can be "
        "resubmitted after recovery");
  }
  return Status::OK();
}

size_t PrivmarkService::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t live = 0;
  for (const auto& [name, strand] : strands_) {
    if (!strand->closing) ++live;
  }
  return live;
}

size_t PrivmarkService::num_strands() const {
  std::lock_guard<std::mutex> lock(mu_);
  return strands_.size();
}

}  // namespace privmark
