// Network daemon: the socket front-end over PrivmarkService, speaking
// the wire protocol of service/wire.h so remote hospital streams reach
// the service without linking it in-process.
//
// Execution model: one accept-loop thread, and one reader and one
// writer thread per connection (no event loop, no new dependencies);
// the daemon keeps no other threads and no session state of its own.
// After the handshake the reader decodes and submits pipelined requests
// as they arrive (same-session order = submission order = the strand's
// execution order). Whichever thread completes a request — normally the
// pool worker running the session's turn, right after it executes the
// request — only queues its response on the connection; the writer
// encodes and writes queued frames in queue order, so responses leave in
// any order across sessions, demultiplexed by the echoed request_id. A
// streamed kFingerprint request's verdict shards are queued as kPartial
// frames from the same turn, before its terminal response. A client
// that stops reading therefore stalls only its own writer (and, at the
// in-flight cap, its own reader), never a service worker. Close
// responses carry the per-epoch manifests the service built from the
// session itself.
//
// kMaxInflightPerConnection bounds read-but-unanswered requests (so
// also the writer's queue of responses): at the cap the reader stops
// reading (TCP backpressure). The same counter is the connection's
// teardown barrier — the reader stops the writer and returns only once
// every request has answered — and the accept loop reaps finished
// connections (joins the thread, closes the fd), so a
// long-lived daemon holds fds and threads for live connections only.
// An accept that fails for lack of fds or memory backs off and retries;
// the loop ends only at Shutdown.
//
// All writes on a connection — partials and responses from the pool
// workers running strand turns, inline open responses from the
// reader — go through its one writer, which also ENCODES every response
// payload, so the table codec's dictionary mutation order always equals
// the wire order the client's decoder replays.
//
// Protocol errors (bad magic, malformed frame, unknown flags, a
// kPartial/kResponse frame from a client, undecodable payload) are
// fatal to the offending connection only: the codec's dictionary state
// is unknowable after a framing error, so the daemon closes that socket
// and keeps serving everyone else. Service-level errors (unknown
// session, shed load, deadline) travel back as normal responses with a
// non-OK status whose typed retry_after_ms() carries the backpressure
// hint.
//
// Shutdown(deadline_ms) closes the listener, shuts down live
// connections' sockets, joins every connection thread, then drains the
// service with the same deadline semantics as
// PrivmarkService::Shutdown(deadline_ms).

#ifndef PRIVMARK_SERVICE_DAEMON_H_
#define PRIVMARK_SERVICE_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "metrics/usage_metrics.h"
#include "relation/schema.h"
#include "service/service.h"
#include "service/wire.h"

namespace privmark {

/// \brief Daemon configuration. The daemon is schema-typed: every
/// stream it serves uses `schema`, and `metrics_for_config` builds the
/// usage metrics for each opened stream's FrameworkConfig (the trees it
/// references must outlive the daemon). The factory keeps the service
/// layer free of any dataset dependency — the CLI and tests inject the
/// medical ontologies.
struct DaemonConfig {
  ServiceConfig service;
  Schema schema;
  std::function<Result<UsageMetrics>(const FrameworkConfig&)>
      metrics_for_config;
};

/// \brief Cap on requests submitted but not yet answered on one
/// connection. At the cap the reader stops reading until a response
/// drains.
inline constexpr size_t kMaxInflightPerConnection = 32;

/// \brief TCP daemon on 127.0.0.1 (loopback only until TLS lands; see
/// ROADMAP).
class PrivmarkDaemon {
 public:
  explicit PrivmarkDaemon(DaemonConfig config);
  /// Shuts down (unbounded drain) if still running.
  ~PrivmarkDaemon();

  PrivmarkDaemon(const PrivmarkDaemon&) = delete;
  PrivmarkDaemon& operator=(const PrivmarkDaemon&) = delete;

  /// \brief Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and
  /// starts the accept loop.
  Status Start(uint16_t port);

  /// \brief The bound port (after Start).
  uint16_t port() const { return port_; }

  /// \brief Stops accepting, disconnects live connections, joins their
  /// threads, then drains the service. deadline_ms < 0 waits forever;
  /// otherwise still-queued requests past the deadline fail
  /// DeadlineExceeded (PrivmarkService::Shutdown(deadline_ms)).
  /// Idempotent.
  Status Shutdown(int64_t deadline_ms = -1);

  /// \brief Connections accepted so far (diagnostic).
  size_t connections_accepted() const;

  PrivmarkService& service() { return service_; }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    // Set by the connection thread as its last action; once true the
    // join is instant and the connection is reapable.
    std::atomic<bool> finished{false};
  };

  void AcceptLoop();
  // Joins and closes finished connections. Requires mu_ held.
  void ReapFinishedLocked();
  // Handshake, then the connection's read loop.
  void ServeConnection(int fd);
  // Builds and registers an opened stream. Never fails — errors travel
  // inside the response's status.
  WireResponse ExecuteOpen(const WireRequest& request);

  const DaemonConfig config_;
  PrivmarkService service_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Connection>> connections_;  // guarded by mu_
  size_t accepted_ = 0;      // guarded by mu_
  bool shutdown_ = false;    // guarded by mu_
};

}  // namespace privmark

#endif  // PRIVMARK_SERVICE_DAEMON_H_
