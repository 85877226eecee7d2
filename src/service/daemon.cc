#include "service/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

#include "service/convert.h"

namespace privmark {

namespace {

Status SocketError(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

// One frame queued for a connection's writer: a streamed fingerprint
// shard (kPartial) or a request's terminal response.
struct Outbound {
  uint64_t request_id = 0;
  bool partial = false;
  bool streamed = false;     // terminal: the tails-only streamed payload
  FingerprintShard shard;    // partial
  WireResponse response;     // terminal
};

// Shared state of one connection, owned jointly by its reader, its
// writer and every completion and sink the reader handed the service.
// Completions and sinks only queue frames, so a pool worker never
// blocks on this peer's socket. `broken` latches the first write
// failure; later frames are dropped unwritten (the reader tears down).
struct MuxConnection {
  int fd = -1;
  std::mutex mu;
  std::condition_variable ready;    // outbound grew, or closing was set
  std::condition_variable drained;  // inflight dropped
  std::deque<Outbound> outbound;    // guarded by mu
  size_t inflight = 0;              // guarded by mu: read, not yet answered
  bool broken = false;              // guarded by mu
  bool closing = false;             // guarded by mu: the reader stopped
};

void Queue(MuxConnection* mux, Outbound frame) {
  {
    std::lock_guard<std::mutex> lock(mux->mu);
    mux->outbound.push_back(std::move(frame));
  }
  mux->ready.notify_one();
}

void QueueResponse(MuxConnection* mux, uint64_t request_id,
                   WireResponse response, bool streamed) {
  Outbound frame;
  frame.request_id = request_id;
  frame.streamed = streamed;
  frame.response = std::move(response);
  Queue(mux, std::move(frame));
}

// Encodes and writes one queued frame. Only the writer encodes, so the
// response encoder's dictionary mutations land on the wire in the order
// they happened.
bool Send(int fd, WireTableEncoder* encoder, const Outbound& next) {
  WireFrame frame;
  frame.type = next.partial ? WireFrameType::kPartial : WireFrameType::kResponse;
  frame.request_id = next.request_id;
  frame.final_frame = !next.partial;
  frame.streamed = next.partial || next.streamed;
  frame.payload = next.partial    ? EncodeWireFingerprintShard(next.shard)
                  : next.streamed ? EncodeWireResponseStreamedTails(next.response)
                                  : EncodeWireResponse(next.response, encoder);
  Result<std::string> encoded = EncodeWireFrame(frame, kWireProtocolV2);
  return encoded.ok() &&
         WriteFullySocket(fd, encoded->data(), encoded->size());
}

// The connection's writer thread: writes queued frames in queue order,
// and returns once the reader has stopped and every request it read has
// answered. A peer that stops reading blocks only this thread.
void WriteLoop(MuxConnection* mux) {
  WireTableEncoder encoder;
  std::unique_lock<std::mutex> lock(mux->mu);
  for (;;) {
    mux->ready.wait(lock, [mux] {
      return !mux->outbound.empty() || (mux->closing && mux->inflight == 0);
    });
    if (mux->outbound.empty()) return;
    bool answered = false;
    bool ok = true;
    {
      const Outbound next = std::move(mux->outbound.front());
      mux->outbound.pop_front();
      answered = !next.partial;
      const bool broken = mux->broken;
      lock.unlock();
      if (!broken) ok = Send(mux->fd, &encoder, next);
    }  // the response's tables are freed here, off the lock
    lock.lock();
    if (!ok) mux->broken = true;
    if (answered) {
      --mux->inflight;
      mux->drained.notify_all();
    }
  }
}

}  // namespace

PrivmarkDaemon::PrivmarkDaemon(DaemonConfig config)
    : config_(std::move(config)), service_(config_.service) {}

PrivmarkDaemon::~PrivmarkDaemon() { (void)Shutdown(-1); }

Status PrivmarkDaemon::Start(uint16_t port) {
  if (listen_fd_ >= 0) {
    return Status::InvalidArgument("daemon already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return SocketError("cannot create listen socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st = SocketError("cannot bind 127.0.0.1:" +
                                  std::to_string(port));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 128) != 0) {
    const Status st = SocketError("cannot listen");
    ::close(fd);
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    const Status st = SocketError("cannot read bound port");
    ::close(fd);
    return st;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void PrivmarkDaemon::AcceptLoop() {
  for (;;) {
    // Shutdown() resets listen_fd_ only after joining this thread.
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds or kernel memory: the peer stays queued on the
        // listener. Reaping may free fds; retry after a short back-off.
        {
          std::lock_guard<std::mutex> lock(mu_);
          ReapFinishedLocked();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // the listener was shut down (Shutdown)
    }
    // Responses are small frames written as they complete; without
    // TCP_NODELAY, Nagle holds each one for the peer's delayed ACK.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      ::close(fd);
      return;
    }
    ReapFinishedLocked();
    ++accepted_;
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    connections_.push_back(std::move(connection));
    raw->thread = std::thread([this, raw] {
      ServeConnection(raw->fd);
      raw->finished.store(true, std::memory_order_release);
    });
  }
}

void PrivmarkDaemon::ReapFinishedLocked() {
  auto finished = [](const std::unique_ptr<Connection>& connection) {
    if (!connection->finished.load(std::memory_order_acquire)) return false;
    connection->thread.join();  // instant: the thread's last act is done
    ::close(connection->fd);
    return true;
  };
  connections_.erase(
      std::remove_if(connections_.begin(), connections_.end(), finished),
      connections_.end());
}

void PrivmarkDaemon::ServeConnection(int fd) {
  // Handshake: read the client's magic and echo it. Any other magic =
  // wrong protocol (or a retired version); hang up without an echo.
  char magic[kWireMagicSize];
  if (!ReadFullySocket(fd, magic, sizeof(magic)) ||
      std::memcmp(magic, kWireMagic, kWireMagicSize) != 0 ||
      !WriteFullySocket(fd, kWireMagic, kWireMagicSize)) {
    ::shutdown(fd, SHUT_RDWR);
    return;
  }

  // Shared with the writer and with every completion and sink this
  // connection hands the service, which run on the service's workers.
  auto mux = std::make_shared<MuxConnection>();
  mux->fd = fd;
  std::thread writer([mux] { WriteLoop(mux.get()); });
  WireTableDecoder decoder(config_.schema);

  for (;;) {
    Result<WireFrame> frame = ReadWireFrame(fd);
    // Clients send single-frame request types only; the streamed flag is
    // only meaningful on a fingerprint request (asking for a streamed
    // response).
    if (!frame.ok() || frame->type == WireFrameType::kResponse ||
        frame->type == WireFrameType::kPartial || !frame->final_frame ||
        (frame->streamed && frame->type != WireFrameType::kFingerprint)) {
      break;
    }
    Result<WireRequest> request =
        DecodeWireRequest(frame->type, frame->payload, &decoder);
    if (!request.ok()) break;  // codec state unknowable: hang up
    const bool streamed = frame->streamed;
    const uint64_t request_id = frame->request_id;
    {
      // Backpressure: stop reading at the inflight cap. A request counts
      // until its answer has left the writer, so a peer that stops
      // reading stops its own intake.
      std::unique_lock<std::mutex> lock(mux->mu);
      mux->drained.wait(lock, [&] {
        return mux->inflight < kMaxInflightPerConnection;
      });
      ++mux->inflight;
    }

    if (frame->type == WireFrameType::kOpen) {
      // Inline on the reader: the open must complete before any later
      // pipelined request for the new session is submitted.
      QueueResponse(mux.get(), request_id, ExecuteOpen(*request), false);
    } else if (Result<ServiceRequest> service_request =
                   ToServiceRequest(*std::move(request));
               !service_request.ok()) {
      // Conversion failures (e.g. an unparsable registry) are
      // service-level: answer, keep the connection.
      QueueResponse(mux.get(), request_id,
                    ToWireResponse(frame->type, Result<ServiceResponse>(
                                                    service_request.status())),
                    false);
    } else {
      if (streamed) {
        service_request->fingerprint_sink =
            [mux, request_id](const FingerprintShard& shard) {
              Outbound partial;
              partial.request_id = request_id;
              partial.partial = true;
              partial.shard = shard;
              Queue(mux.get(), std::move(partial));
            };
      }
      // Submit on the reader so same-session submission order equals
      // frame arrival order (the strand executes in that order). The
      // completion queues the answer from whichever thread finishes the
      // request — the pool worker running the session's turn, or this
      // reader for an early rejection — after every partial the turn
      // queued for it, so the terminal frame always trails its partials
      // on the wire.
      service_.Submit(
          *std::move(service_request),
          [mux, request_id, type = frame->type,
           streamed](Result<ServiceResponse> result) {
            QueueResponse(mux.get(), request_id,
                          ToWireResponse(type, std::move(result)), streamed);
          });
    }
    std::lock_guard<std::mutex> lock(mux->mu);
    if (mux->broken) break;
  }

  // Teardown: stop reading; the writer returns once every dispatched
  // request has answered (accepted work always executes — its partials
  // and response are simply dropped if the socket is gone). Then hang
  // up. The accept loop closes the fd once this thread has finished.
  {
    std::lock_guard<std::mutex> lock(mux->mu);
    mux->closing = true;
  }
  mux->ready.notify_one();
  writer.join();
  ::shutdown(fd, SHUT_RDWR);
}

WireResponse PrivmarkDaemon::ExecuteOpen(const WireRequest& request) {
  WireResponse response;
  response.kind = WireFrameType::kOpen;
  const WireOpenRequest& open = request.open;

  FrameworkConfig config;
  config.binning.k = static_cast<size_t>(open.k);
  config.binning.enforce_joint = open.enforce_joint;
  config.binning.encryption_passphrase = open.passphrase;
  config.binning.num_threads = static_cast<size_t>(open.num_threads);
  config.binning.mono.on_unbinnable = open.on_unbinnable == 1
                                          ? UnbinnablePolicy::kSuppress
                                          : UnbinnablePolicy::kError;
  config.watermark.num_threads = config.binning.num_threads;
  config.key = WatermarkKey{open.k1, open.k2, open.eta};
  config.key_id = open.key_id;
  config.auto_epsilon = open.auto_epsilon;

  if (!config_.metrics_for_config) {
    response.status =
        Status::InvalidArgument("daemon has no metrics factory configured");
    return response;
  }
  Result<UsageMetrics> metrics = config_.metrics_for_config(config);
  if (!metrics.ok()) {
    response.status = metrics.status();
    return response;
  }

  SessionConfig session_config;
  session_config.policy = open.policy == 1 ? RebinPolicy::kRebinOnDrift
                                           : RebinPolicy::kFreezeBins;
  session_config.drift_threshold = open.drift_threshold;

  SessionRecovery recovery;
  response.status = service_.OpenSession(request.session, *std::move(metrics),
                                         config, session_config, &recovery);
  if (!response.status.ok()) return response;
  response.open.recovered = recovery.recovered;
  response.open.batches_applied = recovery.batches_applied;
  response.open.epochs_sealed = recovery.epochs_sealed;
  response.open.tail_truncated = recovery.tail_truncated;
  response.open.emitted = std::move(recovery.emitted);
  return response;
}

Status PrivmarkDaemon::Shutdown(int64_t deadline_ms) {
  std::vector<std::unique_ptr<Connection>> connections;
  std::thread accept_thread;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return Status::OK();
    shutdown_ = true;
    connections.swap(connections_);
    accept_thread = std::move(accept_thread_);
  }
  // Shutting the listener down fails the blocking accept; live
  // connections get their sockets shut down so mid-read threads unblock.
  // The listener is closed only after the accept loop is joined, so its
  // fd number cannot be reused under a still-running accept.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (auto& connection : connections) {
    ::shutdown(connection->fd, SHUT_RDWR);
  }
  if (accept_thread.joinable()) accept_thread.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
    ::close(connection->fd);
  }
  return service_.Shutdown(deadline_ms);
}

size_t PrivmarkDaemon::connections_accepted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accepted_;
}

}  // namespace privmark
