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
#include <memory>
#include <mutex>
#include <utility>

#include "service/convert.h"

namespace privmark {

namespace {

Status SocketError(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

// Shared write-side state of one connection, owned jointly by its
// reader and every completion and sink it handed the service. Every
// frame write — and every response-payload ENCODE, so dictionary order
// equals wire order — happens under mu. `broken` latches the first
// write failure; later writes become no-ops (the reader tears down).
struct MuxConnection {
  int fd = -1;
  std::mutex mu;
  std::condition_variable drained;  // signalled when inflight drops
  WireTableEncoder encoder;         // guarded by mu
  bool broken = false;              // guarded by mu
  size_t inflight = 0;              // guarded by mu: submitted, unanswered
};

// Frames and writes one payload; requires mux->mu held. The first
// failure latches `broken` and turns later writes into no-ops.
void SendLocked(MuxConnection* mux, const WireFrame& frame) {
  if (mux->broken) return;
  Result<std::string> encoded = EncodeWireFrame(frame, kWireProtocolV2);
  if (!encoded.ok() ||
      !WriteFullySocket(mux->fd, encoded->data(), encoded->size())) {
    mux->broken = true;
  }
}

// Encodes and writes `response` as its request's terminal frame.
// `streamed` selects the tails-only payload of a streamed response.
void WriteResponse(MuxConnection* mux, const WireResponse& response,
                   bool streamed) {
  std::lock_guard<std::mutex> lock(mux->mu);
  if (mux->broken) return;
  WireFrame frame;
  frame.type = WireFrameType::kResponse;
  frame.request_id = response.request_id;
  frame.final_frame = true;
  frame.streamed = streamed;
  // Encode under mu: the encoder's dictionary mutations must land on
  // the wire in the order they happened (an unencodable frame breaks
  // the connection, as the dictionary already advanced).
  frame.payload = streamed ? EncodeWireResponseStreamedTails(response)
                           : EncodeWireResponse(response, &mux->encoder);
  SendLocked(mux, frame);
}

void WritePartial(MuxConnection* mux, uint64_t request_id,
                  const FingerprintShard& shard) {
  WireFrame frame;
  frame.type = WireFrameType::kPartial;
  frame.request_id = request_id;
  frame.final_frame = false;
  frame.streamed = true;
  frame.payload = EncodeWireFingerprintShard(shard);
  std::lock_guard<std::mutex> lock(mux->mu);
  SendLocked(mux, frame);
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

  // Shared with every completion and sink this connection hands the
  // service, which run on strand threads.
  auto mux = std::make_shared<MuxConnection>();
  mux->fd = fd;
  WireTableDecoder decoder(config_.schema);

  for (;;) {
    char header[kWireFrameHeaderBytes];
    if (!ReadFullySocket(fd, header, sizeof(header))) break;
    Result<size_t> body_length = WireFrameBodyLength(header);
    if (!body_length.ok()) break;
    std::string body(*body_length, '\0');
    if (!ReadFullySocket(fd, body.data(), body.size())) break;
    Result<WireFrame> frame =
        DecodeWireFrameBody(header, body.data(), body.size());
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

    if (frame->type == WireFrameType::kOpen) {
      // Inline on the reader: the open must complete before any later
      // pipelined request for the new session is submitted.
      WireResponse response = ExecuteOpen(*request);
      response.request_id = request_id;
      WriteResponse(mux.get(), response, false);
    } else if (Result<ServiceRequest> service_request =
                   ToServiceRequest(*std::move(request));
               !service_request.ok()) {
      // Conversion failures (e.g. an unparsable registry) are
      // service-level: answer, keep the connection.
      WireResponse response = ToWireResponse(
          frame->type, Result<ServiceResponse>(service_request.status()));
      response.request_id = request_id;
      WriteResponse(mux.get(), response, false);
    } else {
      if (streamed) {
        service_request->fingerprint_sink =
            [mux, request_id](const FingerprintShard& shard) {
              WritePartial(mux.get(), request_id, shard);
            };
      }
      {
        // Backpressure: stop reading at the inflight cap.
        std::unique_lock<std::mutex> lock(mux->mu);
        mux->drained.wait(lock, [&] {
          return mux->inflight < kMaxInflightPerConnection;
        });
        ++mux->inflight;
      }
      // Submit on the reader so same-session submission order equals
      // frame arrival order (the strand executes in that order). The
      // completion answers on whichever thread finishes the request —
      // the strand, or this reader for an early rejection — and runs
      // after every partial the strand streamed for it, so the terminal
      // frame always trails its partials on the wire.
      service_.Submit(
          *std::move(service_request),
          [mux, request_id, type = frame->type,
           streamed](Result<ServiceResponse> result) {
            WireResponse response = ToWireResponse(type, std::move(result));
            response.request_id = request_id;
            WriteResponse(mux.get(), response, streamed);
            std::lock_guard<std::mutex> lock(mux->mu);
            --mux->inflight;
            mux->drained.notify_all();
          });
    }
    std::lock_guard<std::mutex> lock(mux->mu);
    if (mux->broken) break;
  }

  // Teardown: stop reading and wait until every dispatched request has
  // answered (accepted work always executes — its partials and response
  // simply fail to write if the socket is gone), then hang up. The
  // accept loop closes the fd once this thread has finished.
  std::unique_lock<std::mutex> lock(mux->mu);
  mux->drained.wait(lock, [&] { return mux->inflight == 0; });
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
