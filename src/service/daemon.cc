#include "service/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <utility>

#include "core/manifest.h"
#include "service/convert.h"
#include "watermark/key_registry.h"

namespace privmark {

namespace {

Status SocketError(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
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
  // Capture the fd once: Shutdown() writes listen_fd_ = -1 after
  // shutting the socket down (which is what actually fails the blocking
  // accept), so re-reading the member here would race that store.
  const int listen_fd = listen_fd_;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (Shutdown) or fatal accept error
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
    ++accepted_;
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    connections_.push_back(std::move(connection));
    raw->thread = std::thread([this, fd] { ServeConnection(fd); });
  }
}

void PrivmarkDaemon::WriteResponse(MuxConnection* mux, uint64_t request_id,
                                   const WireResponse& response,
                                   bool streamed) {
  std::lock_guard<std::mutex> lock(mux->write_mu);
  if (mux->broken) return;
  WireFrame frame;
  frame.type = WireFrameType::kResponse;
  frame.request_id = request_id;
  frame.final_frame = true;
  frame.streamed = streamed;
  // Encode under write_mu: the encoder's dictionary mutations must land
  // on the wire in the order they happened.
  frame.payload = streamed ? EncodeWireResponseStreamedTails(response)
                           : EncodeWireResponse(response, &mux->encoder);
  Result<std::string> encoded = EncodeWireFrame(frame, kWireProtocolV2);
  if (!encoded.ok() ||
      !WriteFullySocket(mux->fd, encoded->data(), encoded->size())) {
    // An unencodable frame also breaks the connection: the dictionary
    // already advanced for bytes that never left.
    mux->broken = true;
  }
}

void PrivmarkDaemon::WritePartial(MuxConnection* mux, uint64_t request_id,
                                  const FingerprintShard& shard) {
  std::lock_guard<std::mutex> lock(mux->write_mu);
  if (mux->broken) return;
  WireFrame frame;
  frame.type = WireFrameType::kPartial;
  frame.request_id = request_id;
  frame.final_frame = false;
  frame.streamed = true;
  frame.payload = EncodeWireFingerprintShard(shard);
  Result<std::string> encoded = EncodeWireFrame(frame, kWireProtocolV2);
  if (!encoded.ok() ||
      !WriteFullySocket(mux->fd, encoded->data(), encoded->size())) {
    mux->broken = true;
  }
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

  MuxConnection mux;
  mux.fd = fd;
  WireTableDecoder decoder(config_.schema);

  // One queued unit of writer work: a dispatched request whose future
  // the writer completes and answers.
  struct Pending {
    uint64_t request_id = 0;
    WireFrameType type = WireFrameType::kClose;
    std::string session;
    ServiceFuture future;
    bool streamed = false;
  };
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<Pending> queue;   // guarded by queue_mu
  size_t busy = 0;             // guarded by queue_mu
  bool closed = false;         // guarded by queue_mu
  std::vector<std::thread> writers;

  const size_t cap = std::max<size_t>(1, config_.max_inflight_per_connection);
  auto writer_loop = [&] {
    std::unique_lock<std::mutex> lock(queue_mu);
    for (;;) {
      queue_cv.wait(lock, [&] { return closed || !queue.empty(); });
      if (queue.empty()) return;  // closed and drained
      Pending pending = std::move(queue.front());
      queue.pop_front();
      ++busy;
      lock.unlock();
      // Completing the future happens-after every partial the strand
      // streamed for this request, so the terminal frame always trails
      // its partials on the wire.
      WireResponse response = FinishResponse(pending.type, pending.session,
                                             pending.future.get());
      response.request_id = pending.request_id;
      WriteResponse(&mux, pending.request_id, response, pending.streamed);
      lock.lock();
      --busy;
      queue_cv.notify_all();  // the reader may be parked at the cap
    }
  };

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
    request->stream = frame->streamed;

    if (frame->type == WireFrameType::kOpen) {
      // Inline on the reader: the open must complete before any later
      // pipelined request for the new session is submitted.
      WireResponse response = ExecuteOpen(*request);
      response.request_id = frame->request_id;
      WriteResponse(&mux, frame->request_id, response, false);
    } else {
      Result<ServiceRequest> service_request = ToServiceRequest(*request);
      if (!service_request.ok()) {
        // Conversion failures (e.g. an unparsable registry) are
        // service-level: answer, keep the connection.
        WireResponse response = ToWireResponse(
            frame->type, Result<ServiceResponse>(service_request.status()));
        response.request_id = frame->request_id;
        WriteResponse(&mux, frame->request_id, response, false);
      } else {
        if (request->stream) {
          const uint64_t request_id = frame->request_id;
          MuxConnection* mux_ptr = &mux;
          service_request->fingerprint_sink =
              [this, mux_ptr, request_id](const FingerprintShard& shard) {
                WritePartial(mux_ptr, request_id, shard);
              };
        }
        Pending pending;
        pending.request_id = frame->request_id;
        pending.type = frame->type;
        pending.session = request->session;
        pending.streamed = request->stream;
        {
          // Backpressure: stop reading at the inflight cap.
          std::unique_lock<std::mutex> lock(queue_mu);
          queue_cv.wait(lock, [&] { return queue.size() + busy < cap; });
        }
        // Submit on the reader so same-session submission order equals
        // frame arrival order (the strand executes in that order).
        pending.future = service_.Submit(*std::move(service_request));
        {
          std::lock_guard<std::mutex> lock(queue_mu);
          queue.push_back(std::move(pending));
          if (writers.size() < cap && writers.size() < queue.size() + busy) {
            writers.emplace_back(writer_loop);
          }
        }
        queue_cv.notify_one();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mux.write_mu);
      if (mux.broken) break;
    }
  }

  // Teardown: stop reading, let the writers drain every dispatched
  // future (accepted work always executes — and its partials/responses
  // simply fail to write if the socket is gone), then hang up.
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    closed = true;
  }
  queue_cv.notify_all();
  for (std::thread& writer : writers) writer.join();
  ::shutdown(fd, SHUT_RDWR);
}

WireResponse PrivmarkDaemon::ExecuteOpen(const WireRequest& request) {
  WireResponse response;
  response.kind = WireFrameType::kOpen;
  const WireOpenRequest& open = request.open;

  auto context = std::make_shared<SessionContext>();
  FrameworkConfig& config = context->config;
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
  context->metrics = *metrics;

  SessionConfig session_config;
  session_config.policy = open.policy == 1 ? RebinPolicy::kRebinOnDrift
                                           : RebinPolicy::kFreezeBins;
  session_config.drift_threshold = open.drift_threshold;

  SessionRecovery recovery;
  response.status = service_.OpenSession(request.session, context->metrics,
                                         config, session_config, &recovery);
  if (!response.status.ok()) return response;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_[request.session] = std::move(context);
  }
  response.open.recovered = recovery.recovered;
  response.open.batches_applied = recovery.batches_applied;
  response.open.epochs_sealed = recovery.epochs_sealed;
  response.open.tail_truncated = recovery.tail_truncated;
  response.open.emitted = std::move(recovery.emitted);
  return response;
}

WireResponse PrivmarkDaemon::FinishResponse(WireFrameType type,
                                            const std::string& session,
                                            Result<ServiceResponse> result) {
  EpochManifestFn manifest_fn;
  if (type == WireFrameType::kClose && result.ok()) {
    std::shared_ptr<SessionContext> context;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = sessions_.find(session);
      if (it != sessions_.end()) {
        context = it->second;
        sessions_.erase(it);
      }
    }
    if (context == nullptr) {
      // The service closed a session this daemon never opened — only
      // possible if open raced shutdown; without its config the
      // manifests cannot be rebuilt.
      WireResponse response;
      response.kind = type;
      response.status = Status::InvalidArgument(
          "daemon lost the session context for '" + session + "'");
      response.threads_granted = 0;
      return response;
    }
    // Serialize server-side: EpochRecord holds tree-pointer state that
    // cannot cross the wire, but its manifest text can — and
    // SerializeManifest is deterministic, so the client's file is
    // byte-identical to a local run's.
    manifest_fn = [this, context](
                      const EpochRecord& epoch) -> Result<std::string> {
      PRIVMARK_ASSIGN_OR_RETURN(
          ProtectionManifest manifest,
          ManifestFromEpoch(epoch, config_.schema, context->metrics,
                            context->config));
      return SerializeManifest(manifest);
    };
  }
  return ToWireResponse(type, std::move(result), manifest_fn);
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
  // Closing the listener fails the blocking accept; live connections
  // get their sockets shut down so mid-read threads unblock.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& connection : connections) {
    ::shutdown(connection->fd, SHUT_RDWR);
  }
  if (accept_thread.joinable()) accept_thread.join();
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
