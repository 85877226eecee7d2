#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace privmark {

namespace {

Status SocketError(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

// Everything the client remembers about one in-flight call. Guarded
// by the client's mu_ (routing fills it, Wait/NextShard drain it).
struct DaemonClient::PendingState {
  uint64_t id = 0;
  WireFrameType type = WireFrameType::kClose;
  bool streamed = false;
  /// Shards queued for NextShard, in arrival order.
  std::deque<FingerprintShard> shards;
  /// Reassembly store: per-epoch verdicts accumulated from the shards
  /// (kept separately so NextShard can still drain after the terminal).
  std::vector<std::vector<KeyVerdict>> epoch_verdicts;
  std::vector<size_t> epoch_next_shard;
  bool done = false;
  /// Non-OK iff the call failed at the transport/protocol level.
  Status error;
  /// The terminal response; for streamed calls the fingerprint verdicts
  /// are already reattached from epoch_verdicts.
  WireResponse response;
};

DaemonClient::DaemonClient(Schema schema)
    : schema_(schema), decoder_(std::move(schema)) {}

DaemonClient::~DaemonClient() { Disconnect(); }

Status DaemonClient::Connect(const std::string& host, uint16_t port) {
  std::lock_guard<std::mutex> send_lock(send_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  if (fd_ >= 0) return Status::InvalidArgument("client already connected");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("'" + host +
                                   "' is not a numeric IPv4 address");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return SocketError("cannot create socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st =
        SocketError("cannot connect to " + host + ":" + std::to_string(port));
    ::close(fd);
    return st;
  }
  // Pipelined request frames go out as they are issued; without
  // TCP_NODELAY, Nagle holds each one for the daemon's delayed ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Handshake: send the magic, expect it echoed back verbatim.
  char echo[kWireMagicSize];
  if (!WriteFullySocket(fd, kWireMagic, kWireMagicSize) ||
      !ReadFullySocket(fd, echo, sizeof(echo)) ||
      std::memcmp(echo, kWireMagic, kWireMagicSize) != 0) {
    ::close(fd);
    return Status::IOError("daemon handshake failed: magic mismatch or "
                           "connection lost");
  }
  fd_ = fd;
  // A reconnect starts a fresh dictionary epoch on both ends, a fresh
  // id space, and a clean poison slate.
  encoder_ = WireTableEncoder();
  decoder_ = WireTableDecoder(schema_);
  next_request_id_ = 1;
  pending_.clear();
  poison_ = Status::OK();
  return Status::OK();
}

Result<WireResponse> DaemonClient::Call(const WireRequest& request) {
  PRIVMARK_ASSIGN_OR_RETURN(PendingCall call, CallAsync(request));
  return call.Wait();
}

Result<DaemonClient::PendingCall> DaemonClient::CallAsync(
    const WireRequest& request) {
  auto state = std::make_shared<PendingState>();
  state->type = request.type;
  state->streamed =
      request.stream && request.type == WireFrameType::kFingerprint;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0) return Status::InvalidArgument("client is not connected");
    if (!poison_.ok()) return poison_;
    state->id = next_request_id_++;
    pending_.emplace(state->id, state);
  }

  WireFrame frame;
  frame.type = request.type;
  frame.request_id = state->id;
  frame.final_frame = true;
  frame.streamed = state->streamed;
  {
    // Encode + write under send_mu_: the encoder's dictionary mutation
    // order must equal the order frames hit the socket.
    std::lock_guard<std::mutex> send_lock(send_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!poison_.ok()) {
        pending_.erase(state->id);
        return poison_;
      }
    }
    frame.payload = EncodeWireRequest(request, &encoder_);
    Result<std::string> encoded = EncodeWireFrame(frame, kWireProtocolV2);
    Status failed;
    if (!encoded.ok()) {
      // The dictionaries advanced for bytes that never left: poison.
      failed = encoded.status();
    } else if (!WriteFullySocket(fd_, encoded->data(), encoded->size())) {
      failed = SocketError(
          "cannot send " + std::string(WireFrameTypeToString(request.type)) +
          " request");
    }
    if (!failed.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      PoisonLocked(failed);
      cv_.notify_all();
      return failed;
    }
  }
  PendingCall call;
  call.client_ = this;
  call.state_ = std::move(state);
  return call;
}

Status DaemonClient::PumpOneFrame(int fd) {
  Result<WireFrame> frame = ReadWireFrame(fd);
  if (!frame.ok()) return frame.status();
  if (frame->type != WireFrameType::kResponse &&
      frame->type != WireFrameType::kPartial) {
    return Status::InvalidArgument(
        std::string("daemon sent a ") + WireFrameTypeToString(frame->type) +
        " frame where a response was expected");
  }

  // Decode the payload before taking mu_ — the pumping_ flag already
  // serializes decoder_ access, and table decodes can be large.
  FingerprintShard shard;
  WireResponse response;
  if (frame->type == WireFrameType::kPartial) {
    PRIVMARK_ASSIGN_OR_RETURN(shard,
                              DecodeWireFingerprintShard(frame->payload));
  } else if (frame->streamed) {
    PRIVMARK_ASSIGN_OR_RETURN(
        response, DecodeWireResponseStreamedTails(frame->payload));
  } else {
    PRIVMARK_ASSIGN_OR_RETURN(response,
                              DecodeWireResponse(frame->payload, &decoder_));
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(frame->request_id);
  if (it == pending_.end()) {
    return Status::InvalidArgument("daemon answered unknown request id " +
                                   std::to_string(frame->request_id));
  }
  PendingState& state = *it->second;

  if (frame->type == WireFrameType::kPartial) {
    if (!state.streamed) {
      return Status::InvalidArgument(
          "daemon streamed a partial frame for a non-streamed request");
    }
    // The shard sequence contract: epochs in order, ordinals counting
    // up, key runs contiguous from 0 within each epoch.
    const size_t epoch = shard.epoch;
    if (epoch == state.epoch_verdicts.size()) {
      state.epoch_verdicts.emplace_back();
      state.epoch_next_shard.push_back(0);
    } else if (epoch + 1 != state.epoch_verdicts.size()) {
      return Status::InvalidArgument(
          "daemon streamed shards out of epoch order");
    }
    if (shard.shard != state.epoch_next_shard[epoch]) {
      return Status::InvalidArgument(
          "daemon streamed shards out of shard order");
    }
    ++state.epoch_next_shard[epoch];
    std::vector<KeyVerdict>& verdicts = state.epoch_verdicts[epoch];
    if (shard.first_key != verdicts.size()) {
      return Status::InvalidArgument(
          "daemon streamed a non-contiguous key run");
    }
    verdicts.insert(verdicts.end(), shard.verdicts.begin(),
                    shard.verdicts.end());
    state.shards.push_back(std::move(shard));
    return Status::OK();
  }

  // Terminal response.
  if (frame->streamed != state.streamed) {
    return Status::InvalidArgument(
        "daemon mixed streamed and non-streamed response frames");
  }
  if (response.kind != state.type) {
    return Status::InvalidArgument(
        std::string("daemon answered a ") + WireFrameTypeToString(state.type) +
        " request with a " + WireFrameTypeToString(response.kind) +
        " response");
  }
  if (state.streamed && response.status.ok()) {
    // Reattach the shard verdicts to the tails. The concatenation is
    // byte-identical to a one-shot response by the scan's construction;
    // the counts are validated here so a dropped shard cannot pass
    // silently.
    if (response.fingerprints.size() != state.epoch_verdicts.size()) {
      return Status::InvalidArgument(
          "daemon streamed " + std::to_string(state.epoch_verdicts.size()) +
          " epoch(s) of shards but " +
          std::to_string(response.fingerprints.size()) + " epoch tails");
    }
    for (size_t e = 0; e < response.fingerprints.size(); ++e) {
      if (response.fingerprints[e].ranking.size() !=
          state.epoch_verdicts[e].size()) {
        return Status::InvalidArgument(
            "daemon's shard verdicts disagree with its terminal ranking "
            "length for epoch " + std::to_string(e));
      }
      response.fingerprints[e].verdicts = std::move(state.epoch_verdicts[e]);
    }
    state.epoch_verdicts.clear();
  }
  response.request_id = frame->request_id;
  state.response = std::move(response);
  state.done = true;
  pending_.erase(it);
  return Status::OK();
}

Status DaemonClient::PumpUntil(std::unique_lock<std::mutex>& lock,
                               const std::function<bool()>& ready) {
  for (;;) {
    if (ready()) return Status::OK();
    if (!poison_.ok()) return poison_;
    if (fd_ < 0) return Status::InvalidArgument("client is not connected");
    if (pumping_) {
      // Another caller is the pump leader; wait for it to route a frame
      // (possibly ours) and hand the pump off.
      cv_.wait(lock);
      continue;
    }
    pumping_ = true;
    const int fd = fd_;
    lock.unlock();
    const Status pumped = PumpOneFrame(fd);
    lock.lock();
    pumping_ = false;
    if (!pumped.ok() && poison_.ok()) PoisonLocked(pumped);
    cv_.notify_all();
  }
}

void DaemonClient::PoisonLocked(const Status& status) {
  poison_ = status;
  for (auto& [id, state] : pending_) {
    state->done = true;
    state->error = status;
  }
  pending_.clear();
  // Unblock a pump leader parked in recv: after a poison the connection
  // is unusable either way.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<WireResponse> DaemonClient::PendingCall::Wait() {
  if (state_ == nullptr) {
    return Status::InvalidArgument("Wait on an empty PendingCall");
  }
  std::unique_lock<std::mutex> lock(client_->mu_);
  const Status pumped =
      client_->PumpUntil(lock, [this] { return state_->done; });
  if (!state_->done) return pumped;
  if (!state_->error.ok()) return state_->error;
  return state_->response;
}

Result<bool> DaemonClient::PendingCall::NextShard(FingerprintShard* shard) {
  if (state_ == nullptr) {
    return Status::InvalidArgument("NextShard on an empty PendingCall");
  }
  std::unique_lock<std::mutex> lock(client_->mu_);
  const Status pumped = client_->PumpUntil(
      lock, [this] { return !state_->shards.empty() || state_->done; });
  if (!state_->shards.empty()) {
    *shard = std::move(state_->shards.front());
    state_->shards.pop_front();
    return true;
  }
  if (!state_->done) return pumped;
  if (!state_->error.ok()) return state_->error;
  return false;
}

uint64_t DaemonClient::PendingCall::request_id() const {
  return state_ == nullptr ? 0 : state_->id;
}

void DaemonClient::Disconnect() {
  std::lock_guard<std::mutex> send_lock(send_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  DisconnectLocked(lock);
}

void DaemonClient::DisconnectLocked(std::unique_lock<std::mutex>& lock) {
  if (fd_ < 0) return;
  ::shutdown(fd_, SHUT_RDWR);
  // A pump leader may still be inside recv on this fd; closing now
  // could hand the descriptor number to an unrelated open. Wait for the
  // pump to fail out (the shutdown guarantees it does).
  cv_.wait(lock, [this] { return !pumping_; });
  ::close(fd_);
  fd_ = -1;
  PoisonLocked(Status::IOError("client disconnected"));
  cv_.notify_all();
}

}  // namespace privmark
