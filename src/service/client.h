// Client side of the wire protocol, schema-typed like the daemon it
// talks to. CallAsync() assigns a client-side request_id, sends
// immediately, and returns a PendingCall handle; any number of calls may
// be in flight, their response frames demultiplexed by the echoed id.
// There is no dedicated reader thread: whichever caller is blocked in
// Wait()/NextShard() pumps the socket (leader/follower — one pumper at a
// time, so frames decode in wire order and the table-codec dictionaries
// stay in sync), handing other requests' frames to their pending state
// as they pass by. Call() is CallAsync().Wait().
//
// Streamed fingerprints: set WireRequest::stream on a kFingerprint
// request and the daemon answers with per-key-shard kPartial frames
// before the terminal response. PendingCall::NextShard() hands the
// shards over one at a time, in order, as they arrive; Wait()
// reassembles the full per-epoch reports — byte-identical to a
// non-streamed call's — and validates the shard sequence (contiguous
// keys, per-epoch counts against the terminal's ranking) while doing so.
//
// Any transport or framing error poisons the connection (the codec
// state is unknowable afterwards): every in-flight and future call
// fails with the poisoning status until Connect() is called again.
// Service-level failures (unknown session, shed load, deadline) are NOT
// connection errors: the call succeeds and the returned WireResponse
// carries the non-OK status — whose typed retry_after_ms() is the
// backpressure hint when the daemon shed the request.

#ifndef PRIVMARK_SERVICE_CLIENT_H_
#define PRIVMARK_SERVICE_CLIENT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "relation/schema.h"
#include "service/wire.h"

namespace privmark {

/// \brief A multiplexed daemon connection. CallAsync / Wait / NextShard
/// are safe to call from any number of threads.
class DaemonClient {
  struct PendingState;

 public:
  explicit DaemonClient(Schema schema);
  /// Disconnects if still connected.
  ~DaemonClient();

  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  /// \brief One in-flight call. Default-constructed handles are
  /// empty; real ones come from CallAsync. Handles may outlive nothing:
  /// the DaemonClient must outlive every PendingCall it issued.
  class PendingCall {
   public:
    PendingCall() = default;

    /// \brief Blocks until the terminal response arrives (pumping the
    /// socket if no other caller is) and returns it. For a streamed
    /// call the response's fingerprint verdicts are reassembled from
    /// the partial shards and validated against the terminal's tails —
    /// byte-identical to a non-streamed response. Idempotent.
    Result<WireResponse> Wait();

    /// \brief Streamed calls: blocks for the next partial shard; true
    /// with *shard filled, false when every shard has been handed over
    /// (Wait() then completes without further I/O). Shards arrive in
    /// (epoch, shard) order with contiguous key runs.
    Result<bool> NextShard(FingerprintShard* shard);

    /// \brief The id this call's frames carry (diagnostic).
    uint64_t request_id() const;

    bool valid() const { return state_ != nullptr; }

   private:
    friend class DaemonClient;
    DaemonClient* client_ = nullptr;
    std::shared_ptr<PendingState> state_;
  };

  /// \brief Connects to `host`:`port` (numeric IPv4, e.g. "127.0.0.1")
  /// and runs the handshake.
  Status Connect(const std::string& host, uint16_t port);

  /// \brief Sends one request and blocks for its response:
  /// CallAsync(request).Wait(). The response's kind echoes the request's
  /// type. On any transport or framing error the connection is poisoned
  /// before returning.
  Result<WireResponse> Call(const WireRequest& request);

  /// \brief Sends the request without waiting; the returned
  /// handle collects the response (and any streamed shards). Pipelining
  /// is free — any number of calls may be outstanding. Same-session
  /// requests execute in the order CallAsync sent them.
  Result<PendingCall> CallAsync(const WireRequest& request);

  /// \brief Closes the socket; in-flight calls fail. Idempotent.
  void Disconnect();

  /// \brief True while the connection is open AND usable — a poisoned
  /// (but not yet Disconnect()ed) connection reports false.
  bool connected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fd_ >= 0 && poison_.ok();
  }

 private:
  // Reads + routes exactly one frame off the socket. Called only by the
  // current pump leader (mu_ NOT held); takes mu_ briefly to route.
  Status PumpOneFrame(int fd);
  // Blocks until ready() (routing under mu_ flips it) or the connection
  // poisons, pumping when no other caller is. `lock` holds mu_.
  Status PumpUntil(std::unique_lock<std::mutex>& lock,
                   const std::function<bool()>& ready);
  // Fails every pending call with `status` and latches it. mu_ held.
  void PoisonLocked(const Status& status);
  void DisconnectLocked(std::unique_lock<std::mutex>& lock);

  Schema schema_;
  int fd_ = -1;
  WireTableEncoder encoder_;
  WireTableDecoder decoder_;

  // Multiplexing state. send_mu_ serializes request ENCODE + write
  // (dictionary order = wire order); mu_ guards everything else.
  std::mutex send_mu_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_request_id_ = 1;                  // guarded by mu_
  std::unordered_map<uint64_t, std::shared_ptr<PendingState>>
      pending_;                                   // guarded by mu_
  bool pumping_ = false;                          // guarded by mu_
  Status poison_;                                 // guarded by mu_
};

}  // namespace privmark

#endif  // PRIVMARK_SERVICE_CLIENT_H_
