// Wire protocol for the privmark network daemon: a versioned,
// length-prefixed binary framing of the service request grammar
// (open / ingest / flush / detect / fingerprint / close) so remote
// hospital streams can reach a PrivmarkService over a socket.
//
// Connection handshake: the client sends the 8-byte magic "PRVMNET2";
// the server echoes it. Any other magic is fatal: the server hangs up
// without echoing, and a client that reads back anything else gives up.
//
// Every frame (both directions) is one multiplexing envelope:
//
//   [u32 payload length][u32 crc32]
//   [u8 type][u64 request_id][u8 flags][payload bytes]
//
// request_id is client-assigned and echoed on every frame of the
// response; a client may pipeline any number of requests and the server
// may answer them out of order (same-session requests still execute in
// submission order — the strand guarantee — but their responses
// interleave freely with other sessions'). `flags` bit 0 (kWireFlagFinal)
// marks the last frame of a logical message; bit 1 (kWireFlagStreamed)
// marks frames of a streamed response. A streamed response is an ordered
// sequence of kPartial frames (final=0, streamed=1) closed by one
// kResponse frame (final=1, streamed=1) carrying the response minus what
// already crossed in the partials. Unknown flag bits are a protocol
// error. Requests are always single-frame (final=1).
//
// Little-endian, CRC-32 (IEEE) over the whole body (type byte through
// payload), payloads capped at kMaxWireFrameBytes so a corrupt length
// can never drive a huge allocation. Unlike the torn-tail-tolerant
// journal reader, a socket peer is live: any malformed frame (bad CRC,
// unknown type or flag, oversized length, truncated payload) is a
// protocol error and the connection is closed — there is no
// resynchronization point inside a byte stream.
//
// Table batches travel in a columnar encoding over the same lossless
// cell shapes as SessionJournal::EncodeBatch: int64 and double columns
// as flat 64-bit little-endian patterns, string columns
// dictionary-encoded with the dictionary shipped incrementally (each
// string's bytes cross the wire once per connection direction, then
// flat u32 id columns), mixed/null columns falling back to per-cell
// type tags. Dictionary state lives in the codec instances
// (WireTableEncoder / WireTableDecoder), one pair per connection
// direction; because a connection's frames are strictly ordered, the
// decoder's dictionary replays the encoder's exactly. The encoder makes
// one dictionary probe per string cell, which both assigns a fresh
// string its id and yields the cell's id, and writes fixed-width runs
// into a pre-sized region of the output. The decoder decodes each cell
// straight into its row. Every encoding spends at least one byte per
// cell, so the decoder refuses a block whose rows × cols exceeds the
// bytes left before it sizes anything from the row count. The codec is
// lossless (doubles bit for bit, Null distinct from "", NUL-safe
// strings), which is what lets a remote client byte-compare its
// stream's output against serial in-process replay.
//
// Responses carry the service Status (code + message + the typed
// retry_after_ms backpressure hint — clients must not parse message
// text), the session's sticky journal status, and the width the request
// ran at.
//
// Every payload message (request, response, detect report, verdict,
// fingerprint report, epoch summary, shard, streamed terminal) has one
// field list in wire.cc, run by both the encoder and the decoder, so a
// field cannot be added to one side only. Every list travels as
// [u32 count][elements], and a decoder refuses a count larger than the
// bytes left divided by the smallest encoding one element can have,
// before it sizes anything from that count.

#ifndef PRIVMARK_SERVICE_WIRE_H_
#define PRIVMARK_SERVICE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/binenc.h"
#include "common/status.h"
#include "core/session.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "watermark/fingerprint.h"

namespace privmark {

/// \brief Connection preamble: protocol name + version in 8 bytes.
inline constexpr char kWireMagic[8] = {'P', 'R', 'V', 'M',
                                       'N', 'E', 'T', '2'};
inline constexpr size_t kWireMagicSize = sizeof(kWireMagic);

/// \brief The protocol version the envelope below encodes (the digit in
/// kWireMagic). EncodeWireFrame takes it so callers name the envelope
/// they write; no other version exists.
inline constexpr uint8_t kWireProtocolV2 = 2;

/// \brief Frame payloads larger than this are refused on both encode
/// and decode (matches SessionJournal::kMaxRecordBytes).
inline constexpr size_t kMaxWireFrameBytes = size_t{256} * 1024 * 1024;

/// \brief [u32 payload length][u32 crc32] — the fixed prefix read
/// before the type byte and payload.
inline constexpr size_t kWireFrameHeaderBytes = 8;

/// \brief Frame types. 1–6 are requests (client → server) mirroring
/// the serve grammar; kResponse carries (or, streamed, closes) every
/// server reply; kPartial carries one continuation slice of a streamed
/// response.
enum class WireFrameType : uint8_t {
  kOpen = 1,
  kIngest = 2,
  kFlush = 3,
  kDetect = 4,
  kFingerprint = 5,
  kClose = 6,
  kResponse = 7,
  kPartial = 8,
};

const char* WireFrameTypeToString(WireFrameType type);

/// \brief Envelope flag bits.
inline constexpr uint8_t kWireFlagFinal = 0x1;
inline constexpr uint8_t kWireFlagStreamed = 0x2;
inline constexpr uint8_t kWireFlagMask = kWireFlagFinal | kWireFlagStreamed;

/// \brief Fixed envelope overhead past the type byte:
/// u64 request_id + u8 flags.
inline constexpr size_t kWireEnvelopeBytes = 9;

/// \brief One decoded frame.
struct WireFrame {
  WireFrameType type = WireFrameType::kResponse;
  /// Client-assigned id echoed on every frame of the response.
  uint64_t request_id = 0;
  /// kWireFlagFinal — last frame of its logical message.
  bool final_frame = true;
  /// kWireFlagStreamed — part of a streamed response.
  bool streamed = false;
  std::string payload;
};

/// \brief Encodes a complete frame (header + body). InvalidArgument when
/// `version` is not kWireProtocolV2, the payload exceeds
/// kMaxWireFrameBytes, or a kPartial frame claims to be final.
Result<std::string> EncodeWireFrame(const WireFrame& frame, uint8_t version);

/// \brief Validates a frame header (first kWireFrameHeaderBytes bytes
/// off the socket) and returns the body length still to read (type byte
/// + envelope + payload). InvalidArgument on an oversized length.
Result<size_t> WireFrameBodyLength(const char* header);

/// \brief Validates CRC, type, and envelope flags of a frame body read
/// after WireFrameBodyLength and splits it into a WireFrame, whose
/// payload is `body` with the envelope stripped in place (no copy).
/// InvalidArgument on CRC mismatch, an unknown type, unknown flag bits,
/// or a kPartial frame claiming to be final.
Result<WireFrame> DecodeWireFrameBody(const char* header, std::string body);

/// \brief Reads one frame off `fd`: the header (WireFrameBodyLength's
/// length cap), then the body, decoded by DecodeWireFrameBody. IOError
/// when the peer hangs up or a read fails; InvalidArgument on a
/// malformed frame. The caller checks the frame type.
Result<WireFrame> ReadWireFrame(int fd);

// ---- columnar table codec ------------------------------------------------

/// \brief Per-column encodings inside a table block.
enum class WireColumnEncoding : uint8_t {
  /// rows × u64 little-endian two's-complement int64.
  kInt64Dense = 0,
  /// rows × u64 little-endian IEEE double bit patterns.
  kDoubleDense = 1,
  /// [u32 new_entries][new_entries × (u32 len + bytes)][rows × u32 id]:
  /// dictionary ids into the codec's persistent per-column dictionary,
  /// new entries appended in first-occurrence order.
  kStringDict = 2,
  /// rows × (u8 ValueType tag + payload) — the journal cell codec;
  /// fallback for mixed-type or Null-bearing columns.
  kCells = 3,
};

/// \brief Encode side of the columnar codec. One instance per
/// connection direction; dictionary state accumulates across calls.
class WireTableEncoder {
 public:
  /// Appends the block for `batch` to `out`:
  /// [u32 rows][u32 cols], then per column [u8 encoding][column data].
  void Encode(const Table& batch, std::string* out);

 private:
  // Per column: string -> dictionary id (ids are append-ordered).
  std::vector<std::unordered_map<std::string, uint32_t>> dicts_;
  // Per-column scratch, kept to reuse its capacity: the entries a column
  // introduces, in first-occurrence order, and every cell's id.
  std::vector<const std::string*> fresh_;
  std::vector<uint32_t> ids_;
};

/// \brief Decode side; must see every block its encoder produced, in
/// order, or the dictionaries desynchronize (the daemon guarantees
/// this by making any decode error fatal to the connection).
class WireTableDecoder {
 public:
  explicit WireTableDecoder(Schema schema)
      : schema_(std::move(schema)), dicts_(schema_.num_columns()) {}

  /// Consumes one table block from `reader`. InvalidArgument on
  /// truncation, unknown encodings, out-of-range dictionary ids, or a
  /// column count differing from the schema's.
  Result<Table> Decode(BinReader* reader);

  const Schema& schema() const { return schema_; }

 private:
  Schema schema_;
  // Per schema column: dictionary id -> string.
  std::vector<std::vector<std::string>> dicts_;
};

// ---- request payloads ----------------------------------------------------

/// \brief kOpen payload: everything the server needs to build the
/// stream's FrameworkConfig + SessionConfig. Secrets (passphrase, k1,
/// k2) cross the wire by design — the daemon trusts its transport the
/// way the in-process service trusts its caller (TLS is the recorded
/// follow-on; see ROADMAP).
struct WireOpenRequest {
  std::string session;
  uint64_t k = 20;
  bool enforce_joint = false;
  bool auto_epsilon = false;
  /// The session's own num_threads knob (its default thread ask).
  uint64_t num_threads = 1;
  std::string passphrase;
  std::string k1;
  std::string k2;
  uint64_t eta = 50;
  std::string key_id;
  /// 0 = UnbinnablePolicy::kError, 1 = kSuppress.
  uint8_t on_unbinnable = 0;
  /// 0 = RebinPolicy::kFreezeBins, 1 = kRebinOnDrift.
  uint8_t policy = 0;
  double drift_threshold = 0.5;
};

/// \brief One decoded request of any kind. `table` carries the ingest
/// batch or the detect/fingerprint suspect copy; `registry_text` the
/// fingerprint request's serialized KeyRegistry.
struct WireRequest {
  WireFrameType type = WireFrameType::kOpen;
  std::string session;
  /// Thread ask; UINT64_MAX encodes kSessionThreads.
  uint64_t ask = UINT64_MAX;
  /// Per-request deadline; -1 = the daemon's default_deadline_ms.
  int64_t deadline_ms = -1;
  /// kFingerprint only: ask for a streamed response (travels as the
  /// request frame's kWireFlagStreamed envelope bit, not in the payload).
  bool stream = false;
  WireOpenRequest open;
  Table table;
  std::string registry_text;
};

/// \brief Encodes a request's payload (not the frame). Table-bearing
/// requests advance `tables`' dictionary state.
std::string EncodeWireRequest(const WireRequest& request,
                              WireTableEncoder* tables);

/// \brief Decodes a request frame's payload. `tables` must be the
/// connection's decoder (its schema types the table block).
Result<WireRequest> DecodeWireRequest(WireFrameType type,
                                      const std::string& payload,
                                      WireTableDecoder* tables);

// ---- response payloads ---------------------------------------------------

/// \brief kOpen response body: what (if anything) was recovered from
/// the session's journal.
struct WireOpenResult {
  bool recovered = false;
  uint64_t batches_applied = 0;
  uint64_t epochs_sealed = 0;
  bool tail_truncated = false;
  /// Rows the recovered session had already emitted before the crash.
  Table emitted;
};

/// \brief kIngest response body (IngestResult minus the in-process-only
/// embed internals).
struct WireIngestResult {
  uint64_t epoch = 0;
  bool flushed = false;
  uint64_t rows_emitted = 0;
  uint64_t rows_suppressed = 0;
  uint64_t rows_buffered = 0;
  Table emitted;
};

/// \brief kFlush response body.
struct WireFlushResult {
  uint64_t epoch = 0;
  double identifier_statistic = 0.0;
  Table emitted;
};

/// \brief One sealed epoch in a kClose response. The manifest crosses
/// the wire pre-serialized (SerializeManifest is deterministic, so the
/// client's manifest file is byte-identical to a local run's).
struct WireEpochSummary {
  uint64_t epoch = 0;
  uint64_t rows_emitted = 0;
  uint64_t rows_suppressed = 0;
  uint64_t wmd_size = 0;
  double identifier_statistic = 0.0;
  std::string manifest_text;
};

/// \brief kClose response body.
struct WireCloseResult {
  uint64_t rows_ingested = 0;
  uint64_t rows_emitted = 0;
  uint64_t rows_suppressed = 0;
  std::vector<WireEpochSummary> epochs;
};

/// \brief Every server reply. `kind` echoes the request's frame type
/// and selects which body member is meaningful; a non-OK `status`
/// carries no body but a fully defined envelope (threads_granted = 0,
/// journal_status OK unless the session's is known, the retry hint on
/// `status` itself, and the request_id echoed).
struct WireResponse {
  WireFrameType kind = WireFrameType::kOpen;
  /// Envelope only (set from the frame, never encoded in the payload):
  /// the id of the request this response answers.
  uint64_t request_id = 0;
  /// The service-level outcome, reconstructed code + message + the
  /// typed retry_after_ms() backpressure hint (clients must never
  /// parse message text).
  Status status;
  /// The session's sticky journal status as of this request.
  Status journal_status;
  uint64_t threads_granted = 1;

  WireOpenResult open;              // kind == kOpen
  WireIngestResult ingest;          // kind == kIngest
  WireFlushResult flush;            // kind == kFlush
  std::vector<DetectReport> reports;            // kind == kDetect
  std::vector<FingerprintReport> fingerprints;  // kind == kFingerprint
  WireCloseResult close;            // kind == kClose
};

/// \brief Encodes a response's payload (not the frame). Emitted tables
/// advance `tables`' dictionary state.
std::string EncodeWireResponse(const WireResponse& response,
                               WireTableEncoder* tables);

/// \brief Decodes a response frame's payload (client side).
Result<WireResponse> DecodeWireResponse(const std::string& payload,
                                        WireTableDecoder* tables);

// ---- streamed fingerprint responses -------------------------------------

/// \brief One kPartial frame's payload: a FingerprintShard as it left
/// the scan — the verdicts for a contiguous registry-order key run of
/// one epoch's scan, its three counters as u64. Shards carry no table
/// blocks, so they never touch the connection's dictionary state.
std::string EncodeWireFingerprintShard(const FingerprintShard& shard);
Result<FingerprintShard> DecodeWireFingerprintShard(
    const std::string& payload);

/// \brief Encodes the terminal kResponse payload of a streamed
/// fingerprint response: the envelope plus, per epoch, the report MINUS
/// its verdicts (they already crossed as kPartial shards) — ranking,
/// keys_detected, collusion. ranking.size() doubles as the epoch's
/// verdict count, which is how the receiver validates its reassembly.
/// `response.kind` must be kFingerprint; a non-OK status carries no
/// tails (same convention as EncodeWireResponse).
std::string EncodeWireResponseStreamedTails(const WireResponse& response);

/// \brief Decodes a streamed-terminal payload: the returned response's
/// fingerprints have ranking / keys_detected / collusion set and EMPTY
/// verdicts — the caller reattaches the shard verdicts it buffered,
/// checking each epoch's count against ranking.size().
Result<WireResponse> DecodeWireResponseStreamedTails(
    const std::string& payload);

// ---- socket I/O ----------------------------------------------------------

/// \brief recv(2) exactly `size` bytes; false on EOF or error. The
/// "wire.read" failpoint injects a failure here (both the daemon's and
/// the client's read path run through this).
bool ReadFullySocket(int fd, char* data, size_t size);

/// \brief send(2) all of `data` (MSG_NOSIGNAL: a hung-up peer yields an
/// error, not SIGPIPE); false on error. The "wire.write" failpoint
/// injects a failure here.
bool WriteFullySocket(int fd, const char* data, size_t size);

}  // namespace privmark

#endif  // PRIVMARK_SERVICE_WIRE_H_
