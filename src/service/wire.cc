#include "service/wire.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "core/journal.h"

namespace privmark {

namespace {

// Length caps applied before any allocation during decode. The frame
// length is already capped; these keep individual fields proportionate.
constexpr size_t kMaxNameBytes = 4096;
constexpr size_t kMaxTextBytes = size_t{1} << 20;

// The fewest bytes one sequence element encodes to (empty strings and
// lists): what a reader divides the bytes left by before trusting a count.
constexpr size_t kDetectReportMinBytes = 4 + 3 * 8 + 4 + 4;
constexpr size_t kKeyVerdictMinBytes = 4 + kDetectReportMinBytes + 4 * 8 + 1;
constexpr size_t kFingerprintTailMinBytes = 4 + 8 + 1;
constexpr size_t kEpochSummaryMinBytes = 5 * 8 + 4;

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("wire: truncated or oversized ") +
                                 what);
}

// The encode half of every payload codec. Its primitives mirror
// WireReader's one for one, so a message's *Fields function is its whole
// format; the caps and checks they take only matter when reading.
class WireWriter {
 public:
  WireWriter(std::string* out, WireTableEncoder* tables)
      : out_(out), tables_(tables) {}

  template <class Int>
  void U32(Int v) { AppendLe32(out_, static_cast<uint32_t>(v)); }
  template <class Int>
  void U64(Int v) { AppendLe64(out_, static_cast<uint64_t>(v)); }
  void Double(double v) { AppendDoubleBits(out_, v); }
  void Flag(bool v) { out_->push_back(v ? 1 : 0); }
  template <class E>
  void Enum(E v, E, E, const char*) { out_->push_back(static_cast<char>(v)); }
  void Text(const std::string& text, size_t) {
    AppendLengthPrefixed(out_, text);
  }
  // [u32 code][text message][u64 retry_after_ms bits].
  void Stat(const Status& status) {
    U32(status.code());
    Text(status.message(), kMaxTextBytes);
    U64(status.retry_after_ms());
  }
  void Bits(const BitVector& bits) { Text(bits.ToString(), kMaxTextBytes); }
  // One '0'/'1' byte per flag, as text.
  void Votes(const std::vector<bool>& voted) {
    std::string text;
    text.reserve(voted.size());
    for (bool b : voted) text.push_back(b ? '1' : '0');
    Text(text, kMaxTextBytes);
  }
  void Block(const Table& table) { tables_->Encode(table, out_); }
  // [u32 count][count × element].
  template <class V, class F>
  void Seq(const V& items, size_t, F element) {
    U32(items.size());
    for (const auto& item : items) element(item);
  }
  template <class F>
  void Check(F) {}

 private:
  std::string* out_;
  WireTableEncoder* tables_;
};

// The decode half. It latches the first error: every primitive after it
// is a no-op, so a field list reads straight through and the caller
// looks at Finish() once.
class WireReader {
 public:
  WireReader(const std::string& payload, WireTableDecoder* tables,
             const char* what)
      : reader_(payload), tables_(tables), what_(what) {}

  template <class Int>
  void U32(Int& v) {
    uint32_t raw = 0;
    if (Take(reader_.ReadU32(&raw))) v = static_cast<Int>(raw);
  }
  template <class Int>
  void U64(Int& v) {
    uint64_t raw = 0;
    if (Take(reader_.ReadU64(&raw))) v = static_cast<Int>(raw);
  }
  void Double(double& v) { Take(reader_.ReadDoubleBits(&v)); }
  void Flag(bool& v) {
    uint8_t raw = 0;
    if (Take(reader_.ReadU8(&raw))) v = raw != 0;
  }
  // A u8 that must lie in [lo, hi].
  template <class E>
  void Enum(E& v, E lo, E hi, const char* what) {
    uint8_t raw = 0;
    if (!Take(reader_.ReadU8(&raw))) return;
    if (raw < static_cast<uint8_t>(lo) || raw > static_cast<uint8_t>(hi)) {
      return Fail(std::string("unknown ") + what + " " + std::to_string(raw));
    }
    v = static_cast<E>(raw);
  }
  void Text(std::string& text, size_t max_bytes) {
    Take(reader_.ReadLengthPrefixed(&text, max_bytes));
  }
  void Stat(Status& status) {
    uint32_t code = 0;
    std::string message;
    uint64_t retry_bits = 0;
    U32(code);
    Text(message, kMaxTextBytes);
    U64(retry_bits);
    if (!status_.ok()) return;
    if (code > static_cast<uint32_t>(StatusCode::kResourceExhausted)) {
      return Fail("unknown status code " + std::to_string(code));
    }
    status = Status(static_cast<StatusCode>(code), std::move(message))
                 .WithRetryAfterMs(static_cast<int64_t>(retry_bits));
  }
  void Bits(BitVector& bits) {
    std::string text;
    Text(text, kMaxTextBytes);
    if (status_.ok()) Adopt(BitVector::FromString(text), bits);
  }
  void Votes(std::vector<bool>& voted) {
    std::string text;
    Text(text, kMaxTextBytes);
    voted.reserve(text.size());
    for (char c : text) {
      if (c != '0' && c != '1') return Fail("bit_voted holds a non-bit byte");
      voted.push_back(c == '1');
    }
  }
  void Block(Table& table) {
    if (status_.ok()) Adopt(tables_->Decode(&reader_), table);
  }
  // The count is refused unless the bytes left can hold that many
  // elements of at least `min_bytes` each, before anything is sized.
  template <class V, class F>
  void Seq(V& items, size_t min_bytes, F element) {
    uint32_t count = 0;
    U32(count);
    if (!status_.ok()) return;
    if (count > reader_.remaining() / min_bytes) {
      return Fail(std::string(what_) + " claims " + std::to_string(count) +
                  " entries but has " + std::to_string(reader_.remaining()) +
                  " bytes left");
    }
    items.resize(count);
    for (auto& item : items) {
      if (!status_.ok()) return;
      element(item);
    }
  }
  // A read-side check, run only while no error has latched.
  template <class F>
  void Check(F check) {
    if (status_.ok()) status_ = check();
  }
  // The latched error, else InvalidArgument on trailing bytes.
  Status Finish() {
    if (status_.ok() && !reader_.Exhausted()) {
      Fail(std::string(what_) + " has trailing bytes");
    }
    return status_;
  }

 private:
  bool Take(bool read) {
    if (!read && status_.ok()) status_ = Truncated(what_);
    return read && status_.ok();
  }
  void Fail(const std::string& message) {
    if (status_.ok()) status_ = Status::InvalidArgument("wire: " + message);
  }
  template <class T>
  void Adopt(Result<T> result, T& out) {
    if (result.ok()) {
      out = std::move(result).ValueOrDie();
    } else {
      status_ = result.status();
    }
  }

  BinReader reader_;
  WireTableDecoder* tables_;
  const char* what_;
  Status status_;
};

// ---- one field list per message ------------------------------------------
//
// Each *Fields function below is a message's whole format, instantiated
// once with WireWriter (T const) and once with WireReader.

template <class IO, class T>
void DetectReportFields(IO& io, T& report) {
  io.Bits(report.recovered);
  io.U64(report.tuples_selected);
  io.U64(report.slots_read);
  io.U64(report.slots_skipped);
  io.Seq(report.vote_margin, 8, [&](auto& margin) { io.Double(margin); });
  io.Votes(report.bit_voted);
}

template <class IO, class T>
void KeyVerdictFields(IO& io, T& verdict) {
  io.Text(verdict.key_name, kMaxNameBytes);
  DetectReportFields(io, verdict.detection);
  io.Double(verdict.margin_ratio);
  io.Double(verdict.mark_match);
  io.Double(verdict.p_value);
  io.Double(verdict.score);
  io.Flag(verdict.detected);
}

// A ranking is a permutation of all verdict indices (in range, never
// repeated), so its length IS the verdict count: a report that carries
// its verdicts must agree with it, and a streamed tail's client checks
// its reassembled shards against it.
Status CheckRanking(const FingerprintReport& report, bool with_verdicts) {
  const size_t n = report.ranking.size();
  std::vector<bool> seen(n, false);
  for (size_t index : report.ranking) {
    if (index >= n) {
      return Status::InvalidArgument(
          "wire: fingerprint ranking index out of range");
    }
    if (seen[index]) {
      return Status::InvalidArgument(
          "wire: fingerprint ranking repeats index " + std::to_string(index));
    }
    seen[index] = true;
  }
  if (with_verdicts && n != report.verdicts.size()) {
    return Status::InvalidArgument(
        "wire: fingerprint ranking length differs from verdict count");
  }
  return Status::OK();
}

// [verdicts] [u32-indexed ranking][u64 keys_detected][u8 collusion]. A
// streamed terminal carries the tail only (with_verdicts = false): its
// verdicts already crossed as kPartial shards.
template <class IO, class T>
void FingerprintReportFields(IO& io, T& report, bool with_verdicts) {
  if (with_verdicts) {
    io.Seq(report.verdicts, kKeyVerdictMinBytes,
           [&](auto& verdict) { KeyVerdictFields(io, verdict); });
  }
  io.Seq(report.ranking, 4, [&](auto& index) { io.U32(index); });
  io.Check([&] { return CheckRanking(report, with_verdicts); });
  io.U64(report.keys_detected);
  io.Flag(report.collusion);
}

template <class IO, class T>
void EpochSummaryFields(IO& io, T& epoch) {
  io.U64(epoch.epoch);
  io.U64(epoch.rows_emitted);
  io.U64(epoch.rows_suppressed);
  io.U64(epoch.wmd_size);
  io.Double(epoch.identifier_statistic);
  io.Text(epoch.manifest_text, kMaxTextBytes);
}

template <class IO, class T>
void OpenRequestFields(IO& io, T& open) {
  io.U64(open.k);
  io.Flag(open.enforce_joint);
  io.Flag(open.auto_epsilon);
  io.U64(open.num_threads);
  io.Text(open.passphrase, kMaxNameBytes);
  io.Text(open.k1, kMaxNameBytes);
  io.Text(open.k2, kMaxNameBytes);
  io.U64(open.eta);
  io.Text(open.key_id, kMaxNameBytes);
  io.Enum(open.on_unbinnable, uint8_t{0}, uint8_t{1}, "unbinnable policy");
  io.Enum(open.policy, uint8_t{0}, uint8_t{1}, "rebin policy");
  io.Double(open.drift_threshold);
}

// [session], then by type: open → the stream's configuration; close →
// nothing; the rest → [u64 ask][u64 deadline_ms], fingerprint's registry
// text, and (all but flush) a table block.
template <class IO, class T>
void RequestFields(IO& io, T& request) {
  io.Text(request.session, kMaxNameBytes);
  if (request.type == WireFrameType::kOpen) {
    return OpenRequestFields(io, request.open);
  }
  if (request.type == WireFrameType::kClose) return;
  io.U64(request.ask);
  io.U64(request.deadline_ms);
  if (request.type == WireFrameType::kFingerprint) {
    io.Text(request.registry_text, kMaxTextBytes);
  }
  if (request.type != WireFrameType::kFlush) io.Block(request.table);
}

// Every response payload opens with the envelope [u8 kind][status]
// [journal status][u64 threads_granted]; a non-OK status ends it there,
// an OK one is followed by the body `kind` selects. A streamed terminal
// is always kFingerprint and carries the report tails only.
template <class IO, class T>
void ResponseFields(IO& io, T& response, bool streamed) {
  io.Enum(response.kind, WireFrameType::kOpen, WireFrameType::kClose,
          "response kind");
  io.Check([&] {
    return !streamed || response.kind == WireFrameType::kFingerprint
               ? Status::OK()
               : Status::InvalidArgument(
                     "wire: streamed terminal echoes non-fingerprint kind " +
                     std::to_string(static_cast<int>(response.kind)));
  });
  io.Stat(response.status);
  io.Stat(response.journal_status);
  io.U64(response.threads_granted);
  if (!response.status.ok()) return;
  switch (response.kind) {
    case WireFrameType::kOpen:
      io.Flag(response.open.recovered);
      io.U64(response.open.batches_applied);
      io.U64(response.open.epochs_sealed);
      io.Flag(response.open.tail_truncated);
      io.Block(response.open.emitted);
      break;
    case WireFrameType::kIngest:
      io.U64(response.ingest.epoch);
      io.Flag(response.ingest.flushed);
      io.U64(response.ingest.rows_emitted);
      io.U64(response.ingest.rows_suppressed);
      io.U64(response.ingest.rows_buffered);
      io.Block(response.ingest.emitted);
      break;
    case WireFrameType::kFlush:
      io.U64(response.flush.epoch);
      io.Double(response.flush.identifier_statistic);
      io.Block(response.flush.emitted);
      break;
    case WireFrameType::kDetect:
      io.Seq(response.reports, kDetectReportMinBytes,
             [&](auto& report) { DetectReportFields(io, report); });
      break;
    case WireFrameType::kFingerprint:
      io.Seq(response.fingerprints,
             kFingerprintTailMinBytes + (streamed ? 0 : 4), [&](auto& report) {
               FingerprintReportFields(io, report, !streamed);
             });
      break;
    case WireFrameType::kClose:
      io.U64(response.close.rows_ingested);
      io.U64(response.close.rows_emitted);
      io.U64(response.close.rows_suppressed);
      io.Seq(response.close.epochs, kEpochSummaryMinBytes,
             [&](auto& epoch) { EpochSummaryFields(io, epoch); });
      break;
    case WireFrameType::kResponse:
    case WireFrameType::kPartial:
      break;  // unreachable: kind always echoes a request type
  }
}

template <class IO, class T>
void ShardFields(IO& io, T& shard) {
  io.U64(shard.epoch);
  io.U64(shard.shard);
  io.U64(shard.first_key);
  io.Seq(shard.verdicts, kKeyVerdictMinBytes,
         [&](auto& verdict) { KeyVerdictFields(io, verdict); });
}

}  // namespace

const char* WireFrameTypeToString(WireFrameType type) {
  switch (type) {
    case WireFrameType::kOpen: return "open";
    case WireFrameType::kIngest: return "ingest";
    case WireFrameType::kFlush: return "flush";
    case WireFrameType::kDetect: return "detect";
    case WireFrameType::kFingerprint: return "fingerprint";
    case WireFrameType::kClose: return "close";
    case WireFrameType::kResponse: return "response";
    case WireFrameType::kPartial: return "partial";
  }
  return "unknown";
}

Result<std::string> EncodeWireFrame(const WireFrame& frame, uint8_t version) {
  if (version != kWireProtocolV2) {
    return Status::InvalidArgument("wire: unknown protocol version " +
                                   std::to_string(version));
  }
  if (frame.payload.size() > kMaxWireFrameBytes) {
    return Status::InvalidArgument("wire: frame payload of " +
                                   std::to_string(frame.payload.size()) +
                                   " bytes exceeds the frame size cap");
  }
  if (frame.type == WireFrameType::kPartial && frame.final_frame) {
    return Status::InvalidArgument(
        "wire: a partial frame cannot be final");
  }
  uint8_t flags = 0;
  if (frame.final_frame) flags |= kWireFlagFinal;
  if (frame.streamed) flags |= kWireFlagStreamed;
  // Build the frame once; the CRC covers its body, which starts past the
  // header.
  std::string encoded;
  encoded.reserve(kWireFrameHeaderBytes + 1 + kWireEnvelopeBytes +
                  frame.payload.size());
  AppendLe32(&encoded, static_cast<uint32_t>(frame.payload.size()));
  AppendLe32(&encoded, 0);  // the CRC, stored below
  encoded.push_back(static_cast<char>(frame.type));
  AppendLe64(&encoded, frame.request_id);
  encoded.push_back(static_cast<char>(flags));
  encoded.append(frame.payload);
  StoreLe32(encoded.data() + 4,
            JournalCrc32(encoded.data() + kWireFrameHeaderBytes,
                         encoded.size() - kWireFrameHeaderBytes));
  return encoded;
}

Result<size_t> WireFrameBodyLength(const char* header) {
  const uint32_t length = ReadLe32(header);
  if (length > kMaxWireFrameBytes) {
    return Status::InvalidArgument("wire: frame length " +
                                   std::to_string(length) +
                                   " exceeds the frame size cap");
  }
  // + the type byte and the envelope.
  return static_cast<size_t>(length) + 1 + kWireEnvelopeBytes;
}

Result<WireFrame> DecodeWireFrameBody(const char* header, std::string body) {
  constexpr size_t kEnvelope = 1 + kWireEnvelopeBytes;
  if (body.size() < kEnvelope) {
    return Status::InvalidArgument("wire: truncated frame body");
  }
  const uint32_t expected_crc = ReadLe32(header + 4);
  if (JournalCrc32(body.data(), body.size()) != expected_crc) {
    return Status::InvalidArgument("wire: frame checksum mismatch");
  }
  const uint8_t type = static_cast<uint8_t>(body[0]);
  if (type < static_cast<uint8_t>(WireFrameType::kOpen) ||
      type > static_cast<uint8_t>(WireFrameType::kPartial)) {
    return Status::InvalidArgument("wire: unknown frame type " +
                                   std::to_string(type));
  }
  WireFrame frame;
  frame.type = static_cast<WireFrameType>(type);
  frame.request_id = ReadLe64(body.data() + 1);
  const uint8_t flags = static_cast<uint8_t>(body[9]);
  if ((flags & ~kWireFlagMask) != 0) {
    return Status::InvalidArgument("wire: unknown frame flags " +
                                   std::to_string(flags));
  }
  frame.final_frame = (flags & kWireFlagFinal) != 0;
  frame.streamed = (flags & kWireFlagStreamed) != 0;
  if (frame.type == WireFrameType::kPartial && frame.final_frame) {
    return Status::InvalidArgument("wire: a partial frame cannot be final");
  }
  // Strip the envelope in place: the payload keeps the body's buffer.
  body.erase(0, kEnvelope);
  frame.payload = std::move(body);
  return frame;
}

Result<WireFrame> ReadWireFrame(int fd) {
  char header[kWireFrameHeaderBytes];
  if (!ReadFullySocket(fd, header, sizeof(header))) {
    return Status::IOError(
        "wire: connection lost waiting for a frame (a peer closes the "
        "connection on a protocol error)");
  }
  PRIVMARK_ASSIGN_OR_RETURN(const size_t body_length,
                            WireFrameBodyLength(header));
  std::string body(body_length, '\0');
  if (!ReadFullySocket(fd, body.data(), body.size())) {
    return Status::IOError("wire: connection lost mid-frame");
  }
  return DecodeWireFrameBody(header, std::move(body));
}

// ---- columnar table codec ------------------------------------------------

namespace {

// Extends *out by `n` bytes and returns where they start: the region a
// fixed-width run is then written into in place.
char* ExtendBy(std::string* out, size_t n) {
  const size_t at = out->size();
  out->resize(at + n);
  return out->data() + at;
}

}  // namespace

void WireTableEncoder::Encode(const Table& batch, std::string* out) {
  const size_t rows = batch.num_rows();
  const size_t cols = batch.num_columns();
  AppendLe32(out, static_cast<uint32_t>(rows));
  AppendLe32(out, static_cast<uint32_t>(cols));
  if (dicts_.size() < cols) dicts_.resize(cols);
  for (size_t c = 0; c < cols; ++c) {
    bool all_int = rows > 0;
    bool all_double = rows > 0;
    bool all_string = rows > 0;
    for (size_t r = 0; r < rows; ++r) {
      const ValueType type = batch.at(r, c).type();
      all_int = all_int && type == ValueType::kInt64;
      all_double = all_double && type == ValueType::kDouble;
      all_string = all_string && type == ValueType::kString;
    }
    if (all_int) {
      out->push_back(static_cast<char>(WireColumnEncoding::kInt64Dense));
      char* p = ExtendBy(out, 8 * rows);
      for (size_t r = 0; r < rows; ++r, p += 8) {
        StoreLe64(p, static_cast<uint64_t>(batch.at(r, c).AsInt64()));
      }
    } else if (all_double) {
      out->push_back(static_cast<char>(WireColumnEncoding::kDoubleDense));
      char* p = ExtendBy(out, 8 * rows);
      for (size_t r = 0; r < rows; ++r, p += 8) {
        const double v = batch.at(r, c).AsDouble();
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        StoreLe64(p, bits);
      }
    } else if (all_string) {
      out->push_back(static_cast<char>(WireColumnEncoding::kStringDict));
      auto& dict = dicts_[c];
      // One probe per cell: it assigns a fresh string the next id and
      // yields every cell's id. Fresh entries are kept in first-occurrence
      // order, so the decoder appends them to its dictionary and lands on
      // identical ids.
      fresh_.clear();
      ids_.clear();
      for (size_t r = 0; r < rows; ++r) {
        const auto [it, inserted] = dict.try_emplace(
            batch.at(r, c).AsString(), static_cast<uint32_t>(dict.size()));
        if (inserted) fresh_.push_back(&it->first);
        ids_.push_back(it->second);
      }
      AppendLe32(out, static_cast<uint32_t>(fresh_.size()));
      for (const std::string* s : fresh_) AppendLengthPrefixed(out, *s);
      char* p = ExtendBy(out, 4 * rows);
      for (size_t r = 0; r < rows; ++r, p += 4) StoreLe32(p, ids_[r]);
    } else {
      // Mixed or Null-bearing column: per-cell tags (the journal codec).
      out->push_back(static_cast<char>(WireColumnEncoding::kCells));
      for (size_t r = 0; r < rows; ++r) AppendCell(batch.at(r, c), out);
    }
  }
}

Result<Table> WireTableDecoder::Decode(BinReader* reader) {
  uint32_t rows = 0;
  uint32_t cols = 0;
  if (!reader->ReadU32(&rows) || !reader->ReadU32(&cols)) {
    return Truncated("table block");
  }
  // A default-constructed Table (a fresh session's "nothing emitted
  // yet") encodes as 0x0; decode it as an empty table of the schema.
  if (rows == 0 && cols == 0) return Table(schema_);
  if (cols != schema_.num_columns()) {
    return Status::InvalidArgument(
        "wire: table block has " + std::to_string(cols) +
        " columns, schema has " + std::to_string(schema_.num_columns()));
  }
  // Every encoding spends at least one byte per cell, so a block claiming
  // more cells than bytes left is a lie, and so are rows with no columns
  // to carry them: refuse both before sizing anything from the claim.
  if (cols == 0 || uint64_t{rows} * cols > reader->remaining()) {
    return Truncated("table block");
  }
  // Each cell is decoded straight into its row.
  std::vector<Row> decoded(rows);
  for (Row& row : decoded) row.reserve(cols);
  for (uint32_t c = 0; c < cols; ++c) {
    uint8_t encoding = 0;
    if (!reader->ReadU8(&encoding)) return Truncated("table column");
    if (encoding == static_cast<uint8_t>(WireColumnEncoding::kInt64Dense)) {
      if (reader->remaining() / 8 < rows) return Truncated("int64 column");
      for (Row& row : decoded) {
        uint64_t bits = 0;
        reader->ReadU64(&bits);
        row.push_back(Value::Int64(static_cast<int64_t>(bits)));
      }
    } else if (encoding ==
               static_cast<uint8_t>(WireColumnEncoding::kDoubleDense)) {
      if (reader->remaining() / 8 < rows) return Truncated("double column");
      for (Row& row : decoded) {
        double v = 0;
        reader->ReadDoubleBits(&v);
        row.push_back(Value::Double(v));
      }
    } else if (encoding ==
               static_cast<uint8_t>(WireColumnEncoding::kStringDict)) {
      auto& dict = dicts_[c];
      uint32_t fresh = 0;
      if (!reader->ReadU32(&fresh)) return Truncated("string dictionary");
      // Each fresh entry costs at least its 4-byte length prefix.
      if (reader->remaining() / 4 < fresh) {
        return Truncated("string dictionary");
      }
      for (uint32_t i = 0; i < fresh; ++i) {
        std::string entry;
        if (!reader->ReadLengthPrefixed(&entry, kMaxWireFrameBytes)) {
          return Truncated("string dictionary entry");
        }
        dict.push_back(std::move(entry));
      }
      if (reader->remaining() / 4 < rows) return Truncated("string ids");
      for (Row& row : decoded) {
        uint32_t id = 0;
        reader->ReadU32(&id);
        if (id >= dict.size()) {
          return Status::InvalidArgument(
              "wire: string dictionary id " + std::to_string(id) +
              " out of range (dictionary holds " +
              std::to_string(dict.size()) + ")");
        }
        row.push_back(Value::String(dict[id]));
      }
    } else if (encoding == static_cast<uint8_t>(WireColumnEncoding::kCells)) {
      for (Row& row : decoded) {
        uint8_t tag = 0;
        if (!ReadCell(reader, kMaxWireFrameBytes, &tag, &row.emplace_back())) {
          if (!reader->ok()) return Truncated("cell column");
          return Status::InvalidArgument(
              "wire: table cell has unknown tag " + std::to_string(tag));
        }
      }
    } else {
      return Status::InvalidArgument(
          "wire: unknown column encoding " + std::to_string(encoding));
    }
  }
  Table table(schema_);
  for (Row& row : decoded) {
    PRIVMARK_RETURN_NOT_OK(table.AppendRow(std::move(row)));
  }
  return table;
}

// ---- payloads ------------------------------------------------------------

std::string EncodeWireRequest(const WireRequest& request,
                              WireTableEncoder* tables) {
  std::string out;
  WireWriter io(&out, tables);
  RequestFields(io, request);
  return out;
}

Result<WireRequest> DecodeWireRequest(WireFrameType type,
                                      const std::string& payload,
                                      WireTableDecoder* tables) {
  if (type < WireFrameType::kOpen || type > WireFrameType::kClose) {
    return Status::InvalidArgument(std::string("wire: a ") +
                                   WireFrameTypeToString(type) +
                                   " frame is not a request");
  }
  WireRequest request;
  request.type = type;
  WireReader io(payload, tables, "request");
  RequestFields(io, request);
  PRIVMARK_RETURN_NOT_OK(io.Finish());
  request.open.session = request.session;
  return request;
}

std::string EncodeWireResponse(const WireResponse& response,
                               WireTableEncoder* tables) {
  std::string out;
  WireWriter io(&out, tables);
  ResponseFields(io, response, /*streamed=*/false);
  return out;
}

Result<WireResponse> DecodeWireResponse(const std::string& payload,
                                        WireTableDecoder* tables) {
  WireResponse response;
  WireReader io(payload, tables, "response");
  ResponseFields(io, response, /*streamed=*/false);
  PRIVMARK_RETURN_NOT_OK(io.Finish());
  return response;
}

std::string EncodeWireFingerprintShard(const FingerprintShard& shard) {
  std::string out;
  WireWriter io(&out, nullptr);
  ShardFields(io, shard);
  return out;
}

Result<FingerprintShard> DecodeWireFingerprintShard(
    const std::string& payload) {
  FingerprintShard shard;
  WireReader io(payload, nullptr, "fingerprint shard");
  ShardFields(io, shard);
  PRIVMARK_RETURN_NOT_OK(io.Finish());
  return shard;
}

std::string EncodeWireResponseStreamedTails(const WireResponse& response) {
  std::string out;
  WireWriter io(&out, nullptr);
  ResponseFields(io, response, /*streamed=*/true);
  return out;
}

Result<WireResponse> DecodeWireResponseStreamedTails(
    const std::string& payload) {
  WireResponse response;
  WireReader io(payload, nullptr, "streamed response");
  ResponseFields(io, response, /*streamed=*/true);
  PRIVMARK_RETURN_NOT_OK(io.Finish());
  return response;
}

// ---- socket I/O ----------------------------------------------------------

bool ReadFullySocket(int fd, char* data, size_t size) {
  if (PRIVMARK_FAILPOINT("wire.read")) return false;
  while (size > 0) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n == 0) return false;  // peer hung up mid-frame
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool WriteFullySocket(int fd, const char* data, size_t size) {
  if (PRIVMARK_FAILPOINT("wire.write")) return false;
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace privmark
