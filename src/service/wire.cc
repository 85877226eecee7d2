#include "service/wire.h"

#include <sys/socket.h>

#include <cerrno>
#include <utility>

#include "common/failpoint.h"
#include "core/journal.h"

namespace privmark {

namespace {

// Length caps applied before any allocation during decode. The frame
// length is already capped; these keep individual fields proportionate.
constexpr size_t kMaxNameBytes = 4096;
constexpr size_t kMaxTextBytes = size_t{1} << 20;

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("wire: truncated or oversized ") +
                                 what);
}

void AppendStatus(std::string* out, const Status& status) {
  AppendLe32(out, static_cast<uint32_t>(status.code()));
  AppendLengthPrefixed(out, status.message());
  AppendLe64(out, static_cast<uint64_t>(status.retry_after_ms()));
}

// Out-param rather than Result<Status>: Result<T> cannot hold a Status
// payload (its value and error constructors would collide).
Status ReadStatus(BinReader* reader, const char* what, Status* out) {
  uint32_t code = 0;
  std::string message;
  uint64_t retry_bits = 0;
  if (!reader->ReadU32(&code) ||
      !reader->ReadLengthPrefixed(&message, kMaxTextBytes) ||
      !reader->ReadU64(&retry_bits)) {
    return Truncated(what);
  }
  if (code > static_cast<uint32_t>(StatusCode::kResourceExhausted)) {
    return Status::InvalidArgument("wire: unknown status code " +
                                   std::to_string(code));
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message))
             .WithRetryAfterMs(static_cast<int64_t>(retry_bits));
  return Status::OK();
}

void AppendBitVector(std::string* out, const BitVector& bits) {
  AppendLengthPrefixed(out, bits.ToString());
}

Result<BitVector> ReadBitVector(BinReader* reader, const char* what) {
  std::string text;
  if (!reader->ReadLengthPrefixed(&text, kMaxTextBytes)) {
    return Truncated(what);
  }
  return BitVector::FromString(text);
}

void AppendDetectReport(std::string* out, const DetectReport& report) {
  AppendBitVector(out, report.recovered);
  AppendLe64(out, report.tuples_selected);
  AppendLe64(out, report.slots_read);
  AppendLe64(out, report.slots_skipped);
  AppendLe32(out, static_cast<uint32_t>(report.vote_margin.size()));
  for (double margin : report.vote_margin) AppendDoubleBits(out, margin);
  std::string voted;
  voted.reserve(report.bit_voted.size());
  for (bool b : report.bit_voted) voted.push_back(b ? '1' : '0');
  AppendLengthPrefixed(out, voted);
}

Result<DetectReport> ReadDetectReport(BinReader* reader) {
  DetectReport report;
  PRIVMARK_ASSIGN_OR_RETURN(report.recovered,
                            ReadBitVector(reader, "detect report"));
  uint64_t tuples = 0;
  uint64_t read = 0;
  uint64_t skipped = 0;
  uint32_t margins = 0;
  if (!reader->ReadU64(&tuples) || !reader->ReadU64(&read) ||
      !reader->ReadU64(&skipped) || !reader->ReadU32(&margins)) {
    return Truncated("detect report");
  }
  report.tuples_selected = tuples;
  report.slots_read = read;
  report.slots_skipped = skipped;
  if (reader->remaining() / 8 < margins) return Truncated("vote margins");
  report.vote_margin.reserve(margins);
  for (uint32_t i = 0; i < margins; ++i) {
    double margin = 0;
    if (!reader->ReadDoubleBits(&margin)) return Truncated("vote margins");
    report.vote_margin.push_back(margin);
  }
  std::string voted;
  if (!reader->ReadLengthPrefixed(&voted, kMaxTextBytes)) {
    return Truncated("bit_voted");
  }
  report.bit_voted.reserve(voted.size());
  for (char c : voted) {
    if (c != '0' && c != '1') {
      return Status::InvalidArgument("wire: bit_voted holds a non-bit byte");
    }
    report.bit_voted.push_back(c == '1');
  }
  return report;
}

void AppendKeyVerdict(std::string* out, const KeyVerdict& verdict) {
  AppendLengthPrefixed(out, verdict.key_name);
  AppendDetectReport(out, verdict.detection);
  AppendDoubleBits(out, verdict.margin_ratio);
  AppendDoubleBits(out, verdict.mark_match);
  AppendDoubleBits(out, verdict.p_value);
  AppendDoubleBits(out, verdict.score);
  out->push_back(verdict.detected ? 1 : 0);
}

Result<KeyVerdict> ReadKeyVerdict(BinReader* reader) {
  KeyVerdict verdict;
  if (!reader->ReadLengthPrefixed(&verdict.key_name, kMaxNameBytes)) {
    return Truncated("verdict key name");
  }
  PRIVMARK_ASSIGN_OR_RETURN(verdict.detection, ReadDetectReport(reader));
  uint8_t detected = 0;
  if (!reader->ReadDoubleBits(&verdict.margin_ratio) ||
      !reader->ReadDoubleBits(&verdict.mark_match) ||
      !reader->ReadDoubleBits(&verdict.p_value) ||
      !reader->ReadDoubleBits(&verdict.score) ||
      !reader->ReadU8(&detected)) {
    return Truncated("verdict");
  }
  verdict.detected = detected != 0;
  return verdict;
}

// The ranking + keys_detected + collusion tail of a report — the part a
// streamed terminal frame carries after the verdicts went out as shards.
void AppendFingerprintTail(std::string* out, const FingerprintReport& report) {
  AppendLe32(out, static_cast<uint32_t>(report.ranking.size()));
  for (size_t index : report.ranking) {
    AppendLe32(out, static_cast<uint32_t>(index));
  }
  AppendLe64(out, report.keys_detected);
  out->push_back(report.collusion ? 1 : 0);
}

// Reads the tail. A ranking is always a permutation of all verdict
// indices, so its length IS the verdict count — callers holding the
// verdicts separately compare against report->ranking.size().
Status ReadFingerprintTail(BinReader* reader, FingerprintReport* report) {
  uint32_t ranked = 0;
  if (!reader->ReadU32(&ranked)) return Truncated("ranking");
  if (reader->remaining() / 4 < ranked) return Truncated("ranking");
  report->ranking.reserve(ranked);
  std::vector<bool> seen(ranked, false);
  for (uint32_t i = 0; i < ranked; ++i) {
    uint32_t index = 0;
    if (!reader->ReadU32(&index)) return Truncated("ranking");
    if (index >= ranked) {
      return Status::InvalidArgument(
          "wire: fingerprint ranking index out of range");
    }
    // In range and never repeated over `ranked` entries: a permutation.
    if (seen[index]) {
      return Status::InvalidArgument(
          "wire: fingerprint ranking repeats index " + std::to_string(index));
    }
    seen[index] = true;
    report->ranking.push_back(index);
  }
  uint64_t detected = 0;
  uint8_t collusion = 0;
  if (!reader->ReadU64(&detected) || !reader->ReadU8(&collusion)) {
    return Truncated("fingerprint report");
  }
  report->keys_detected = detected;
  report->collusion = collusion != 0;
  return Status::OK();
}

// Per-epoch fingerprint reports: [u32 count], then per report the
// verdicts ([u32 n][n × verdict]) and the tail. A streamed terminal
// carries the tails only (with_verdicts = false): its verdicts already
// crossed as kPartial shards.
void AppendFingerprintReports(std::string* out,
                              const std::vector<FingerprintReport>& reports,
                              bool with_verdicts) {
  AppendLe32(out, static_cast<uint32_t>(reports.size()));
  for (const FingerprintReport& report : reports) {
    if (with_verdicts) {
      AppendLe32(out, static_cast<uint32_t>(report.verdicts.size()));
      for (const KeyVerdict& verdict : report.verdicts) {
        AppendKeyVerdict(out, verdict);
      }
    }
    AppendFingerprintTail(out, report);
  }
}

Status ReadFingerprintReports(BinReader* reader, bool with_verdicts,
                              std::vector<FingerprintReport>* reports) {
  uint32_t count = 0;
  if (!reader->ReadU32(&count)) return Truncated("fingerprint reports");
  if (reader->remaining() / 4 < count) return Truncated("fingerprint reports");
  reports->resize(count);
  for (FingerprintReport& report : *reports) {
    if (with_verdicts) {
      uint32_t verdicts = 0;
      if (!reader->ReadU32(&verdicts)) return Truncated("fingerprint report");
      // Every verdict holds at least a name prefix and the fixed numerics.
      if (reader->remaining() / 8 < verdicts) return Truncated("verdicts");
      report.verdicts.reserve(verdicts);
      for (uint32_t i = 0; i < verdicts; ++i) {
        PRIVMARK_ASSIGN_OR_RETURN(KeyVerdict verdict, ReadKeyVerdict(reader));
        report.verdicts.push_back(std::move(verdict));
      }
    }
    PRIVMARK_RETURN_NOT_OK(ReadFingerprintTail(reader, &report));
    if (with_verdicts && report.ranking.size() != report.verdicts.size()) {
      return Status::InvalidArgument(
          "wire: fingerprint ranking length differs from verdict count");
    }
  }
  return Status::OK();
}

void AppendEpochSummary(std::string* out, const WireEpochSummary& epoch) {
  AppendLe64(out, epoch.epoch);
  AppendLe64(out, epoch.rows_emitted);
  AppendLe64(out, epoch.rows_suppressed);
  AppendLe64(out, epoch.wmd_size);
  AppendDoubleBits(out, epoch.identifier_statistic);
  AppendLengthPrefixed(out, epoch.manifest_text);
}

Result<WireEpochSummary> ReadEpochSummary(BinReader* reader) {
  WireEpochSummary epoch;
  if (!reader->ReadU64(&epoch.epoch) ||
      !reader->ReadU64(&epoch.rows_emitted) ||
      !reader->ReadU64(&epoch.rows_suppressed) ||
      !reader->ReadU64(&epoch.wmd_size) ||
      !reader->ReadDoubleBits(&epoch.identifier_statistic) ||
      !reader->ReadLengthPrefixed(&epoch.manifest_text, kMaxTextBytes)) {
    return Truncated("epoch summary");
  }
  return epoch;
}

// The envelope every response payload opens with, streamed terminal
// included: [u8 kind][status][journal status][u64 threads_granted]. A
// non-OK status ends the payload there.
void AppendResponseEnvelope(std::string* out, const WireResponse& response) {
  out->push_back(static_cast<char>(response.kind));
  AppendStatus(out, response.status);
  AppendStatus(out, response.journal_status);
  AppendLe64(out, response.threads_granted);
}

// Reads the envelope; `kind` must echo a request type.
Status ReadResponseEnvelope(BinReader* reader, const char* what,
                            WireResponse* response) {
  uint8_t kind = 0;
  if (!reader->ReadU8(&kind)) return Truncated(what);
  if (kind < static_cast<uint8_t>(WireFrameType::kOpen) ||
      kind > static_cast<uint8_t>(WireFrameType::kClose)) {
    return Status::InvalidArgument(std::string("wire: ") + what +
                                   " echoes unknown kind " +
                                   std::to_string(kind));
  }
  response->kind = static_cast<WireFrameType>(kind);
  PRIVMARK_RETURN_NOT_OK(
      ReadStatus(reader, "response status", &response->status));
  PRIVMARK_RETURN_NOT_OK(
      ReadStatus(reader, "journal status", &response->journal_status));
  if (!reader->ReadU64(&response->threads_granted)) return Truncated(what);
  return Status::OK();
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
  std::string crc_input;
  crc_input.reserve(1 + kWireEnvelopeBytes + frame.payload.size());
  crc_input.push_back(static_cast<char>(frame.type));
  AppendLe64(&crc_input, frame.request_id);
  uint8_t flags = 0;
  if (frame.final_frame) flags |= kWireFlagFinal;
  if (frame.streamed) flags |= kWireFlagStreamed;
  crc_input.push_back(static_cast<char>(flags));
  crc_input.append(frame.payload);

  std::string encoded;
  encoded.reserve(kWireFrameHeaderBytes + crc_input.size());
  AppendLe32(&encoded, static_cast<uint32_t>(frame.payload.size()));
  AppendLe32(&encoded, JournalCrc32(crc_input.data(), crc_input.size()));
  encoded.append(crc_input);
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

Result<WireFrame> DecodeWireFrameBody(const char* header, const char* body,
                                      size_t body_length) {
  constexpr size_t kEnvelope = 1 + kWireEnvelopeBytes;
  if (body_length < kEnvelope) {
    return Status::InvalidArgument("wire: truncated frame body");
  }
  const uint32_t expected_crc = ReadLe32(header + 4);
  if (JournalCrc32(body, body_length) != expected_crc) {
    return Status::InvalidArgument("wire: frame checksum mismatch");
  }
  const uint8_t type = static_cast<uint8_t>(*body);
  if (type < static_cast<uint8_t>(WireFrameType::kOpen) ||
      type > static_cast<uint8_t>(WireFrameType::kPartial)) {
    return Status::InvalidArgument("wire: unknown frame type " +
                                   std::to_string(type));
  }
  WireFrame frame;
  frame.type = static_cast<WireFrameType>(type);
  frame.request_id = ReadLe64(body + 1);
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
  frame.payload.assign(body + kEnvelope, body_length - kEnvelope);
  return frame;
}

// ---- columnar table codec ------------------------------------------------

void WireTableEncoder::Encode(const Table& batch, std::string* out) {
  const size_t rows = batch.num_rows();
  const size_t cols = batch.num_columns();
  AppendLe32(out, static_cast<uint32_t>(rows));
  AppendLe32(out, static_cast<uint32_t>(cols));
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
      for (size_t r = 0; r < rows; ++r) {
        AppendLe64(out, static_cast<uint64_t>(batch.at(r, c).AsInt64()));
      }
    } else if (all_double) {
      out->push_back(static_cast<char>(WireColumnEncoding::kDoubleDense));
      for (size_t r = 0; r < rows; ++r) {
        AppendDoubleBits(out, batch.at(r, c).AsDouble());
      }
    } else if (all_string) {
      out->push_back(static_cast<char>(WireColumnEncoding::kStringDict));
      auto& dict = dicts_[c];
      // First pass: collect entries this batch introduces, in
      // first-occurrence order, so the decoder can append them to its
      // dictionary and land on identical ids.
      std::vector<const std::string*> fresh;
      for (size_t r = 0; r < rows; ++r) {
        const std::string& s = batch.at(r, c).AsString();
        if (dict.emplace(s, static_cast<uint32_t>(dict.size())).second) {
          fresh.push_back(&dict.find(s)->first);
        }
      }
      AppendLe32(out, static_cast<uint32_t>(fresh.size()));
      for (const std::string* s : fresh) AppendLengthPrefixed(out, *s);
      for (size_t r = 0; r < rows; ++r) {
        AppendLe32(out, dict.find(batch.at(r, c).AsString())->second);
      }
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
  std::vector<std::vector<Value>> columns(cols);
  for (uint32_t c = 0; c < cols; ++c) {
    uint8_t encoding = 0;
    if (!reader->ReadU8(&encoding)) return Truncated("table column");
    // Every encoding spends at least one byte per row, so a row count
    // beyond the bytes left is a lie: refuse it before sizing anything
    // from it.
    if (reader->remaining() < rows) return Truncated("table column");
    columns[c].reserve(rows);
    if (encoding == static_cast<uint8_t>(WireColumnEncoding::kInt64Dense)) {
      if (reader->remaining() / 8 < rows) return Truncated("int64 column");
      for (uint32_t r = 0; r < rows; ++r) {
        uint64_t bits = 0;
        reader->ReadU64(&bits);
        columns[c].push_back(Value::Int64(static_cast<int64_t>(bits)));
      }
    } else if (encoding ==
               static_cast<uint8_t>(WireColumnEncoding::kDoubleDense)) {
      if (reader->remaining() / 8 < rows) return Truncated("double column");
      for (uint32_t r = 0; r < rows; ++r) {
        double v = 0;
        reader->ReadDoubleBits(&v);
        columns[c].push_back(Value::Double(v));
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
      for (uint32_t r = 0; r < rows; ++r) {
        uint32_t id = 0;
        reader->ReadU32(&id);
        if (id >= dict.size()) {
          return Status::InvalidArgument(
              "wire: string dictionary id " + std::to_string(id) +
              " out of range (dictionary holds " +
              std::to_string(dict.size()) + ")");
        }
        columns[c].push_back(Value::String(dict[id]));
      }
    } else if (encoding == static_cast<uint8_t>(WireColumnEncoding::kCells)) {
      for (uint32_t r = 0; r < rows; ++r) {
        uint8_t tag = 0;
        Value cell;
        if (!ReadCell(reader, kMaxWireFrameBytes, &tag, &cell)) {
          if (!reader->ok()) return Truncated("cell column");
          return Status::InvalidArgument(
              "wire: table cell has unknown tag " + std::to_string(tag));
        }
        columns[c].push_back(std::move(cell));
      }
    } else {
      return Status::InvalidArgument(
          "wire: unknown column encoding " + std::to_string(encoding));
    }
  }
  Table table(schema_);
  for (uint32_t r = 0; r < rows; ++r) {
    Row row;
    row.reserve(cols);
    for (uint32_t c = 0; c < cols; ++c) {
      row.push_back(std::move(columns[c][r]));
    }
    PRIVMARK_RETURN_NOT_OK(table.AppendRow(std::move(row)));
  }
  return table;
}

// ---- requests ------------------------------------------------------------

std::string EncodeWireRequest(const WireRequest& request,
                              WireTableEncoder* tables) {
  std::string out;
  AppendLengthPrefixed(&out, request.session);
  if (request.type == WireFrameType::kOpen) {
    const WireOpenRequest& open = request.open;
    AppendLe64(&out, open.k);
    out.push_back(open.enforce_joint ? 1 : 0);
    out.push_back(open.auto_epsilon ? 1 : 0);
    AppendLe64(&out, open.num_threads);
    AppendLengthPrefixed(&out, open.passphrase);
    AppendLengthPrefixed(&out, open.k1);
    AppendLengthPrefixed(&out, open.k2);
    AppendLe64(&out, open.eta);
    AppendLengthPrefixed(&out, open.key_id);
    out.push_back(static_cast<char>(open.on_unbinnable));
    out.push_back(static_cast<char>(open.policy));
    AppendDoubleBits(&out, open.drift_threshold);
    return out;
  }
  if (request.type == WireFrameType::kClose) return out;
  AppendLe64(&out, request.ask);
  AppendLe64(&out, static_cast<uint64_t>(request.deadline_ms));
  if (request.type == WireFrameType::kFingerprint) {
    AppendLengthPrefixed(&out, request.registry_text);
  }
  if (request.type == WireFrameType::kFlush) return out;
  tables->Encode(request.table, &out);
  return out;
}

Result<WireRequest> DecodeWireRequest(WireFrameType type,
                                      const std::string& payload,
                                      WireTableDecoder* tables) {
  if (type == WireFrameType::kResponse) {
    return Status::InvalidArgument(
        "wire: a response frame is not a request");
  }
  WireRequest request;
  request.type = type;
  BinReader reader(payload);
  if (!reader.ReadLengthPrefixed(&request.session, kMaxNameBytes)) {
    return Truncated("session name");
  }
  if (type == WireFrameType::kOpen) {
    WireOpenRequest& open = request.open;
    open.session = request.session;
    uint8_t joint = 0;
    uint8_t auto_eps = 0;
    if (!reader.ReadU64(&open.k) || !reader.ReadU8(&joint) ||
        !reader.ReadU8(&auto_eps) || !reader.ReadU64(&open.num_threads) ||
        !reader.ReadLengthPrefixed(&open.passphrase, kMaxNameBytes) ||
        !reader.ReadLengthPrefixed(&open.k1, kMaxNameBytes) ||
        !reader.ReadLengthPrefixed(&open.k2, kMaxNameBytes) ||
        !reader.ReadU64(&open.eta) ||
        !reader.ReadLengthPrefixed(&open.key_id, kMaxNameBytes) ||
        !reader.ReadU8(&open.on_unbinnable) || !reader.ReadU8(&open.policy) ||
        !reader.ReadDoubleBits(&open.drift_threshold)) {
      return Truncated("open request");
    }
    open.enforce_joint = joint != 0;
    open.auto_epsilon = auto_eps != 0;
    if (open.on_unbinnable > 1) {
      return Status::InvalidArgument("wire: unknown unbinnable policy " +
                                     std::to_string(open.on_unbinnable));
    }
    if (open.policy > 1) {
      return Status::InvalidArgument("wire: unknown rebin policy " +
                                     std::to_string(open.policy));
    }
  } else if (type != WireFrameType::kClose) {
    uint64_t deadline_bits = 0;
    if (!reader.ReadU64(&request.ask) || !reader.ReadU64(&deadline_bits)) {
      return Truncated("request header");
    }
    request.deadline_ms = static_cast<int64_t>(deadline_bits);
    if (type == WireFrameType::kFingerprint &&
        !reader.ReadLengthPrefixed(&request.registry_text, kMaxTextBytes)) {
      return Truncated("registry");
    }
    if (type != WireFrameType::kFlush) {
      PRIVMARK_ASSIGN_OR_RETURN(request.table, tables->Decode(&reader));
    }
  }
  if (!reader.Exhausted()) {
    return Status::InvalidArgument("wire: request has trailing bytes");
  }
  return request;
}

// ---- responses -----------------------------------------------------------

std::string EncodeWireResponse(const WireResponse& response,
                               WireTableEncoder* tables) {
  std::string out;
  AppendResponseEnvelope(&out, response);
  if (!response.status.ok()) return out;
  switch (response.kind) {
    case WireFrameType::kOpen:
      out.push_back(response.open.recovered ? 1 : 0);
      AppendLe64(&out, response.open.batches_applied);
      AppendLe64(&out, response.open.epochs_sealed);
      out.push_back(response.open.tail_truncated ? 1 : 0);
      tables->Encode(response.open.emitted, &out);
      break;
    case WireFrameType::kIngest:
      AppendLe64(&out, response.ingest.epoch);
      out.push_back(response.ingest.flushed ? 1 : 0);
      AppendLe64(&out, response.ingest.rows_emitted);
      AppendLe64(&out, response.ingest.rows_suppressed);
      AppendLe64(&out, response.ingest.rows_buffered);
      tables->Encode(response.ingest.emitted, &out);
      break;
    case WireFrameType::kFlush:
      AppendLe64(&out, response.flush.epoch);
      AppendDoubleBits(&out, response.flush.identifier_statistic);
      tables->Encode(response.flush.emitted, &out);
      break;
    case WireFrameType::kDetect:
      AppendLe32(&out, static_cast<uint32_t>(response.reports.size()));
      for (const DetectReport& report : response.reports) {
        AppendDetectReport(&out, report);
      }
      break;
    case WireFrameType::kFingerprint:
      AppendFingerprintReports(&out, response.fingerprints,
                               /*with_verdicts=*/true);
      break;
    case WireFrameType::kClose:
      AppendLe64(&out, response.close.rows_ingested);
      AppendLe64(&out, response.close.rows_emitted);
      AppendLe64(&out, response.close.rows_suppressed);
      AppendLe32(&out, static_cast<uint32_t>(response.close.epochs.size()));
      for (const WireEpochSummary& epoch : response.close.epochs) {
        AppendEpochSummary(&out, epoch);
      }
      break;
    case WireFrameType::kResponse:
    case WireFrameType::kPartial:
      break;  // unreachable: kind always echoes a request type
  }
  return out;
}

Result<WireResponse> DecodeWireResponse(const std::string& payload,
                                        WireTableDecoder* tables) {
  WireResponse response;
  BinReader reader(payload);
  PRIVMARK_RETURN_NOT_OK(ReadResponseEnvelope(&reader, "response", &response));
  if (response.status.ok()) {
    switch (response.kind) {
      case WireFrameType::kOpen: {
        uint8_t recovered = 0;
        uint8_t torn = 0;
        if (!reader.ReadU8(&recovered) ||
            !reader.ReadU64(&response.open.batches_applied) ||
            !reader.ReadU64(&response.open.epochs_sealed) ||
            !reader.ReadU8(&torn)) {
          return Truncated("open response");
        }
        response.open.recovered = recovered != 0;
        response.open.tail_truncated = torn != 0;
        PRIVMARK_ASSIGN_OR_RETURN(response.open.emitted,
                                  tables->Decode(&reader));
        break;
      }
      case WireFrameType::kIngest: {
        uint8_t flushed = 0;
        if (!reader.ReadU64(&response.ingest.epoch) ||
            !reader.ReadU8(&flushed) ||
            !reader.ReadU64(&response.ingest.rows_emitted) ||
            !reader.ReadU64(&response.ingest.rows_suppressed) ||
            !reader.ReadU64(&response.ingest.rows_buffered)) {
          return Truncated("ingest response");
        }
        response.ingest.flushed = flushed != 0;
        PRIVMARK_ASSIGN_OR_RETURN(response.ingest.emitted,
                                  tables->Decode(&reader));
        break;
      }
      case WireFrameType::kFlush: {
        if (!reader.ReadU64(&response.flush.epoch) ||
            !reader.ReadDoubleBits(&response.flush.identifier_statistic)) {
          return Truncated("flush response");
        }
        PRIVMARK_ASSIGN_OR_RETURN(response.flush.emitted,
                                  tables->Decode(&reader));
        break;
      }
      case WireFrameType::kDetect: {
        uint32_t reports = 0;
        if (!reader.ReadU32(&reports)) return Truncated("detect response");
        if (reader.remaining() / 4 < reports) {
          return Truncated("detect response");
        }
        response.reports.reserve(reports);
        for (uint32_t i = 0; i < reports; ++i) {
          PRIVMARK_ASSIGN_OR_RETURN(DetectReport report,
                                    ReadDetectReport(&reader));
          response.reports.push_back(std::move(report));
        }
        break;
      }
      case WireFrameType::kFingerprint:
        PRIVMARK_RETURN_NOT_OK(ReadFingerprintReports(
            &reader, /*with_verdicts=*/true, &response.fingerprints));
        break;
      case WireFrameType::kClose: {
        uint32_t epochs = 0;
        if (!reader.ReadU64(&response.close.rows_ingested) ||
            !reader.ReadU64(&response.close.rows_emitted) ||
            !reader.ReadU64(&response.close.rows_suppressed) ||
            !reader.ReadU32(&epochs)) {
          return Truncated("close response");
        }
        if (reader.remaining() / 8 < epochs) {
          return Truncated("close response");
        }
        response.close.epochs.reserve(epochs);
        for (uint32_t i = 0; i < epochs; ++i) {
          PRIVMARK_ASSIGN_OR_RETURN(WireEpochSummary epoch,
                                    ReadEpochSummary(&reader));
          response.close.epochs.push_back(std::move(epoch));
        }
        break;
      }
      case WireFrameType::kResponse:
      case WireFrameType::kPartial:
        break;
    }
  }
  if (!reader.Exhausted()) {
    return Status::InvalidArgument("wire: response has trailing bytes");
  }
  return response;
}

// ---- streamed fingerprint responses -------------------------------------

std::string EncodeWireFingerprintShard(const FingerprintShard& shard) {
  std::string out;
  AppendLe64(&out, shard.epoch);
  AppendLe64(&out, shard.shard);
  AppendLe64(&out, shard.first_key);
  AppendLe32(&out, static_cast<uint32_t>(shard.verdicts.size()));
  for (const KeyVerdict& verdict : shard.verdicts) {
    AppendKeyVerdict(&out, verdict);
  }
  return out;
}

Result<FingerprintShard> DecodeWireFingerprintShard(
    const std::string& payload) {
  BinReader reader(payload);
  uint64_t epoch = 0;
  uint64_t ordinal = 0;
  uint64_t first_key = 0;
  uint32_t verdicts = 0;
  if (!reader.ReadU64(&epoch) || !reader.ReadU64(&ordinal) ||
      !reader.ReadU64(&first_key) || !reader.ReadU32(&verdicts)) {
    return Truncated("fingerprint shard");
  }
  if (reader.remaining() / 8 < verdicts) return Truncated("shard verdicts");
  FingerprintShard shard;
  shard.epoch = epoch;
  shard.shard = ordinal;
  shard.first_key = first_key;
  shard.verdicts.reserve(verdicts);
  for (uint32_t i = 0; i < verdicts; ++i) {
    PRIVMARK_ASSIGN_OR_RETURN(KeyVerdict verdict, ReadKeyVerdict(&reader));
    shard.verdicts.push_back(std::move(verdict));
  }
  if (!reader.Exhausted()) {
    return Status::InvalidArgument(
        "wire: fingerprint shard has trailing bytes");
  }
  return shard;
}

std::string EncodeWireResponseStreamedTails(const WireResponse& response) {
  std::string out;
  AppendResponseEnvelope(&out, response);
  if (!response.status.ok()) return out;
  AppendFingerprintReports(&out, response.fingerprints,
                           /*with_verdicts=*/false);
  return out;
}

Result<WireResponse> DecodeWireResponseStreamedTails(
    const std::string& payload) {
  WireResponse response;
  BinReader reader(payload);
  PRIVMARK_RETURN_NOT_OK(
      ReadResponseEnvelope(&reader, "streamed response", &response));
  if (response.kind != WireFrameType::kFingerprint) {
    return Status::InvalidArgument(
        "wire: streamed terminal echoes non-fingerprint kind " +
        std::to_string(static_cast<int>(response.kind)));
  }
  // Each tail's ranking length is its epoch's verdict count; the caller
  // checks its reassembled shard verdicts against it.
  if (response.status.ok()) {
    PRIVMARK_RETURN_NOT_OK(ReadFingerprintReports(
        &reader, /*with_verdicts=*/false, &response.fingerprints));
  }
  if (!reader.Exhausted()) {
    return Status::InvalidArgument(
        "wire: streamed response has trailing bytes");
  }
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
