#include "core/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "crypto/keyed_hash.h"

#include "common/binenc.h"
#include "common/durable_file.h"
#include "common/failpoint.h"
#include "common/kv_text.h"
#include "common/strings.h"

namespace privmark {

namespace {

constexpr char kMagic[8] = {'P', 'R', 'V', 'M', 'W', 'A', 'L', '1'};
constexpr size_t kMagicSize = sizeof(kMagic);
// [u32 length][u32 crc][u8 type]
constexpr size_t kRecordHeaderSize = 9;

bool IsKnownRecordType(uint8_t type) {
  return type >= static_cast<uint8_t>(JournalRecordType::kConfig) &&
         type <= static_cast<uint8_t>(JournalRecordType::kEpochSealed);
}

Result<ColumnRole> RoleFromString(const std::string& text) {
  if (text == "identifying") return ColumnRole::kIdentifying;
  if (text == "quasi-categorical") return ColumnRole::kQuasiCategorical;
  if (text == "quasi-numeric") return ColumnRole::kQuasiNumeric;
  if (text == "other") return ColumnRole::kOther;
  return Status::InvalidArgument("journal: unknown column role: " + text);
}

Result<ValueType> TypeFromString(const std::string& text) {
  if (text == "null") return ValueType::kNull;
  if (text == "int64") return ValueType::kInt64;
  if (text == "double") return ValueType::kDouble;
  if (text == "string") return ValueType::kString;
  return Status::InvalidArgument("journal: unknown column type: " + text);
}

}  // namespace

// Slicing-by-8 over the reflected IEEE polynomial: table k maps a byte
// to its CRC contribution k bytes further on, so one step folds eight
// input bytes with eight lookups. Same values as the byte-at-a-time loop
// (table 0 alone), which still runs the tail.
uint32_t JournalCrc32(const void* data, size_t size) {
  using Tables = std::array<std::array<uint32_t, 256>, 8>;
  static const Tables t = [] {
    Tables tables{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      tables[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = tables[k - 1][i];
        tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
      }
    }
    return tables;
  }();
  uint32_t crc = 0xffffffffu;
  const auto* p = static_cast<const char*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = crc ^ ReadLe32(p);
    const uint32_t hi = ReadLe32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

SessionJournal::SessionJournal(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

SessionJournal::~SessionJournal() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<SessionJournal>> SessionJournal::Create(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    if (errno == EEXIST) {
      return Status::AlreadyExists("journal '" + path +
                                   "' already exists; recover from it "
                                   "instead of overwriting");
    }
    return ErrnoError("cannot create journal", path);
  }
  // Make the magic and the directory entry durable now, so the journal
  // file itself survives any crash after Create returns — only then does
  // "seal + fsync is the durability barrier" hold for a fresh journal.
  const Status synced = WriteFully(fd, kMagic, kMagicSize)
                            ? SyncFileAndDir(fd, path)
                            : ErrnoError("cannot write journal magic to", path);
  if (!synced.ok()) {
    ::close(fd);
    return synced;
  }
  return std::unique_ptr<SessionJournal>(new SessionJournal(path, fd));
}

Result<std::unique_ptr<SessionJournal>> SessionJournal::Resume(
    const std::string& path, size_t valid_bytes) {
  if (valid_bytes < kMagicSize) {
    return Status::InvalidArgument(
        "journal resume: valid prefix shorter than the magic");
  }
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return ErrnoError("cannot open journal", path);
  // Persist the truncation and (re-)persist the directory entry: the
  // original Create may have crashed between its dir fsync and the
  // crash being recovered from, and resuming is the last chance to make
  // the entry durable before new records land behind it.
  const Status synced =
      ::ftruncate(fd, static_cast<off_t>(valid_bytes)) == 0
          ? SyncFileAndDir(fd, path)
          : ErrnoError("cannot truncate journal tail of", path);
  if (!synced.ok()) {
    ::close(fd);
    return synced;
  }
  return std::unique_ptr<SessionJournal>(new SessionJournal(path, fd));
}

Status SessionJournal::AppendRecord(JournalRecordType type,
                                    const std::string& payload) {
  if (fd_ < 0) {
    return Status::IOError("journal '" + path_ + "' is not open for append");
  }
  if (broken_) {
    return Status::IOError("journal '" + path_ +
                           "' is disabled after an unrecoverable append "
                           "failure");
  }
  if (payload.size() > kMaxRecordBytes) {
    return Status::InvalidArgument("journal record of " +
                                   std::to_string(payload.size()) +
                                   " bytes exceeds the record size cap");
  }
  if (PRIVMARK_FAILPOINT("journal.append")) {
    return Status::IOError("failpoint 'journal.append' triggered for '" +
                           path_ + "'");
  }

  // Build the record once; the CRC covers it from the type byte on.
  std::string record;
  record.reserve(kRecordHeaderSize + payload.size());
  AppendLe32(&record, static_cast<uint32_t>(payload.size()));
  AppendLe32(&record, 0);  // the CRC, stored below
  record.push_back(static_cast<char>(type));
  record.append(payload);
  StoreLe32(record.data() + 4, JournalCrc32(record.data() + 8,
                                            record.size() - 8));

  const off_t start = ::lseek(fd_, 0, SEEK_END);
  if (start < 0) {
    broken_ = true;
    return ErrnoError("cannot seek journal", path_);
  }
  // A short write (injected or real, e.g. disk full) leaves a torn
  // record; roll back to the record boundary so the live journal stays
  // structurally valid. Only a failed rollback disables the journal.
  size_t to_write = record.size();
  if (PRIVMARK_FAILPOINT("journal.short_write")) to_write /= 2;
  const bool wrote =
      WriteFully(fd_, record.data(), to_write) && to_write == record.size();
  if (!wrote) {
    if (::ftruncate(fd_, start) != 0) {
      broken_ = true;
      return Status::IOError("short write to journal '" + path_ +
                             "' and rollback failed; journal disabled");
    }
    return Status::IOError("short write to journal '" + path_ +
                           "' (rolled back to the last record boundary)");
  }
  return Status::OK();
}

Status SessionJournal::AppendConfig(const FrameworkConfig& config,
                                    const SessionConfig& session) {
  return AppendRecord(JournalRecordType::kConfig,
                      EncodeConfig(config, session));
}

Status SessionJournal::AppendKeyId(const std::string& key_id) {
  return AppendRecord(JournalRecordType::kKeyId, key_id);
}

Status SessionJournal::AppendSchema(const Schema& schema) {
  for (const ColumnSpec& column : schema.columns()) {
    if (column.name.find('\n') != std::string::npos) {
      return Status::InvalidArgument(
          "journal: column name with embedded newline cannot be journaled: " +
          column.name);
    }
  }
  return AppendRecord(JournalRecordType::kSchema, EncodeSchema(schema));
}

Status SessionJournal::AppendBatch(const Table& batch) {
  return AppendRecord(JournalRecordType::kBatch, EncodeBatch(batch));
}

Status SessionJournal::AppendFlushMarker() {
  return AppendRecord(JournalRecordType::kFlushMarker, std::string());
}

Status SessionJournal::AppendEpochSealed(const EpochRecord& record) {
  PRIVMARK_RETURN_NOT_OK(AppendRecord(
      JournalRecordType::kEpochSealed,
      EncodeEpochSealed(
          {record.epoch, record.rows_emitted, record.rows_suppressed})));
  return Sync();
}

Status SessionJournal::Sync() {
  if (fd_ < 0) {
    return Status::IOError("journal '" + path_ + "' is not open for append");
  }
  if (PRIVMARK_FAILPOINT("journal.fsync")) {
    return Status::IOError("failpoint 'journal.fsync' triggered for '" +
                           path_ + "'");
  }
  if (::fsync(fd_) != 0) return ErrnoError("cannot fsync journal", path_);
  return Status::OK();
}

Result<JournalContents> SessionJournal::ReadAll(const std::string& path) {
  PRIVMARK_ASSIGN_OR_RETURN(std::string bytes,
                            ReadFileCapped(path, kUncappedRead));

  if (bytes.compare(0, kMagicSize, kMagic, kMagicSize) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a privmark session journal");
  }

  JournalContents contents;
  size_t offset = kMagicSize;
  // Stop at the first record that is short, oversized, checksum-broken,
  // or of unknown type: everything before it is the valid prefix, and a
  // crash mid-append can only have damaged the tail.
  while (bytes.size() - offset >= kRecordHeaderSize) {
    const size_t length = ReadLe32(bytes.data() + offset);
    if (length > kMaxRecordBytes) break;
    if (bytes.size() - offset - kRecordHeaderSize < length) break;
    const uint32_t expected_crc = ReadLe32(bytes.data() + offset + 4);
    const char* body = bytes.data() + offset + 8;
    if (JournalCrc32(body, 1 + length) != expected_crc) break;
    const uint8_t type = static_cast<uint8_t>(*body);
    if (!IsKnownRecordType(type)) break;
    JournalRecord record;
    record.type = static_cast<JournalRecordType>(type);
    record.payload.assign(body + 1, length);
    contents.records.push_back(std::move(record));
    offset += kRecordHeaderSize + length;
  }
  contents.valid_bytes = offset;
  contents.tail_truncated = offset < bytes.size();
  return contents;
}

std::string SessionJournal::EncodeConfig(const FrameworkConfig& config,
                                         const SessionConfig& session) {
  std::string out = "privmark-journal-config = 1\n";
  out += "k = " + std::to_string(config.binning.k) + "\n";
  out += "epsilon = " + std::to_string(config.binning.epsilon) + "\n";
  out += std::string("enforce_joint = ") +
         (config.binning.enforce_joint ? "1" : "0") + "\n";
  out += "mark_bits = " + std::to_string(config.mark_bits) + "\n";
  out += "copies = " + std::to_string(config.copies) + "\n";
  out += std::string("derive_mark = ") +
         (config.derive_mark_from_identifiers ? "1" : "0") + "\n";
  std::string mark;
  mark.reserve(config.explicit_mark.size());
  for (size_t i = 0; i < config.explicit_mark.size(); ++i) {
    mark.push_back(config.explicit_mark.Get(i) ? '1' : '0');
  }
  out += "explicit_mark = " + mark + "\n";
  out += std::string("auto_epsilon = ") + (config.auto_epsilon ? "1" : "0") +
         "\n";
  out += std::string("hash = ") + HashAlgorithmToString(config.watermark.hash) +
         "\n";
  out += std::string("policy = ") +
         (session.policy == RebinPolicy::kFreezeBins ? "freeze" : "drift") +
         "\n";
  char threshold[64];
  std::snprintf(threshold, sizeof(threshold), "%.17g",
                session.drift_threshold);
  out += std::string("drift_threshold = ") + threshold + "\n";
  return out;
}

Status SessionJournal::CheckConfig(const std::string& payload,
                                   const FrameworkConfig& config,
                                   const SessionConfig& session) {
  const std::string expected = EncodeConfig(config, session);
  if (payload == expected) return Status::OK();
  const std::vector<std::string> have = Split(payload, '\n');
  const std::vector<std::string> want = Split(expected, '\n');
  for (size_t i = 0; i < std::max(have.size(), want.size()); ++i) {
    const std::string& h = i < have.size() ? have[i] : std::string();
    const std::string& w = i < want.size() ? want[i] : std::string();
    if (h != w) {
      return Status::InvalidArgument(
          "journal config mismatch: journal records '" + h +
          "' but the supplied configuration implies '" + w + "'");
    }
  }
  return Status::InvalidArgument("journal config mismatch");
}

std::string SessionJournal::EncodeBatch(const Table& batch) {
  std::string out;
  AppendLe32(&out, static_cast<uint32_t>(batch.num_rows()));
  AppendLe32(&out, static_cast<uint32_t>(batch.num_columns()));
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      AppendCell(batch.at(r, c), &out);
    }
  }
  return out;
}

Result<Table> SessionJournal::DecodeBatch(const std::string& payload,
                                          const Schema& schema) {
  BinReader reader(payload);
  const Status truncated =
      Status::InvalidArgument("journal: batch record is truncated");
  uint32_t num_rows = 0;
  uint32_t num_cols = 0;
  if (!reader.ReadU32(&num_rows) || !reader.ReadU32(&num_cols)) {
    return truncated;
  }
  if (num_cols != schema.num_columns()) {
    return Status::InvalidArgument(
        "journal: batch record has " + std::to_string(num_cols) +
        " columns, schema has " + std::to_string(schema.num_columns()));
  }
  Table table(schema);
  for (uint32_t r = 0; r < num_rows; ++r) {
    Row row(num_cols);
    for (uint32_t c = 0; c < num_cols; ++c) {
      uint8_t tag = 0;
      if (ReadCell(&reader, payload.size(), &tag, &row[c])) continue;
      if (!reader.ok()) return truncated;
      return Status::InvalidArgument(
          "journal: batch record has unknown cell tag " + std::to_string(tag));
    }
    PRIVMARK_RETURN_NOT_OK(table.AppendRow(std::move(row)));
  }
  if (!reader.Exhausted()) {
    return Status::InvalidArgument(
        "journal: batch record has trailing bytes");
  }
  return table;
}

std::string SessionJournal::EncodeSchema(const Schema& schema) {
  std::string out;
  for (const ColumnSpec& column : schema.columns()) {
    out += std::string(ColumnRoleToString(column.role)) + "|" +
           ValueTypeToString(column.type) + "|" + column.name + "\n";
  }
  return out;
}

Result<Schema> SessionJournal::DecodeSchema(const std::string& payload) {
  Schema schema;
  for (const std::string& line : Split(payload, '\n')) {
    if (line.empty()) continue;
    const size_t first = line.find('|');
    const size_t second =
        first == std::string::npos ? std::string::npos
                                   : line.find('|', first + 1);
    if (second == std::string::npos) {
      return Status::InvalidArgument("journal: malformed schema line: " +
                                     line);
    }
    ColumnSpec spec;
    PRIVMARK_ASSIGN_OR_RETURN(spec.role, RoleFromString(line.substr(0, first)));
    PRIVMARK_ASSIGN_OR_RETURN(
        spec.type, TypeFromString(line.substr(first + 1, second - first - 1)));
    spec.name = line.substr(second + 1);
    PRIVMARK_RETURN_NOT_OK(schema.AddColumn(std::move(spec)));
  }
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("journal: schema record has no columns");
  }
  return schema;
}

std::string SessionJournal::EncodeEpochSealed(const EpochSeal& seal) {
  return "epoch = " + std::to_string(seal.epoch) + "\n" +
         "rows_emitted = " + std::to_string(seal.rows_emitted) + "\n" +
         "rows_suppressed = " + std::to_string(seal.rows_suppressed) + "\n";
}

Result<EpochSeal> SessionJournal::DecodeEpochSealed(
    const std::string& payload) {
  PRIVMARK_ASSIGN_OR_RETURN(const KvText parsed,
                            ParseKvText(payload, "journal seal"));
  if (!parsed.sections.empty() || parsed.top.Find("epoch") == nullptr) {
    return Status::InvalidArgument(
        "journal: seal record without an epoch, or with a section");
  }
  EpochSeal seal;
  for (const auto& [key, value] : parsed.top.fields) {
    size_t* field = key == "epoch"             ? &seal.epoch
                    : key == "rows_emitted"    ? &seal.rows_emitted
                    : key == "rows_suppressed" ? &seal.rows_suppressed
                                               : nullptr;
    if (field == nullptr) {
      return Status::InvalidArgument("journal: unknown seal field: " + key);
    }
    PRIVMARK_ASSIGN_OR_RETURN(
        *field, ParseDecimalU64(value, "journal: field '" + key + "'"));
  }
  return seal;
}

}  // namespace privmark
