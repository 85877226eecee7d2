#include "watermark/key_registry.h"

#include "common/durable_file.h"
#include "common/kv_text.h"
#include "common/strings.h"

namespace privmark {

namespace {

constexpr char kMagicPrefix[] = "privmark-keys v";

// Key files are a handful of short text sections; anything near this cap is
// not a key file. Rejecting early keeps ReadFile from slurping a huge or
// binary blob handed to it by mistake (or on purpose).
constexpr uint64_t kMaxKeyFileBytes = 1ull << 20;

std::string RandomBytes(size_t count, Random* rng) {
  std::string bytes;
  bytes.reserve(count);
  uint64_t word = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i % 8 == 0) word = rng->Next();
    bytes.push_back(static_cast<char>(word & 0xff));
    word >>= 8;
  }
  return bytes;
}

std::string HexOf(const std::string& bytes) {
  return HexEncode(std::vector<uint8_t>(bytes.begin(), bytes.end()));
}

Result<std::string> BytesOfHex(const std::string& hex, const char* field) {
  auto bytes = HexDecode(hex);
  if (!bytes.ok()) {
    return Status::InvalidArgument(std::string("key file: field '") + field +
                                   "' is not valid hex: " + hex);
  }
  return std::string(bytes->begin(), bytes->end());
}

}  // namespace

NamedKey GenerateKey(const std::string& name, uint64_t eta, Random* rng) {
  NamedKey entry;
  entry.name = name;
  entry.key.k1 = RandomBytes(16, rng);
  entry.key.k2 = RandomBytes(16, rng);
  entry.key.eta = eta;
  return entry;
}

Status KeyRegistry::Add(NamedKey entry) {
  // The name is written into key files as `name = <name>`; one the text
  // format cannot hold would serialize into a file Parse refuses.
  if (!IsKvTextValue(entry.name)) {
    return Status::InvalidArgument(
        "KeyRegistry: key name '" + entry.name +
        "' must be non-empty, on one line, without NUL bytes or surrounding "
        "whitespace");
  }
  if (entry.key.eta == 0) {
    return Status::InvalidArgument("KeyRegistry: key '" + entry.name +
                                   "' has eta == 0");
  }
  if (Find(entry.name) != nullptr) {
    return Status::AlreadyExists("KeyRegistry: duplicate key name '" +
                                 entry.name + "'");
  }
  keys_.push_back(std::move(entry));
  return Status::OK();
}

const NamedKey* KeyRegistry::Find(std::string_view name) const {
  for (const NamedKey& entry : keys_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::string KeyRegistry::Serialize() const {
  std::string out;
  out += std::string(kMagicPrefix) + "1\n";
  for (const NamedKey& entry : keys_) {
    out += "[key]\n";
    out += "name = " + entry.name + "\n";
    out += "k1 = " + HexOf(entry.key.k1) + "\n";
    out += "k2 = " + HexOf(entry.key.k2) + "\n";
    out += "eta = " + std::to_string(entry.key.eta) + "\n";
  }
  return out;
}

Result<KeyRegistry> KeyRegistry::Parse(const std::string& text) {
  if (text.find('\0') != std::string::npos) {
    return Status::InvalidArgument(
        "key file: embedded NUL byte (not a privmark key file)");
  }
  PRIVMARK_ASSIGN_OR_RETURN(const KvText parsed,
                            ParseKvText(text, "key file", /*header_line=*/true));
  // The magic line must come first; anything else is not a key file.
  if (parsed.header.empty()) {
    return Status::InvalidArgument("key file: empty file (missing magic)");
  }
  if (!StartsWith(parsed.header, kMagicPrefix)) {
    return Status::InvalidArgument(
        "key file: bad magic (expected '" + std::string(kMagicPrefix) +
        "<version>', got '" + parsed.header + "')");
  }
  const std::string version = parsed.header.substr(sizeof(kMagicPrefix) - 1);
  if (version != "1") {
    return Status::InvalidArgument("key file: unsupported version " + version);
  }
  if (!parsed.top.fields.empty()) {
    return Status::InvalidArgument("key file: '" + parsed.top.fields[0].key +
                                   "' outside a [key] section");
  }
  KeyRegistry registry;
  for (const KvSection& section : parsed.sections) {
    const std::string* name = section.Find("name");
    const std::string* k1 = section.Find("k1");
    const std::string* k2 = section.Find("k2");
    const std::string* eta = section.Find("eta");
    // Keys are unique per section, so four fields including all four
    // keys are exactly them.
    if (section.name != "key" || section.fields.size() != 4 ||
        name == nullptr || k1 == nullptr || k2 == nullptr || eta == nullptr) {
      return Status::InvalidArgument(
          "key file: section [" + section.name + "]" +
          (name != nullptr ? " '" + *name + "'" : std::string()) +
          " is not a [key] of exactly name, k1, k2 and eta");
    }
    NamedKey entry;
    entry.name = *name;
    PRIVMARK_ASSIGN_OR_RETURN(entry.key.k1, BytesOfHex(*k1, "k1"));
    PRIVMARK_ASSIGN_OR_RETURN(entry.key.k2, BytesOfHex(*k2, "k2"));
    PRIVMARK_ASSIGN_OR_RETURN(entry.key.eta,
                              ParseDecimalU64(*eta, "key file: eta"));
    PRIVMARK_RETURN_NOT_OK(registry.Add(std::move(entry)));
  }
  return registry;
}

Status KeyRegistry::WriteFile(const std::string& path) const {
  return WriteFileDurable(path, Serialize());
}

Result<KeyRegistry> KeyRegistry::ReadFile(const std::string& path) {
  PRIVMARK_ASSIGN_OR_RETURN(const std::string text,
                            ReadFileCapped(path, kMaxKeyFileBytes));
  return Parse(text);
}

Result<NamedKey> ReadKeyFile(const std::string& path) {
  PRIVMARK_ASSIGN_OR_RETURN(KeyRegistry registry, KeyRegistry::ReadFile(path));
  if (registry.size() != 1) {
    return Status::InvalidArgument(
        "'" + path + "' holds " + std::to_string(registry.size()) +
        " keys; expected exactly one (pass a registry where one is accepted)");
  }
  return registry.keys()[0];
}

Status WriteKeyFile(const NamedKey& key, const std::string& path) {
  KeyRegistry registry;
  PRIVMARK_RETURN_NOT_OK(registry.Add(key));
  return registry.WriteFile(path);
}

}  // namespace privmark
