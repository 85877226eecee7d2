#include "watermark/key_registry.h"

#include <fstream>
#include <sstream>

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

// One entry being assembled by the parser; every field must appear before
// the entry is closed by the next [key] section or end of input.
struct PendingKey {
  NamedKey entry;
  bool has_name = false;
  bool has_k1 = false;
  bool has_k2 = false;
  bool has_eta = false;
};

Status FinalizePending(PendingKey* pending, KeyRegistry* registry) {
  if (!pending->has_name || !pending->has_k1 || !pending->has_k2 ||
      !pending->has_eta) {
    return Status::InvalidArgument(
        "key file: truncated [key] entry" +
        (pending->has_name ? " '" + pending->entry.name + "'" : std::string()) +
        " (name, k1, k2 and eta are all required)");
  }
  return registry->Add(std::move(pending->entry));
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
  if (entry.name.empty()) {
    return Status::InvalidArgument("KeyRegistry: key name must not be empty");
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
  KeyRegistry registry;
  bool saw_magic = false;
  bool in_key = false;
  PendingKey pending;

  for (const std::string& raw_line : Split(text, '\n')) {
    const std::string line = Trim(raw_line);
    if (line.empty()) continue;
    if (!saw_magic) {
      // The magic line must come first; anything else is not a key file.
      if (!StartsWith(line, kMagicPrefix)) {
        return Status::InvalidArgument(
            "key file: bad magic (expected '" + std::string(kMagicPrefix) +
            "<version>', got '" + line + "')");
      }
      const std::string version = line.substr(sizeof(kMagicPrefix) - 1);
      if (version != "1") {
        return Status::InvalidArgument("key file: unsupported version " +
                                       version);
      }
      saw_magic = true;
      continue;
    }
    if (line == "[key]") {
      if (in_key) {
        PRIVMARK_RETURN_NOT_OK(FinalizePending(&pending, &registry));
      }
      pending = PendingKey{};
      in_key = true;
      continue;
    }
    const size_t eq = line.find(" = ");
    if (eq == std::string::npos) {
      return Status::InvalidArgument("key file: malformed line: " + line);
    }
    if (!in_key) {
      return Status::InvalidArgument("key file: '" + line.substr(0, eq) +
                                     "' outside a [key] section");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 3);
    if (key == "name") {
      pending.entry.name = value;
      pending.has_name = true;
    } else if (key == "k1") {
      PRIVMARK_ASSIGN_OR_RETURN(pending.entry.key.k1,
                                BytesOfHex(value, "k1"));
      pending.has_k1 = true;
    } else if (key == "k2") {
      PRIVMARK_ASSIGN_OR_RETURN(pending.entry.key.k2,
                                BytesOfHex(value, "k2"));
      pending.has_k2 = true;
    } else if (key == "eta") {
      PRIVMARK_ASSIGN_OR_RETURN(pending.entry.key.eta,
                                ParseDecimalU64(value, "key file: eta"));
      pending.has_eta = true;
    } else {
      return Status::InvalidArgument("key file: unknown key " + key);
    }
  }
  if (!saw_magic) {
    return Status::InvalidArgument("key file: empty file (missing magic)");
  }
  if (in_key) {
    PRIVMARK_RETURN_NOT_OK(FinalizePending(&pending, &registry));
  }
  return registry;
}

Status KeyRegistry::WriteFile(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  const std::string text = Serialize();
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!file) return Status::IOError("short write to '" + path + "'");
  return Status::OK();
}

Result<KeyRegistry> KeyRegistry::ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  if (size < 0) {
    return Status::IOError("cannot determine size of '" + path + "'");
  }
  if (static_cast<uint64_t>(size) > kMaxKeyFileBytes) {
    return Status::IOError("'" + path + "' is " + std::to_string(size) +
                           " bytes; key files are capped at " +
                           std::to_string(kMaxKeyFileBytes) + " bytes");
  }
  file.seekg(0, std::ios::beg);
  std::string text(static_cast<size_t>(size), '\0');
  file.read(text.data(), size);
  if (!file) {
    return Status::IOError("short read from '" + path + "'");
  }
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
