// Named watermark keys and the versioned key-file format.
//
// The paper proves ownership against a single secret key, but outsourcing
// hands the same relation to N recipients, and the owner's question is
// *which* recipient leaked. Fingerprinting answers it by embedding with a
// distinct key per recipient and later scanning a suspect table against
// all of them — which needs durable, named key material. A KeyRegistry is
// that collection: ordered `NamedKey` entries (registry order is scan
// order) with unique, non-secret names; the name is what manifests record
// as the key id, never the key itself.
//
// The on-disk format follows audiowmark's gen-key/--key workflow: a text
// file with a versioned magic line, one `[key]` section per entry, and
// hex-encoded key material (k1/k2 are arbitrary byte strings). A single
// gen-key output file is simply a one-entry registry.
//
//   privmark-keys v1
//   [key]
//   name = hospital-a
//   k1 = 7f3a...
//   k2 = 09c4...
//   eta = 50

#ifndef PRIVMARK_WATERMARK_KEY_REGISTRY_H_
#define PRIVMARK_WATERMARK_KEY_REGISTRY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "watermark/watermark_key.h"

namespace privmark {

/// \brief One registry entry: the recipient-identifying name (non-secret;
/// recorded in manifests as the key id) plus the secret key material.
struct NamedKey {
  std::string name;
  WatermarkKey key;
};

/// \brief Fresh key material from an explicitly seeded Random (privmark
/// never touches global RNG state; interactive callers seed from entropy
/// they own). k1 and k2 are 16 random bytes each.
NamedKey GenerateKey(const std::string& name, uint64_t eta, Random* rng);

/// \brief An ordered collection of named keys. Registry order is scan
/// order: fingerprint verdicts index into keys() by position.
class KeyRegistry {
 public:
  /// \brief Appends an entry. InvalidArgument for an empty name or
  /// eta == 0; AlreadyExists for a duplicate name.
  Status Add(NamedKey entry);

  /// \brief The entry with this name, or nullptr.
  const NamedKey* Find(std::string_view name) const;

  const std::vector<NamedKey>& keys() const { return keys_; }
  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  /// \brief Serializes to the versioned text format above.
  std::string Serialize() const;

  /// \brief Parses the text format. Rejects a missing or foreign magic
  /// line, unsupported versions, truncated entries (a [key] section
  /// missing name/k1/k2/eta), a field repeated within one entry,
  /// malformed hex, an eta that overflows uint64, embedded NUL bytes,
  /// and duplicate names — always with a clean Status, never an
  /// exception. The line grammar is common/kv_text.h's.
  static Result<KeyRegistry> Parse(const std::string& text);

  /// \brief Writes the file durably (common/durable_file.h): it may hold
  /// the owner's only copy of the secret.
  Status WriteFile(const std::string& path) const;

  /// \brief Reads and parses a key file. Files past a 1 MiB cap are
  /// rejected with IOError before any bytes are buffered.
  static Result<KeyRegistry> ReadFile(const std::string& path);

 private:
  std::vector<NamedKey> keys_;
};

/// \brief Reads a gen-key output file: a registry holding exactly one
/// entry. InvalidArgument when the file holds zero or several keys.
Result<NamedKey> ReadKeyFile(const std::string& path);

/// \brief Writes a one-entry registry file for `key`.
Status WriteKeyFile(const NamedKey& key, const std::string& path);

}  // namespace privmark

#endif  // PRIVMARK_WATERMARK_KEY_REGISTRY_H_
