// Mutation sweep over the `key = value` text formats that share
// common/kv_text.h: a protection manifest with escaped labels, a
// three-key registry and an epoch seal. Every truncation prefix of each,
// and every single-byte replacement by a grammar-significant byte, must
// either fail with a typed Status or parse to a value that re-serializes
// and parses back to itself. Deterministic: the only randomness is the
// fixed-seed key material.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "core/journal.h"
#include "core/manifest.h"
#include "watermark/key_registry.h"

namespace privmark {
namespace {

struct Mutant {
  std::string text;
  std::string label;  // for failure messages
};

std::vector<Mutant> Mutants(const std::string& text) {
  static constexpr char kBytes[] = {'\n', ' ', '=', '[', ']', '\\', ',', '\0'};
  std::vector<Mutant> mutants;
  for (size_t n = 0; n < text.size(); ++n) {
    mutants.push_back({text.substr(0, n), "truncated to " + std::to_string(n)});
  }
  for (size_t i = 0; i < text.size(); ++i) {
    for (char byte : kBytes) {
      if (text[i] == byte) continue;
      std::string mutated = text;
      mutated[i] = byte;
      mutants.push_back({std::move(mutated),
                         "byte " + std::to_string(i) + " -> " +
                             ::testing::PrintToString(byte)});
    }
  }
  return mutants;
}

// Runs the sweep. `parse` returns a Result<T>; `serialize` maps T back to
// text; `same` compares two values field by field.
template <typename Parse, typename Serialize, typename Same>
void ExpectClosedUnderMutation(const std::string& text, Parse parse,
                               Serialize serialize, Same same) {
  ASSERT_TRUE(parse(text).ok()) << "the unmutated input must parse";
  size_t accepted = 0;
  size_t rejected = 0;
  for (const Mutant& mutant : Mutants(text)) {
    SCOPED_TRACE(mutant.label + ": " + ::testing::PrintToString(mutant.text));
    const auto parsed = parse(mutant.text);
    if (!parsed.ok()) {
      const StatusCode code = parsed.status().code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kAlreadyExists)
          << parsed.status().ToString();
      ++rejected;
      continue;
    }
    ++accepted;
    const std::string written = serialize(*parsed);
    const auto reparsed = parse(written);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_TRUE(same(*parsed, *reparsed));
    EXPECT_EQ(serialize(*reparsed), written);
  }
  // Both outcomes occur, so neither half of the property is vacuous.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(TextFormatPropertyTest, ManifestWithEscapedLabels) {
  ProtectionManifest manifest;
  manifest.mark_bits = 16;
  manifest.wmd_size = 40;
  manifest.copies = 2;
  manifest.epsilon = 3;
  manifest.hash = HashAlgorithm::kSha1;
  manifest.key_id = "clinic-east";
  manifest.columns.push_back(
      {"age", {"[0,25)", "[25,50)|x", "a\\b"}, {"*"}});
  manifest.columns.push_back(
      {"diagnosis", {"C1", "b|2", "trailing\\"}, {"All", "x = y"}});
  auto same = [](const ProtectionManifest& a, const ProtectionManifest& b) {
    if (a.mark_bits != b.mark_bits || a.wmd_size != b.wmd_size ||
        a.copies != b.copies || a.epsilon != b.epsilon || a.hash != b.hash ||
        a.key_id != b.key_id || a.columns.size() != b.columns.size()) {
      return false;
    }
    for (size_t c = 0; c < a.columns.size(); ++c) {
      if (a.columns[c].name != b.columns[c].name ||
          a.columns[c].ultimate_labels != b.columns[c].ultimate_labels ||
          a.columns[c].maximal_labels != b.columns[c].maximal_labels) {
        return false;
      }
    }
    return true;
  };
  ExpectClosedUnderMutation(SerializeManifest(manifest), ParseManifest,
                            SerializeManifest, same);
}

TEST(TextFormatPropertyTest, ThreeKeyRegistry) {
  Random rng(20050405);
  KeyRegistry registry;
  for (const char* name : {"alice", "bob", "clinic east"}) {
    ASSERT_TRUE(registry.Add(GenerateKey(name, 50, &rng)).ok());
  }
  auto same = [](const KeyRegistry& a, const KeyRegistry& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      const NamedKey& x = a.keys()[i];
      const NamedKey& y = b.keys()[i];
      if (x.name != y.name || x.key.k1 != y.key.k1 || x.key.k2 != y.key.k2 ||
          x.key.eta != y.key.eta) {
        return false;
      }
    }
    return true;
  };
  ExpectClosedUnderMutation(
      registry.Serialize(), KeyRegistry::Parse,
      [](const KeyRegistry& r) { return r.Serialize(); }, same);
}

TEST(TextFormatPropertyTest, EpochSeal) {
  auto same = [](const EpochSeal& a, const EpochSeal& b) {
    return a.epoch == b.epoch && a.rows_emitted == b.rows_emitted &&
           a.rows_suppressed == b.rows_suppressed;
  };
  ExpectClosedUnderMutation(
      SessionJournal::EncodeEpochSealed({12, 20000, 317}),
      SessionJournal::DecodeEpochSealed, SessionJournal::EncodeEpochSealed,
      same);
}

}  // namespace
}  // namespace privmark
