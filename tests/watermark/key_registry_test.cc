#include "watermark/key_registry.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "common/random.h"
#include "testing/temp_dir.h"

namespace privmark {
namespace {

std::string TempPath(const std::string& name) { return TestTempPath(name); }

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

TEST(GenerateKeyTest, DeterministicFromSeed) {
  Random a(42);
  Random b(42);
  const NamedKey first = GenerateKey("clinic", 50, &a);
  const NamedKey second = GenerateKey("clinic", 50, &b);
  EXPECT_EQ(first.key.k1, second.key.k1);
  EXPECT_EQ(first.key.k2, second.key.k2);
  EXPECT_EQ(first.key.eta, 50u);
  EXPECT_EQ(first.name, "clinic");
  EXPECT_EQ(first.key.k1.size(), 16u);
  EXPECT_EQ(first.key.k2.size(), 16u);
  EXPECT_NE(first.key.k1, first.key.k2);
}

TEST(GenerateKeyTest, DistinctSeedsDistinctMaterial) {
  Random a(1);
  Random b(2);
  EXPECT_NE(GenerateKey("x", 50, &a).key.k1, GenerateKey("x", 50, &b).key.k1);
}

TEST(KeyRegistryTest, AddValidatesEntries) {
  KeyRegistry registry;
  Random rng(7);
  EXPECT_TRUE(registry.Add(GenerateKey("a", 50, &rng)).ok());
  // Duplicate name.
  Status dup = registry.Add(GenerateKey("a", 50, &rng));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  // Empty name / zero eta.
  EXPECT_FALSE(registry.Add(GenerateKey("", 50, &rng)).ok());
  EXPECT_FALSE(registry.Add(GenerateKey("b", 0, &rng)).ok());
  EXPECT_EQ(registry.size(), 1u);
}

TEST(KeyRegistryTest, AddRefusesNamesTheKeyFileCannotHold) {
  // Each name would serialize into a key file that Parse refuses
  // ("x\n[key]" splits off a stray section, NUL is refused) or reads back
  // as another name ("east " loses its trailing space). Leading
  // whitespace is refused alike.
  KeyRegistry registry;
  Random rng(7);
  for (const std::string& name :
       {std::string("x\n[key]"), std::string("east "), std::string("\teast"),
        std::string("a\rb"), std::string("a\0b", 3)}) {
    const Status refused = registry.Add(GenerateKey(name, 50, &rng));
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
        << "'" << name << "': " << refused.ToString();
  }
  EXPECT_EQ(registry.size(), 0u);
  // Inner spaces stay, and what Add accepts reads back unchanged.
  ASSERT_TRUE(registry.Add(GenerateKey("clinic east", 50, &rng)).ok());
  auto parsed = KeyRegistry::Parse(registry.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ(parsed->keys()[0].name, "clinic east");
}

TEST(KeyRegistryTest, FindByName) {
  KeyRegistry registry;
  Random rng(7);
  ASSERT_TRUE(registry.Add(GenerateKey("east", 50, &rng)).ok());
  ASSERT_TRUE(registry.Add(GenerateKey("west", 60, &rng)).ok());
  ASSERT_NE(registry.Find("west"), nullptr);
  EXPECT_EQ(registry.Find("west")->key.eta, 60u);
  EXPECT_EQ(registry.Find("north"), nullptr);
}

TEST(KeyRegistryTest, SerializeParseRoundTrip) {
  KeyRegistry registry;
  Random rng(11);
  ASSERT_TRUE(registry.Add(GenerateKey("clinic-east", 50, &rng)).ok());
  ASSERT_TRUE(registry.Add(GenerateKey("clinic-west", 75, &rng)).ok());
  // Arbitrary (non-printable) key bytes must survive the hex encoding.
  ASSERT_TRUE(registry
                  .Add(NamedKey{"binary",
                                WatermarkKey{std::string("\x00\x01\xff", 3),
                                             std::string("\n = [", 5), 9}})
                  .ok());

  auto parsed = KeyRegistry::Parse(registry.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 3u);
  for (size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(parsed->keys()[i].name, registry.keys()[i].name) << i;
    EXPECT_EQ(parsed->keys()[i].key.k1, registry.keys()[i].key.k1) << i;
    EXPECT_EQ(parsed->keys()[i].key.k2, registry.keys()[i].key.k2) << i;
    EXPECT_EQ(parsed->keys()[i].key.eta, registry.keys()[i].key.eta) << i;
  }
}

TEST(KeyRegistryTest, FileRoundTrip) {
  const std::string path = TempPath("registry_roundtrip.keys");
  KeyRegistry registry;
  Random rng(13);
  ASSERT_TRUE(registry.Add(GenerateKey("east", 50, &rng)).ok());
  ASSERT_TRUE(registry.Add(GenerateKey("west", 50, &rng)).ok());
  ASSERT_TRUE(registry.WriteFile(path).ok());

  auto loaded = KeyRegistry::ReadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->keys()[0].key.k1, registry.keys()[0].key.k1);
  EXPECT_EQ(loaded->keys()[1].name, "west");
}

TEST(KeyRegistryTest, ReadMissingFileFails) {
  EXPECT_FALSE(KeyRegistry::ReadFile(TempPath("no_such.keys")).ok());
}

TEST(KeyRegistryTest, ParseRejectsEmptyFile) {
  auto parsed = KeyRegistry::Parse("");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("magic"), std::string::npos);
}

TEST(KeyRegistryTest, ParseRejectsBadMagic) {
  auto parsed = KeyRegistry::Parse("not-a-key-file\n[key]\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("not-a-key-file"),
            std::string::npos);
}

TEST(KeyRegistryTest, ParseRejectsUnsupportedVersion) {
  auto parsed = KeyRegistry::Parse("privmark-keys v2\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("version"), std::string::npos);
}

TEST(KeyRegistryTest, ParseRejectsTruncatedEntry) {
  // Entry missing its eta line — the error must name the broken entry.
  auto parsed = KeyRegistry::Parse(
      "privmark-keys v1\n"
      "[key]\n"
      "name = half-done\n"
      "k1 = 00ff\n"
      "k2 = 11ee\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("half-done"), std::string::npos);
}

TEST(KeyRegistryTest, ParseRejectsDuplicateNames) {
  auto parsed = KeyRegistry::Parse(
      "privmark-keys v1\n"
      "[key]\nname = same\nk1 = 00\nk2 = 01\neta = 5\n"
      "[key]\nname = same\nk1 = 02\nk2 = 03\neta = 5\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kAlreadyExists);
}

TEST(KeyRegistryTest, ParseRejectsMalformedLines) {
  // Unknown key inside a section.
  EXPECT_FALSE(KeyRegistry::Parse("privmark-keys v1\n[key]\nwhat = 1\n").ok());
  // Key-value line before any [key] section.
  EXPECT_FALSE(KeyRegistry::Parse("privmark-keys v1\nname = stray\n").ok());
  // Bad hex and bad eta.
  EXPECT_FALSE(
      KeyRegistry::Parse("privmark-keys v1\n[key]\nname = a\nk1 = zz\n"
                         "k2 = 00\neta = 5\n")
          .ok());
  EXPECT_FALSE(
      KeyRegistry::Parse("privmark-keys v1\n[key]\nname = a\nk1 = 00\n"
                         "k2 = 00\neta = five\n")
          .ok());
}

TEST(KeyFileTest, SingleKeyRoundTrip) {
  const std::string path = TempPath("single.key");
  Random rng(17);
  const NamedKey key = GenerateKey("recipient-9", 40, &rng);
  ASSERT_TRUE(WriteKeyFile(key, path).ok());
  auto loaded = ReadKeyFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, key.name);
  EXPECT_EQ(loaded->key.k1, key.key.k1);
  EXPECT_EQ(loaded->key.k2, key.key.k2);
  EXPECT_EQ(loaded->key.eta, key.key.eta);
}

TEST(KeyFileTest, ReadKeyFileRequiresExactlyOneEntry) {
  const std::string empty_path = TempPath("zero.keys");
  WriteText(empty_path, "privmark-keys v1\n");
  EXPECT_FALSE(ReadKeyFile(empty_path).ok());

  const std::string two_path = TempPath("two.keys");
  KeyRegistry registry;
  Random rng(19);
  ASSERT_TRUE(registry.Add(GenerateKey("a", 50, &rng)).ok());
  ASSERT_TRUE(registry.Add(GenerateKey("b", 50, &rng)).ok());
  ASSERT_TRUE(registry.WriteFile(two_path).ok());
  EXPECT_FALSE(ReadKeyFile(two_path).ok());
}

}  // namespace
}  // namespace privmark
