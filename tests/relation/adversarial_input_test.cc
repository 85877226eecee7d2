// Adversarial-input hardening for the two untrusted text readers: CSV
// tables and key files. Every case here must fail with a clean Status —
// no exceptions, no UB, no unbounded allocation — because both readers
// sit on the trust boundary (suspect tables and key material arrive from
// outside the process).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "testing/temp_dir.h"
#include "watermark/key_registry.h"

namespace privmark {
namespace {

std::string TempPath(const std::string& name) { return TestTempPath(name); }

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  ASSERT_TRUE(out.good()) << path;
}

Schema TwoColumnSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddColumn({"id", ColumnRole::kIdentifying,
                                ValueType::kString}).ok());
  EXPECT_TRUE(schema.AddColumn({"age", ColumnRole::kQuasiNumeric,
                                ValueType::kInt64}).ok());
  return schema;
}

// ---------------------------------------------------------------------------
// CSV parsing.

TEST(AdversarialCsvTest, EmbeddedNulByteIsRejected) {
  std::string csv = "id,age\nalice,30\n";
  csv[4] = '\0';
  auto table = TableFromCsv(csv, TwoColumnSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(table.status().message().find("NUL"), std::string::npos)
      << table.status().message();
}

TEST(AdversarialCsvTest, NulInsideQuotedFieldIsAlsoRejected) {
  const std::string csv = std::string("id,age\n\"al") + '\0' + "ce\",30\n";
  auto table = TableFromCsv(csv, TwoColumnSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(AdversarialCsvTest, OversizedFieldIsCappedNotBuffered) {
  // A single unterminated-looking field far past the 16 MiB cap must fail
  // with InvalidArgument once the cap trips, not grow without bound.
  std::string csv = "id,age\n";
  csv += std::string((16u << 20) + 4096, 'x');
  auto table = TableFromCsv(csv, TwoColumnSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(table.status().message().find("exceeds"), std::string::npos)
      << table.status().message();
}

TEST(AdversarialCsvTest, UnterminatedQuoteFailsCleanly) {
  auto table = TableFromCsv("id,age\n\"alice,30\n", TwoColumnSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(table.status().message().find("unterminated"), std::string::npos);
}

TEST(AdversarialCsvTest, QuoteInsideUnquotedFieldFailsCleanly) {
  auto table = TableFromCsv("id,age\nal\"ice,30\n", TwoColumnSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(AdversarialCsvTest, ArityMismatchesAreRejectedRowByRow) {
  // Short record.
  auto short_row = TableFromCsv("id,age\nalice\n", TwoColumnSchema());
  ASSERT_FALSE(short_row.ok());
  EXPECT_EQ(short_row.status().code(), StatusCode::kInvalidArgument);
  // Long record.
  auto long_row = TableFromCsv("id,age\nalice,30,extra\n", TwoColumnSchema());
  ASSERT_FALSE(long_row.ok());
  EXPECT_EQ(long_row.status().code(), StatusCode::kInvalidArgument);
  // Wrong header name.
  auto bad_header = TableFromCsv("id,years\nalice,30\n", TwoColumnSchema());
  ASSERT_FALSE(bad_header.ok());
  EXPECT_EQ(bad_header.status().code(), StatusCode::kInvalidArgument);
}

TEST(AdversarialCsvTest, BinaryGarbageFileFailsWithStatus) {
  const std::string path = TempPath("adversarial_garbage.csv");
  std::string garbage = "id,age\n";
  for (int i = 0; i < 512; ++i) {
    garbage.push_back(static_cast<char>(i % 256));
  }
  WriteText(path, garbage);
  auto table = ReadTableCsv(path, TwoColumnSchema());
  ASSERT_FALSE(table.ok());
}

TEST(AdversarialCsvTest, MissingFileIsIOErrorNotCrash) {
  auto table = ReadTableCsv(TempPath("definitely_absent.csv"),
                            TwoColumnSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
}

TEST(AdversarialCsvTest, WellFormedInputStillRoundTrips) {
  // The hardening must not reject legitimate data: quoted commas, escaped
  // quotes, and generalized labels all still parse.
  Table t(TwoColumnSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("a,\"b\""),
                           Value::String("[25,50)")}).ok());
  auto back = TableFromCsv(TableToCsv(t), TwoColumnSchema());
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->at(0, 0).AsString(), "a,\"b\"");
  EXPECT_EQ(back->at(0, 1).ToString(), "[25,50)");
}

// ---------------------------------------------------------------------------
// Key files.

std::string OneKeyText(const std::string& eta) {
  return
      "privmark-keys v1\n"
      "[key]\n"
      "name = clinic\n"
      "k1 = 00112233445566778899aabbccddeeff\n"
      "k2 = ffeeddccbbaa99887766554433221100\n"
      "eta = " + eta + "\n";
}

TEST(AdversarialKeyFileTest, EtaOverflowIsInvalidArgumentNotAnException) {
  // 2^64 == 18446744073709551616 — all digits, so the old digits-only check
  // passed it straight into std::stoull, which throws std::out_of_range.
  auto registry = KeyRegistry::Parse(OneKeyText("18446744073709551616"));
  ASSERT_FALSE(registry.ok());
  EXPECT_EQ(registry.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(registry.status().message().find("overflow"), std::string::npos)
      << registry.status().message();
}

TEST(AdversarialKeyFileTest, MaximumEtaStillParses) {
  auto registry = KeyRegistry::Parse(OneKeyText("18446744073709551615"));
  ASSERT_TRUE(registry.ok()) << registry.status().message();
  EXPECT_EQ(registry->keys()[0].key.eta, UINT64_MAX);
}

TEST(AdversarialKeyFileTest, NonNumericAndEmptyEtaAreRejected) {
  EXPECT_EQ(KeyRegistry::Parse(OneKeyText("fifty")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(KeyRegistry::Parse(OneKeyText("-1")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(KeyRegistry::Parse(OneKeyText("")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AdversarialKeyFileTest, EmbeddedNulIsRejected) {
  std::string text = OneKeyText("50");
  text[3] = '\0';
  auto registry = KeyRegistry::Parse(text);
  ASSERT_FALSE(registry.ok());
  EXPECT_EQ(registry.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(registry.status().message().find("NUL"), std::string::npos);
}

TEST(AdversarialKeyFileTest, BinaryGarbageFileFailsWithStatus) {
  const std::string path = TempPath("adversarial_garbage.keys");
  std::string garbage;
  for (int i = 0; i < 1024; ++i) {
    garbage.push_back(static_cast<char>((i * 37) % 256));
  }
  WriteText(path, garbage);
  auto registry = KeyRegistry::ReadFile(path);
  ASSERT_FALSE(registry.ok());
}

TEST(AdversarialKeyFileTest, OversizedKeyFileIsRejectedBeforeBuffering) {
  const std::string path = TempPath("adversarial_huge.keys");
  // Valid prefix followed by padding past the 1 MiB cap.
  std::string text = OneKeyText("50");
  text += std::string((1u << 20) + 1024, '\n');
  WriteText(path, text);
  auto registry = KeyRegistry::ReadFile(path);
  ASSERT_FALSE(registry.ok());
  EXPECT_EQ(registry.status().code(), StatusCode::kIOError);
  EXPECT_NE(registry.status().message().find("capped"), std::string::npos)
      << registry.status().message();
}

TEST(AdversarialKeyFileTest, TruncatedEntryAndUnknownKeysFail) {
  EXPECT_FALSE(KeyRegistry::Parse(
      "privmark-keys v1\n[key]\nname = a\n").ok());
  EXPECT_FALSE(KeyRegistry::Parse(
      OneKeyText("50") + "color = blue\n").ok());
  EXPECT_FALSE(KeyRegistry::Parse("MZ\x90\x00not a key file").ok());
}

// A field repeated inside one [key] section once parsed last-one-wins: a
// spliced "name = mallory" after alice's secret renamed the entry, and a
// second k1 silently replaced the first.
TEST(AdversarialKeyFileTest, RepeatedFieldInOneEntryIsRejected) {
  const std::string entry =
      "privmark-keys v1\n"
      "[key]\n"
      "name = alice\n"
      "k1 = 6363\n"
      "k2 = 6464\n"
      "eta = 50\n";
  for (const char* repeat :
       {"name = mallory\n", "k1 = cc\n", "k2 = dd\n", "eta = 7\n"}) {
    auto registry = KeyRegistry::Parse(entry + repeat);
    ASSERT_FALSE(registry.ok()) << repeat;
    EXPECT_EQ(registry.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(registry.status().message().find("duplicate"),
              std::string::npos)
        << registry.status().message();
  }
  // The same field in two different entries is how a registry looks.
  EXPECT_TRUE(KeyRegistry::Parse(entry + "[key]\nname = bob\nk1 = 00\n"
                                         "k2 = 11\neta = 9\n")
                  .ok());
}

TEST(AdversarialKeyFileTest, ReadKeyFileStillAcceptsAHealthyFile) {
  const std::string path = TempPath("adversarial_healthy.keys");
  Random rng(99);
  const NamedKey key = GenerateKey("clinic", 50, &rng);
  ASSERT_TRUE(WriteKeyFile(key, path).ok());
  auto back = ReadKeyFile(path);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->name, "clinic");
  EXPECT_EQ(back->key.k1, key.key.k1);
  EXPECT_EQ(back->key.eta, 50u);
}

}  // namespace
}  // namespace privmark
