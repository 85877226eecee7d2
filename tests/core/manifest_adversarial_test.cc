// Adversarial manifest suite: hostile or corrupted manifest text against
// the parser, oversized files against the read cap, and injected fsync
// faults against the durable writer. Each parser case is a regression
// test for a bug class the hardened parser closes: unchecked
// std::stoull overflow (an uncaught std::out_of_range), silently
// dropped dangling escapes (a *different* label list than the writer
// serialized), and last-one-wins duplicate keys (a file the writer
// never produced parsing cleanly).

#include "core/manifest.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>

#include "common/durable_file.h"
#include "common/failpoint.h"
#include "testing/temp_dir.h"

namespace privmark {
namespace {

// Smallest manifest the parser accepts; adversarial cases splice onto it.
constexpr char kValidHeader[] =
    "privmark-manifest-version = 1\n"
    "mark_bits = 8\n"
    "wmd_size = 16\n";

std::string WithColumn(const std::string& column_lines) {
  return std::string(kValidHeader) + "[column]\n" + column_lines;
}

TEST(ManifestAdversarialTest, BaselineHeaderParses) {
  auto parsed = ParseManifest(kValidHeader);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->mark_bits, 8u);
  EXPECT_EQ(parsed->wmd_size, 16u);
}

// ---- numeric fields -------------------------------------------------------

// Pre-fix, std::stoull threw std::out_of_range past 2^64-1 and the
// exception escaped ParseManifest — a crash any peer could trigger with
// one line of text.
TEST(ManifestAdversarialTest, OverflowingNumberIsAnErrorNotACrash) {
  const std::string text =
      "privmark-manifest-version = 1\n"
      "mark_bits = 99999999999999999999999999\n"
      "wmd_size = 16\n";
  auto parsed = ParseManifest(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().ToString().find("overflow"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ManifestAdversarialTest, ExactlySizeMaxStillParses) {
  // 2^64-1 itself fits in size_t; only the next digit overflows.
  const std::string max = std::to_string(SIZE_MAX);
  EXPECT_TRUE(ParseManifest("privmark-manifest-version = 1\nmark_bits = " +
                            max + "\nwmd_size = 16\n")
                  .ok());
  EXPECT_FALSE(ParseManifest("privmark-manifest-version = 1\nmark_bits = " +
                             max + "0\nwmd_size = 16\n")
                   .ok());
}

TEST(ManifestAdversarialTest, NonDigitNumbersAreRejected) {
  // (Trailing spaces are line-trimmed before parsing, so "12 " is legal;
  // an interior space is not.)
  for (const char* bad : {"-1", "+3", "0x10", "1e3", "1 2", "１２", ""}) {
    const std::string text =
        std::string("privmark-manifest-version = 1\nmark_bits = ") + bad +
        "\nwmd_size = 16\n";
    EXPECT_FALSE(ParseManifest(text).ok()) << "accepted: '" << bad << "'";
  }
}

// ---- label-list escapes ---------------------------------------------------

// Pre-fix, a dangling '\' at the end of a label list was silently
// dropped, so a truncated manifest parsed to a different label list
// than the writer serialized — and detection then ran against the
// wrong generalization.
TEST(ManifestAdversarialTest, DanglingBackslashInLabelsIsRejected) {
  auto parsed = ParseManifest(WithColumn(
      "name = age\nultimate = a|b\\\nmaximal = root\n"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("dangling"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_FALSE(ParseManifest(WithColumn(
                   "name = age\nultimate = a\nmaximal = root\\\n"))
                   .ok());
}

TEST(ManifestAdversarialTest, LabelThatIsABackslashRoundTrips) {
  ProtectionManifest manifest;
  manifest.mark_bits = 8;
  manifest.wmd_size = 16;
  ManifestColumn column;
  column.name = "weird";
  column.ultimate_labels = {"\\", "a\\b", "trailing\\"};
  column.maximal_labels = {"|"};
  manifest.columns.push_back(column);
  auto parsed = ParseManifest(SerializeManifest(manifest));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->columns[0].ultimate_labels,
            (std::vector<std::string>{"\\", "a\\b", "trailing\\"}));
  EXPECT_EQ(parsed->columns[0].maximal_labels,
            (std::vector<std::string>{"|"}));
}

// ---- duplicate and misplaced keys -----------------------------------------

TEST(ManifestAdversarialTest, DuplicateScalarKeyIsRejected) {
  const std::string text =
      "privmark-manifest-version = 1\n"
      "mark_bits = 8\n"
      "mark_bits = 9\n"
      "wmd_size = 16\n";
  auto parsed = ParseManifest(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("duplicate"), std::string::npos);
}

TEST(ManifestAdversarialTest, DuplicateColumnKeyIsRejected) {
  EXPECT_FALSE(ParseManifest(WithColumn("name = age\nname = sex\n"
                                        "ultimate = a\nmaximal = r\n"))
                   .ok());
  // The same key in *different* [column] sections is fine.
  EXPECT_TRUE(ParseManifest(WithColumn("name = age\nultimate = a\n"
                                       "maximal = r\n[column]\nname = sex\n"
                                       "ultimate = b\nmaximal = s\n"))
                  .ok());
}

TEST(ManifestAdversarialTest, ColumnSectionsWithoutNamesAreRejected) {
  // Trailing nameless section.
  EXPECT_FALSE(
      ParseManifest(WithColumn("ultimate = a\nmaximal = r\n")).ok());
  // Nameless section followed by another section.
  EXPECT_FALSE(ParseManifest(WithColumn("ultimate = a\n[column]\n"
                                        "name = sex\nultimate = b\n"
                                        "maximal = s\n"))
                   .ok());
  // Empty name.
  EXPECT_FALSE(ParseManifest(WithColumn("name = \nultimate = a\n")).ok());
}

// The writer always emits both label lists. A section missing one was
// truncated, and its empty list would not survive being written back.
TEST(ManifestAdversarialTest, ColumnSectionsWithoutLabelListsAreRejected) {
  EXPECT_FALSE(ParseManifest(WithColumn("name = age\nultimate = a\n")).ok());
  EXPECT_FALSE(ParseManifest(WithColumn("name = age\nmaximal = r\n")).ok());
  EXPECT_FALSE(ParseManifest(WithColumn("name = age\n")).ok());
}

TEST(ManifestAdversarialTest, ColumnKeysOutsideASectionAreRejected) {
  EXPECT_FALSE(ParseManifest(std::string(kValidHeader) + "ultimate = a\n")
                   .ok());
}

TEST(ManifestAdversarialTest, StructurallyMalformedLinesAreRejected) {
  EXPECT_FALSE(
      ParseManifest(std::string(kValidHeader) + "mark_bits=8\n").ok());
  EXPECT_FALSE(
      ParseManifest(std::string(kValidHeader) + "[colum]\n").ok());
  EXPECT_FALSE(
      ParseManifest(std::string(kValidHeader) + "surprise = 1\n").ok());
  EXPECT_FALSE(
      ParseManifest(std::string(kValidHeader) + "hash = CRC32\n").ok());
  // H is SHA-1; MD5, the paper's other example, is refused by name.
  const auto md5 = ParseManifest(std::string(kValidHeader) + "hash = MD5\n");
  ASSERT_FALSE(md5.ok());
  EXPECT_EQ(md5.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(md5.status().message().find("'MD5'"), std::string::npos)
      << md5.status().ToString();
  // Scalars belong before the first section, where the writer puts them.
  EXPECT_FALSE(ParseManifest(WithColumn("name = age\nultimate = a\n"
                                        "maximal = r\ncopies = 2\n"))
                   .ok());
}

// ---- file-level caps and faults -------------------------------------------

TEST(ManifestAdversarialTest, OversizedManifestFileIsRefused) {
  const std::string path = TestTempPath("privmark_manifest_oversized.txt");
  // A syntactically valid manifest padded past the cap with comment-free
  // filler (empty lines are legal, so the size cap is what must refuse
  // it — not the parser).
  std::string text(kValidHeader);
  text.append(kMaxManifestBytes + 1 - text.size(), '\n');
  ASSERT_TRUE(WriteFileDurable(path, text).ok());
  auto loaded = ReadManifestFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().ToString().find("cap"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// The cap must refuse a file before reading it: a 2 GiB sparse file costs
// no disk, but slurping it first (as a stream read would) allocates 2 GiB,
// which the ASan allocation-cap lane turns into an abort.
TEST(ManifestAdversarialTest, HugeSparseManifestIsRefusedBeforeAnyRead) {
  const std::string path = TestTempPath("privmark_manifest_sparse.txt");
  ASSERT_TRUE(WriteFileDurable(path, kValidHeader).ok());
  ASSERT_EQ(::truncate(path.c_str(), off_t{2} << 30), 0);
  auto loaded = ReadManifestFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().ToString().find("cap"), std::string::npos)
      << loaded.status().ToString();
}

TEST(ManifestAdversarialTest, FsyncFaultSurfacesAsIOError) {
  ProtectionManifest previous;
  previous.mark_bits = 4;
  previous.wmd_size = 8;
  ProtectionManifest manifest;
  manifest.mark_bits = 8;
  manifest.wmd_size = 16;
  const std::string path = TestTempPath("privmark_manifest_fsync.txt");
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  ASSERT_TRUE(WriteFileDurable(path, SerializeManifest(previous)).ok());
  // A write fault strikes before any byte lands, an fsync fault after
  // every byte is written but before they are durable. Either way the
  // replacement is abandoned: the previous manifest survives whole and
  // no temp file is left behind.
  for (const char* point : {"file.write", "file.fsync"}) {
    ASSERT_TRUE(FailpointRegistry::Instance().Configure(point, "once:1").ok());
    const Status status = WriteFileDurable(path, SerializeManifest(manifest));
    FailpointRegistry::Instance().Reset();
    EXPECT_EQ(status.code(), StatusCode::kIOError) << point;
    EXPECT_NE(status.ToString().find(point), std::string::npos) << point;
    auto written = ReadFileCapped(path, kMaxManifestBytes);
    ASSERT_TRUE(written.ok()) << point << ": " << written.status().ToString();
    EXPECT_EQ(*written, SerializeManifest(previous)) << point;
    EXPECT_NE(::access(tmp.c_str(), F_OK), 0) << point << ": " << tmp;
  }
  // With no fault armed the same write succeeds and reads back.
  ASSERT_TRUE(WriteFileDurable(path, SerializeManifest(manifest)).ok());
  auto reread = ReadManifestFile(path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(SerializeManifest(*reread), SerializeManifest(manifest));
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0) << tmp;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace privmark
