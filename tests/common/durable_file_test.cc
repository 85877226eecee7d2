#include "common/durable_file.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <string>

#include "testing/temp_dir.h"

namespace privmark {
namespace {

TEST(DurableFileTest, WrittenBytesReadBackExactly) {
  const std::string path = TestTempPath("round_trip.bin");
  const std::string contents("line\n\0binary\xff", 13);
  ASSERT_TRUE(WriteFileDurable(path, contents).ok());
  auto read = ReadFileCapped(path, contents.size());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, contents);
  auto uncapped = ReadFileCapped(path, kUncappedRead);
  ASSERT_TRUE(uncapped.ok());
  EXPECT_EQ(*uncapped, contents);
}

TEST(DurableFileTest, EmptyFileReadsAsEmpty) {
  const std::string path = TestTempPath("empty.bin");
  ASSERT_TRUE(WriteFileDurable(path, "").ok());
  auto read = ReadFileCapped(path, 0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->empty());
}

TEST(DurableFileTest, FileOverTheCapIsIOErrorNamingTheCap) {
  const std::string path = TestTempPath("over.bin");
  ASSERT_TRUE(WriteFileDurable(path, "12345").ok());
  auto read = ReadFileCapped(path, 4);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
  EXPECT_NE(read.status().message().find("is 5 bytes"), std::string::npos)
      << read.status().message();
  EXPECT_NE(read.status().message().find("capped at 4 bytes"),
            std::string::npos)
      << read.status().message();
}

TEST(DurableFileTest, RewriteReplacesContentsAndLeavesNoTempFile) {
  const std::string path = TestTempPath("rewrite.bin");
  ASSERT_TRUE(WriteFileDurable(path, "a longer first version").ok());
  ASSERT_TRUE(WriteFileDurable(path, "second").ok());
  auto read = ReadFileCapped(path, kUncappedRead);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, "second");
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0) << tmp;
}

TEST(DurableFileTest, RewriteKeepsThePermissionBits) {
  const std::string path = TestTempPath("private.key");
  ASSERT_TRUE(WriteFileDurable(path, "secret v1").ok());
  ASSERT_EQ(::chmod(path.c_str(), 0600), 0);
  ASSERT_TRUE(WriteFileDurable(path, "secret v2").ok());
  struct stat info;
  ASSERT_EQ(::stat(path.c_str(), &info), 0);
  EXPECT_EQ(info.st_mode & 07777, 0600u);
}

TEST(DurableFileTest, WriteIntoMissingDirectoryIsIOErrorAndCreatesNothing) {
  const std::string path = TestTempPath("no-such-dir/file.bin");
  const Status status = WriteFileDurable(path, "bytes");
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(DurableFileTest, MissingFileAndDirectoryAreIOError) {
  EXPECT_EQ(ReadFileCapped(TestTempPath("absent.bin"), 1024).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(ReadFileCapped(TestTempDir(), kUncappedRead).status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace privmark
