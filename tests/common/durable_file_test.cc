#include "common/durable_file.h"

#include <gtest/gtest.h>

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

TEST(DurableFileTest, MissingFileAndDirectoryAreIOError) {
  EXPECT_EQ(ReadFileCapped(TestTempPath("absent.bin"), 1024).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(ReadFileCapped(TestTempDir(), kUncappedRead).status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace privmark
