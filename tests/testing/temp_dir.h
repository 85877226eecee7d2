// Per-test scratch directories for suites that write files.
//
// ::testing::TempDir() is shared by every test binary and every build on
// the machine, so fixed file names under it collide with whatever another
// run left behind (a stale journal makes a session open as "recovered").
// TestTempDir() is instead a fresh mkdtemp directory owned by the running
// test: created on first use, removed with its contents when the test
// ends.

#ifndef PRIVMARK_TESTS_TESTING_TEMP_DIR_H_
#define PRIVMARK_TESTS_TESTING_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace privmark {
namespace temp_dir_internal {

// Owns the running test's directory and removes it at the test's end.
class Cleaner : public ::testing::EmptyTestEventListener {
 public:
  const std::string& Dir() {
    if (dir_.empty()) {
      std::string pattern = ::testing::TempDir() + "/privmark_test_XXXXXX";
      if (::mkdtemp(pattern.data()) == nullptr) {
        ADD_FAILURE() << "mkdtemp failed under " << ::testing::TempDir();
      }
      dir_ = pattern;
    }
    return dir_;
  }

  void OnTestEnd(const ::testing::TestInfo&) override {
    if (dir_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
    dir_.clear();
  }

 private:
  std::string dir_;
};

}  // namespace temp_dir_internal

/// \brief The running test's private directory (no trailing slash). Call
/// it from the test's own thread.
inline std::string TestTempDir() {
  static temp_dir_internal::Cleaner* const cleaner = [] {
    auto* listener = new temp_dir_internal::Cleaner;
    // gtest owns appended listeners.
    ::testing::UnitTest::GetInstance()->listeners().Append(listener);
    return listener;
  }();
  return cleaner->Dir();
}

/// \brief TestTempDir() + "/" + name.
inline std::string TestTempPath(const std::string& name) {
  return TestTempDir() + "/" + name;
}

}  // namespace privmark

#endif  // PRIVMARK_TESTS_TESTING_TEMP_DIR_H_
