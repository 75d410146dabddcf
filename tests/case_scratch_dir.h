#ifndef SMILER_TESTS_CASE_SCRATCH_DIR_H_
#define SMILER_TESTS_CASE_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace smiler {

/// \brief A scratch directory private to the running test case, removed
/// when it goes out of scope.
///
/// `ctest -j` runs every case as its own process, many at once, all with
/// the same testing::TempDir(). Code that writes fixed file names there
/// (the chaos scenario's checkpoint, the round-trip files, the store's
/// segment directory) lets concurrent cases overwrite each other's files,
/// so each case gets `<TempDir>/<suite>.<name>.<pid>` instead.
class CaseScratchDir {
 public:
  CaseScratchDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/" + info->test_suite_name() + "." +
            info->name() + "." + std::to_string(::getpid());
    std::filesystem::create_directories(path_);
  }
  ~CaseScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  CaseScratchDir(const CaseScratchDir&) = delete;
  CaseScratchDir& operator=(const CaseScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace smiler

#endif  // SMILER_TESTS_CASE_SCRATCH_DIR_H_
