#include "util/file_util.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace dfs {
namespace {

// A save that cannot write its temporary fails loudly and leaves the
// existing file byte-identical; once it can, it replaces the file and
// leaves no temporary behind.
TEST(FileUtilTest, FailedWriteKeepsExistingFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_file_util_keep.bin")
          .string();
  ASSERT_TRUE(WriteFileAtomically(path, "previous state").ok());
  std::filesystem::create_directory(path + ".tmp");
  const Status status = WriteFileAtomically(path, "new state");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(ReadFileToString(path).value(), "previous state");

  std::filesystem::remove(path + ".tmp");
  const std::string binary("new\0state", 9);
  ASSERT_TRUE(WriteFileAtomically(path, binary).ok());
  EXPECT_EQ(ReadFileToString(path).value(), binary);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dfs
