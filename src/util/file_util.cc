#include "util/file_util.h"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace dfs {

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFileAtomically(const std::string& path,
                           std::string_view contents) {
  const std::string tmp_path = path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) return InternalError("cannot write file: " + tmp_path);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();
  std::error_code ec;
  if (!out) {
    std::filesystem::remove(tmp_path, ec);
    return InternalError("short write: " + tmp_path);
  }
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    return InternalError("cannot rename " + tmp_path + " to " + path + ": " +
                         ec.message());
  }
  return OkStatus();
}

}  // namespace dfs
