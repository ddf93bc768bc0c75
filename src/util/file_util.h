#ifndef DFS_UTIL_FILE_UTIL_H_
#define DFS_UTIL_FILE_UTIL_H_

#include <string>
#include <string_view>

#include "util/status.h"
#include "util/statusor.h"

namespace dfs {

/// Reads a whole file as bytes. NotFound when it cannot be opened.
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Replaces `path` with `contents`: writes `path + ".tmp"`, checks the
/// write, then renames the temporary over `path`. A failed or interrupted
/// save therefore leaves `path` as it was; only the temporary can be
/// partial. Internal on a failed open, write or rename.
Status WriteFileAtomically(const std::string& path,
                           std::string_view contents);

}  // namespace dfs

#endif  // DFS_UTIL_FILE_UTIL_H_
