#ifndef DFS_SERVE_TCP_H_
#define DFS_SERVE_TCP_H_

#include <string>

#include "util/statusor.h"

namespace dfs::serve {

/// Thin POSIX TCP wrappers for the line-protocol front-end. Deliberately
/// minimal: blocking sockets, loopback-first defaults, no TLS — the
/// service is meant to sit behind a trusted edge.

/// Hard cap on one protocol line (request or response). A peer that
/// streams more than this without a newline gets its connection failed
/// with ResourceExhausted instead of growing the buffer without bound.
inline constexpr size_t kMaxLineBytes = 1 << 20;  // 1 MiB

/// A listening TCP socket.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens. `port` 0 picks an ephemeral port (see port()).
  /// `loopback_only` binds 127.0.0.1 instead of all interfaces.
  Status Listen(int port, bool loopback_only = true);

  /// The bound port (after Listen).
  int port() const { return port_; }

  /// Blocks for one client; returns the connected fd. After
  /// InterruptAccept() or Close() returns Cancelled.
  StatusOr<int> Accept() const;

  /// Wakes a concurrently blocked Accept without invalidating the fd:
  /// ::shutdown(2) only, so any thread may call this while the owner is
  /// in Accept. The owner remains responsible for Close() (closing from
  /// another thread would race Accept and risk fd reuse).
  void InterruptAccept();

  /// Closes the listening socket. Owner-only: must not run concurrently
  /// with Accept — use InterruptAccept to stop the accept loop first.
  void Close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Connects to host:port ("127.0.0.1", "::1" or a hostname); returns the
/// connected fd.
StatusOr<int> TcpConnect(const std::string& host, int port);

/// Buffered newline-delimited reader/writer over a connected fd. Owns the
/// fd and closes it on destruction.
class LineChannel {
 public:
  explicit LineChannel(int fd) : fd_(fd) {}
  ~LineChannel();

  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  /// Next line without its trailing '\n' (a final unterminated line is
  /// returned as-is). NotFound on clean EOF, Internal on I/O errors,
  /// ResourceExhausted once a line exceeds kMaxLineBytes.
  StatusOr<std::string> ReadLine();

  /// Writes `line` plus '\n'. A disconnected peer surfaces as an error
  /// (EPIPE/ECONNRESET), never as SIGPIPE.
  Status WriteLine(const std::string& line);

  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace dfs::serve

#endif  // DFS_SERVE_TCP_H_
