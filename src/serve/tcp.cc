#include "serve/tcp.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dfs::serve {
namespace {

Status ErrnoError(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

}  // namespace

TcpListener::~TcpListener() { Close(); }

Status TcpListener::Listen(int port, bool loopback_only) {
  if (fd_ >= 0) return FailedPreconditionError("already listening");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return ErrnoError("socket");
  const int enable = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr =
      loopback_only ? htonl(INADDR_LOOPBACK) : htonl(INADDR_ANY);
  address.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)) <
      0) {
    const Status status = ErrnoError("bind");
    Close();
    return status;
  }
  if (::listen(fd_, SOMAXCONN) < 0) {
    const Status status = ErrnoError("listen");
    Close();
    return status;
  }
  sockaddr_in bound{};
  socklen_t length = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &length) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  return OkStatus();
}

StatusOr<int> TcpListener::Accept() const {
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) {
    if (errno == EBADF || errno == EINVAL) {
      return CancelledError("listener closed");
    }
    return ErrnoError("accept");
  }
  return client;
}

void TcpListener::InterruptAccept() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<int> TcpConnect(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &results);
  if (rc != 0 || results == nullptr) {
    return InternalError("getaddrinfo(" + host + "): " + gai_strerror(rc));
  }
  Status last_error = InternalError("no addresses for " + host);
  for (addrinfo* entry = results; entry != nullptr; entry = entry->ai_next) {
    const int fd =
        ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) {
      last_error = ErrnoError("socket");
      continue;
    }
    if (::connect(fd, entry->ai_addr, entry->ai_addrlen) == 0) {
      ::freeaddrinfo(results);
      return fd;
    }
    last_error = ErrnoError("connect");
    ::close(fd);
  }
  ::freeaddrinfo(results);
  return last_error;
}

LineChannel::~LineChannel() { Close(); }

StatusOr<std::string> LineChannel::ReadLine() {
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("read");
    }
    if (n == 0) {
      if (!buffer_.empty()) {  // final unterminated line
        std::string line = std::move(buffer_);
        buffer_.clear();
        return line;
      }
      return NotFoundError("connection closed");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    if (buffer_.size() > kMaxLineBytes) {
      buffer_.clear();
      return ResourceExhaustedError("line exceeds " +
                                    std::to_string(kMaxLineBytes) + " bytes");
    }
  }
}

Status LineChannel::WriteLine(const std::string& line) {
  std::string payload = line;
  payload.push_back('\n');
  size_t written = 0;
  while (written < payload.size()) {
    // MSG_NOSIGNAL: a peer that disconnected mid-response must surface as
    // EPIPE, not deliver SIGPIPE and kill the whole daemon.
    const ssize_t n = ::send(fd_, payload.data() + written,
                             payload.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("send");
    }
    written += static_cast<size_t>(n);
  }
  return OkStatus();
}

void LineChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace dfs::serve
