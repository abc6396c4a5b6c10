#include "serve/net.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.hpp"

namespace bf::serve {
namespace {

std::string errno_text() { return std::strerror(errno); }

/// listen(2) backlog of every listener. Admission control and the
/// connection cap bound the load above the kernel queue.
constexpr int kListenBacklog = 64;

}  // namespace

// ---------------------------------------------------------------------------
// line framing

bool LineBuffer::append(const char* data, std::size_t n,
                        std::vector<std::string>& out) {
  if (overflowed_) return false;
  std::size_t start = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (data[i] != '\n') continue;
    partial_.append(data + start, i - start);
    start = i + 1;
    if (!partial_.empty() && partial_.back() == '\r') partial_.pop_back();
    if (!partial_.empty()) out.push_back(std::move(partial_));
    partial_.clear();
  }
  partial_.append(data + start, n - start);
  if (partial_.size() > max_line_) {
    overflowed_ = true;
    return false;
  }
  return true;
}

bool LineBuffer::take_partial(std::string& line) {
  if (overflowed_) return false;
  if (!partial_.empty() && partial_.back() == '\r') partial_.pop_back();
  if (partial_.empty()) return false;
  line = std::move(partial_);
  partial_.clear();
  return true;
}

std::vector<std::string> split_requests(const std::string& text) {
  std::vector<std::string> lines;
  LineBuffer buffer(text.size() + 1);
  buffer.append(text.data(), text.size(), lines);
  std::string tail;
  if (buffer.take_partial(tail)) lines.push_back(std::move(tail));
  return lines;
}

// ---------------------------------------------------------------------------
// listeners

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  BF_CHECK_MSG(flags >= 0, "fcntl(F_GETFL): " << errno_text());
  BF_CHECK_MSG(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "fcntl(F_SETFL, O_NONBLOCK): " << errno_text());
}

int listen_unix(const std::string& path) {
  ignore_sigpipe();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  BF_CHECK_MSG(fd >= 0, "socket(AF_UNIX): " << errno_text());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    BF_FAIL("unix socket path too long (" << path.size() << " bytes): "
                                          << path);
  }
  path.copy(addr.sun_path, path.size());
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = errno_text();
    ::close(fd);
    BF_FAIL("cannot bind " << path << ": " << why);
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const std::string why = errno_text();
    ::close(fd);
    BF_FAIL("cannot listen on " << path << ": " << why);
  }
  set_nonblocking(fd);
  return fd;
}

int listen_tcp(const std::string& host, std::uint16_t port) {
  ignore_sigpipe();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  BF_CHECK_MSG(fd >= 0, "socket(AF_INET): " << errno_text());
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    BF_FAIL("not a numeric IPv4 address: " << host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = errno_text();
    ::close(fd);
    BF_FAIL("cannot bind " << host << ":" << port << ": " << why);
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const std::string why = errno_text();
    ::close(fd);
    BF_FAIL("cannot listen on " << host << ":" << port << ": " << why);
  }
  set_nonblocking(fd);
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  BF_CHECK_MSG(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
                   0,
               "getsockname: " << errno_text());
  return ntohs(addr.sin_port);
}

AcceptResult accept_ready(int listener, int* out_fd) {
  while (true) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd >= 0) {
      set_nonblocking(fd);
      // Latency over batching for small NDJSON replies; a Unix-domain
      // fd rejects the option harmlessly.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      *out_fd = fd;
      return AcceptResult::kAccepted;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return AcceptResult::kNone;
    // EMFILE/ENFILE (fd exhaustion), ECONNABORTED (peer gave up while
    // queued), ENOBUFS/ENOMEM: all transient — the caller backs off
    // instead of spinning on an error that will repeat immediately.
    return AcceptResult::kTransient;
  }
}

// ---------------------------------------------------------------------------
// byte I/O

int read_some(int fd, char* buf, std::size_t n) {
  while (true) {
    const ssize_t r = ::read(fd, buf, n);
    if (r > 0) return static_cast<int>(r);
    if (r == 0) return kIoEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kIoWouldBlock;
    return kIoPeerGone;
  }
}

int send_some(int fd, const char* buf, std::size_t n) {
#ifdef MSG_NOSIGNAL
  constexpr int kFlags = MSG_NOSIGNAL;
#else
  constexpr int kFlags = 0;  // ignore_sigpipe() covers this platform
#endif
  while (true) {
    const ssize_t w = ::send(fd, buf, n, kFlags);
    if (w > 0) return static_cast<int>(w);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return kIoWouldBlock;
    }
    return kIoPeerGone;
  }
}

}  // namespace bf::serve
