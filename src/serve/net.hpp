// bf::serve networking primitives: the portable-POSIX substrate the
// connection layer (serve/conn.hpp) is built on.
//
// Three concerns live here, deliberately below any knowledge of the
// request protocol:
//
//   * NDJSON line framing. LineBuffer turns an arbitrary byte stream
//     into complete request lines incrementally (CR stripped, blank
//     lines dropped, a bounded maximum line length), so pipelined
//     clients are answered line-by-line without waiting for EOF.
//     split_requests() is the whole-buffer convenience used by the
//     stdin/batch paths and shares the exact same line semantics.
//
//   * Listener setup. listen_unix()/listen_tcp() create non-blocking
//     listeners with a listen(2) backlog of 64; accept_ready() drains one
//     ready listener EINTR-safely and classifies transient failures
//     (EMFILE/ENFILE/ECONNABORTED) so the event loop can back off
//     instead of spinning hot on a failing accept.
//
//   * EINTR/EPIPE-safe byte I/O. read_some()/send_some() never raise
//     SIGPIPE (MSG_NOSIGNAL; ignore_sigpipe() covers the paths the flag
//     cannot) and collapse errno handling into three caller-visible
//     outcomes: progress, would-block, and peer-gone.
//
// Everything here is single-purpose and synchronous; policy (admission
// control, timeouts, draining) lives one layer up in serve/conn.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bf::serve {

/// Incremental NDJSON line framer. Bytes go in via append(); complete
/// lines come out with the trailing '\n' removed, a final '\r' stripped
/// (CRLF clients) and blank lines dropped. A line longer than max_line
/// bytes marks the buffer overflowed — the caller should answer with a
/// structured error and close, since resynchronising inside an
/// arbitrarily long line is not possible.
class LineBuffer {
 public:
  explicit LineBuffer(std::size_t max_line = kDefaultMaxLine) noexcept
      : max_line_(max_line) {}

  /// Append raw bytes, moving every completed line into `out`.
  /// Returns false when the partial line exceeded max_line (the buffer
  /// is poisoned; no further lines are produced).
  bool append(const char* data, std::size_t n, std::vector<std::string>& out);

  /// EOF semantics: a trailing unterminated line is still a request
  /// (clients that half-close without a final newline). Returns true
  /// and fills `line` when a non-blank partial was pending.
  bool take_partial(std::string& line);

  /// Bytes buffered waiting for a terminating newline.
  std::size_t pending() const { return partial_.size(); }

  bool overflowed() const { return overflowed_; }

  static constexpr std::size_t kDefaultMaxLine = 1 << 20;

 private:
  std::string partial_;
  std::size_t max_line_;
  bool overflowed_ = false;
};

/// Split a whole request buffer into lines with LineBuffer's semantics
/// (CR stripped, blanks dropped, trailing newline-less line kept).
std::vector<std::string> split_requests(const std::string& text);

/// Counters shared between the event loop, its workers and stats
/// readers (the `{"cmd":"stats"}` reply). All fields are monotonic
/// except queue_depth and active_conns, which track current occupancy.
struct NetCounters {
  std::atomic<std::uint64_t> accepted{0};       ///< connections accepted
  std::atomic<std::uint64_t> active_conns{0};   ///< currently open
  std::atomic<std::uint64_t> requests{0};       ///< request lines read
  std::atomic<std::uint64_t> replies{0};        ///< reply lines delivered
  std::atomic<std::uint64_t> shed{0};           ///< requests refused by admission control
  std::atomic<std::uint64_t> timeouts{0};       ///< connections closed by a timeout
  std::atomic<std::uint64_t> disconnects{0};    ///< peers that vanished mid-stream
  std::atomic<std::uint64_t> overloaded_conns{0};  ///< connections refused at max_conns
  std::atomic<std::uint64_t> accept_errors{0};  ///< transient accept failures
  std::atomic<std::uint64_t> queue_depth{0};    ///< admitted, unanswered requests
};

/// Process-wide SIGPIPE immunity: a client closing mid-write must
/// surface as EPIPE from send(), never as a process-killing signal.
/// Idempotent; called by every listener constructor and by the tools.
void ignore_sigpipe();

/// Put an fd into non-blocking mode; throws bf::Error on failure.
void set_nonblocking(int fd);

/// Create a non-blocking Unix-domain listener at `path` (any stale
/// socket file is replaced). Throws bf::Error with errno context.
int listen_unix(const std::string& path);

/// Create a non-blocking TCP listener on host:port (numeric IPv4 host;
/// port 0 picks an ephemeral port). Throws bf::Error with errno context.
int listen_tcp(const std::string& host, std::uint16_t port);

/// The port a TCP listener actually bound (resolves port 0).
std::uint16_t local_port(int fd);

/// One accept() attempt on a non-blocking listener.
enum class AcceptResult {
  kAccepted,   ///< *out_fd holds a new non-blocking connection
  kNone,       ///< nothing pending (EAGAIN) — go back to poll
  kTransient,  ///< EMFILE/ENFILE/ECONNABORTED/...: log, back off, retry
};
AcceptResult accept_ready(int listener, int* out_fd);

/// Byte-I/O outcomes for non-blocking sockets.
inline constexpr int kIoEof = 0;         ///< orderly peer shutdown (read)
inline constexpr int kIoWouldBlock = -1; ///< EAGAIN — wait for poll
inline constexpr int kIoPeerGone = -2;   ///< ECONNRESET/EPIPE/any hard error

/// Read up to n bytes; returns bytes read (> 0), kIoEof, kIoWouldBlock
/// or kIoPeerGone. EINTR is retried internally.
int read_some(int fd, char* buf, std::size_t n);

/// Send up to n bytes without ever raising SIGPIPE; returns bytes
/// written (> 0), kIoWouldBlock or kIoPeerGone. EINTR is retried.
int send_some(int fd, const char* buf, std::size_t n);

}  // namespace bf::serve
