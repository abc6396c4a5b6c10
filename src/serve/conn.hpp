// The fleet-shaped connection layer: a poll-driven, overload-safe
// NDJSON server over bf::serve::Server.
//
// One I/O thread owns every socket (accept, framing, reply flushing,
// timeouts); a small pool of worker threads runs request batches
// through Server::handle_batch. The contract, in order of importance:
//
//   * Pipelined, ordered replies without half-close. Each complete
//     request line is answered as soon as its batch completes; replies
//     come back strictly in request order per connection. A client that
//     does half-close (the PR-5 protocol) still works: the trailing
//     unterminated line is treated as a final request.
//   * Bounded everything. Admission control caps admitted-but-
//     unanswered requests at max_queue; beyond it new requests are shed
//     *immediately* with {"ok":false,"code":"shed",...} instead of
//     queueing without bound. Per-connection write backlogs are capped
//     (a client that stops reading stops being read from), request
//     lines are capped, and connection count is capped (max_conns,
//     refused with an explicit reply). The server never OOMs and never
//     stops accepting because one client is slow.
//   * Graceful degradation and drain. A peer vanishing mid-request or
//     mid-reply closes that connection only (EPIPE is a counter, not a
//     signal — see net.hpp). request_stop() (or one byte written to
//     stop_fd(), async-signal-safely, from a SIGTERM/SIGINT handler)
//     stops accepting, finishes or times out in-flight requests within
//     drain_ms, flushes, and run() returns 0.
//
// Fault points serve.net.disconnect (a parsed request forcibly drops
// its connection) and serve.net.stall (a ready write is skipped for a
// round) let the chaos suite drive the rare paths deterministically.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/net.hpp"
#include "serve/server.hpp"

namespace bf::serve {

struct NetServerOptions {
  /// Unix-domain listener path; empty disables the Unix listener.
  std::string unix_path;
  /// TCP listener port; < 0 disables TCP, 0 binds an ephemeral port
  /// (see NetServer::tcp_port()).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// listen(2) backlog for both listeners.
  int backlog = 64;
  /// Maximum simultaneously open connections; beyond it a new
  /// connection is answered with one structured error line and closed.
  std::size_t max_conns = 256;
  /// Maximum admitted-but-unanswered requests across all connections;
  /// beyond it new requests are shed with an explicit error reply.
  std::size_t max_queue = 1024;
  /// Per-connection inactivity budget (no bytes read, no bytes written,
  /// no reply delivered): exceeded connections are closed.
  int timeout_ms = 30000;
  /// Drain budget after request_stop(): in-flight requests that miss it
  /// are answered with a "timeout" error before the server exits.
  int drain_ms = 5000;
  /// Worker threads running Server::handle_batch.
  std::size_t workers = 2;
  /// Cap on one request line (longer poisons the connection).
  std::size_t max_line = LineBuffer::kDefaultMaxLine;
  /// Exit after the first accepted connection closes (bf_serve --once).
  bool once = false;
  /// Test hook: runs on the worker thread before each batch (lets the
  /// overload tests hold the queue saturated deterministically).
  std::function<void()> before_batch;
};

class NetServer {
 public:
  /// Binds every configured listener (so clients may connect as soon as
  /// the constructor returns; they are served once run() starts).
  /// Throws bf::Error when no listener is configured or a bind fails.
  NetServer(Server& server, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Serve until a stop is requested, then drain and return 0.
  int run();

  /// Thread-safe stop request (begins the drain).
  void request_stop();

  /// Writing any single byte to this fd requests a stop; write(2) is
  /// async-signal-safe, so SIGTERM/SIGINT handlers use exactly this.
  int stop_fd() const { return wake_write_fd_; }

  /// The bound TCP port (resolves tcp_port == 0), 0 when TCP is off.
  std::uint16_t tcp_port() const { return tcp_port_; }

  const NetCounters& counters() const { return counters_; }

 private:
  struct Conn;
  struct Job {
    std::uint64_t conn_id = 0;
    std::vector<std::uint64_t> seqs;
    std::vector<std::string> lines;
  };
  struct Completion {
    std::uint64_t conn_id = 0;
    std::vector<std::uint64_t> seqs;
    std::vector<std::string> replies;
  };

  void worker_loop();
  void accept_pending(int listener);
  void admit_lines(Conn& conn, std::vector<std::string>& lines);
  void handle_readable(Conn& conn);
  void flush(Conn& conn);
  void dispatch(Conn& conn);
  void deliver_completions();
  void close_conn(Conn& conn);
  void force_close(Conn& conn, bool count_disconnect);
  void begin_drain();
  void finish_drain();
  bool fully_drained() const;

  Server& server_;
  NetServerOptions options_;
  NetCounters counters_;

  std::vector<int> listeners_;
  std::uint16_t tcp_port_ = 0;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  // I/O-thread-only state.
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::size_t queued_ = 0;  ///< mirror of counters_.queue_depth
  bool draining_ = false;
  bool accepted_any_ = false;
  std::int64_t accept_cooldown_until_ms_ = 0;
  std::int64_t drain_deadline_ms_ = 0;

  // Worker hand-off.
  std::mutex jobs_mu_;
  std::condition_variable jobs_ready_;
  std::deque<Job> jobs_;
  bool workers_stop_ = false;
  std::mutex completions_mu_;
  std::vector<Completion> completions_;
  std::vector<std::thread> workers_;
};

}  // namespace bf::serve
