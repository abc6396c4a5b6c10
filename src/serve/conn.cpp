#include "serve/conn.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <fcntl.h>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"

namespace bf::serve {
namespace {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Transient-accept-failure backoff: long enough not to spin, short
/// enough that a freed descriptor is picked up promptly.
constexpr std::int64_t kAcceptBackoffMs = 50;

/// Per-connection cap on buffered unsent reply bytes; a connection over
/// the cap is not read from until it drains (backpressure).
constexpr std::size_t kMaxWriteBuffer = 4u << 20;

constexpr char kWakeStop = 's';
constexpr char kWakeCompletion = 'c';

}  // namespace

/// One reply slot per admitted request line, answered strictly FIFO:
/// slots become ready out of order (shed replies are ready at admission,
/// batch replies when the worker finishes) but are flushed in order.
struct NetServer::Conn {
  struct Slot {
    bool ready = false;
    std::string reply;
  };

  Conn(int fd_in, std::uint64_t id_in, std::size_t max_line,
       std::int64_t now)
      : fd(fd_in), id(id_in), in(max_line), last_activity_ms(now) {}

  int fd = -1;
  std::uint64_t id = 0;
  LineBuffer in;
  std::deque<Slot> slots;      ///< unanswered/unflushed replies, FIFO
  std::uint64_t front_seq = 0; ///< sequence number of slots.front()
  std::uint64_t next_seq = 0;
  /// Admitted lines waiting for the next batch (seq, request line).
  std::vector<std::pair<std::uint64_t, std::string>> backlog;
  std::size_t admitted_unanswered = 0;  ///< this conn's share of queued_
  bool job_in_flight = false;
  std::string out;            ///< rendered replies awaiting write
  std::size_t out_off = 0;
  std::int64_t last_activity_ms = 0;
  bool read_closed = false;   ///< EOF seen, poisoned, or draining
  bool dead = false;

  std::size_t unsent() const { return out.size() - out_off; }
  bool work_pending() const {
    return !slots.empty() || !backlog.empty() || job_in_flight ||
           unsent() > 0;
  }
};

NetServer::NetServer(Server& server, NetServerOptions options)
    : server_(server), options_(std::move(options)) {
  BF_CHECK_MSG(!options_.unix_path.empty() || options_.tcp_port >= 0,
               "NetServer needs a Unix path and/or a TCP port");
  BF_CHECK_MSG(options_.workers > 0, "NetServer needs at least one worker");
  ignore_sigpipe();
  int pipe_fds[2] = {-1, -1};
  BF_CHECK_MSG(::pipe(pipe_fds) == 0,
               "cannot create wake pipe: " << std::strerror(errno));
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);
  if (!options_.unix_path.empty()) {
    listeners_.push_back(listen_unix(options_.unix_path, options_.backlog));
  }
  if (options_.tcp_port >= 0) {
    const int fd = listen_tcp(options_.tcp_host,
                              static_cast<std::uint16_t>(options_.tcp_port),
                              options_.backlog);
    listeners_.push_back(fd);
    tcp_port_ = local_port(fd);
  }
}

NetServer::~NetServer() {
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    workers_stop_ = true;
  }
  jobs_ready_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  for (const int fd : listeners_) ::close(fd);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  for (auto& [id, conn] : conns_) {
    if (!conn->dead) ::close(conn->fd);
  }
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

void NetServer::request_stop() {
  const char byte = kWakeStop;
  // A full pipe already guarantees a pending wake-up; the byte value is
  // then lost, so the reader also rechecks on every wake (see run()).
  (void)!::write(wake_write_fd_, &byte, 1);
}

void NetServer::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_ready_.wait(lock,
                       [this] { return workers_stop_ || !jobs_.empty(); });
      if (workers_stop_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    if (options_.before_batch) options_.before_batch();
    std::vector<std::string> replies;
    try {
      replies = server_.handle_batch(job.lines);
    } catch (const std::exception& e) {
      replies.assign(job.lines.size(),
                     make_error_reply("", "predict_failed", e.what()));
    }
    // handle_batch is positionally aligned by contract; pad defensively
    // so a short reply vector can never wedge a connection forever.
    replies.resize(job.lines.size(),
                   make_error_reply("", "predict_failed", "missing reply"));
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      Completion done;
      done.conn_id = job.conn_id;
      done.seqs = std::move(job.seqs);
      done.replies = std::move(replies);
      completions_.push_back(std::move(done));
    }
    const char byte = kWakeCompletion;
    (void)!::write(wake_write_fd_, &byte, 1);
  }
}

void NetServer::accept_pending(int listener) {
  while (true) {
    int fd = -1;
    const AcceptResult result = accept_ready(listener, &fd);
    if (result == AcceptResult::kNone) return;
    if (result == AcceptResult::kTransient) {
      counters_.accept_errors.fetch_add(1, std::memory_order_relaxed);
      accept_cooldown_until_ms_ = now_ms() + kAcceptBackoffMs;
      BF_WARN("bf_serve: accept failed transiently ("
              << std::strerror(errno) << "); backing off "
              << kAcceptBackoffMs << "ms");
      return;
    }
    counters_.accepted.fetch_add(1, std::memory_order_relaxed);
    accepted_any_ = true;
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(fd, id, options_.max_line, now_ms());
    counters_.active_conns.fetch_add(1, std::memory_order_relaxed);
    if (conns_.size() >= options_.max_conns) {
      // Refuse loudly instead of letting the kernel backlog absorb the
      // connection silently: one structured reply, then close.
      counters_.overloaded_conns.fetch_add(1, std::memory_order_relaxed);
      Conn::Slot slot;
      slot.ready = true;
      slot.reply =
          make_error_reply("", "shed", "overloaded: connection limit reached");
      conn->slots.push_back(std::move(slot));
      conn->next_seq = 1;
      conn->read_closed = true;
    }
    Conn& ref = *conn;
    conns_.emplace(id, std::move(conn));
    flush(ref);  // the overload reply, if any, goes out immediately
  }
}

/// Admission control for freshly framed request lines. Runs on the I/O
/// thread; shedding is therefore O(1) per request with no parsing, no
/// allocation beyond the reply string, and no contention with workers.
void NetServer::admit_lines(Conn& conn, std::vector<std::string>& lines) {
  for (auto& line : lines) {
    if (conn.dead) return;
    counters_.requests.fetch_add(1, std::memory_order_relaxed);
    if (fault::should_fire(fault::points::kServeNetDisconnect)) {
      force_close(conn, true);
      return;
    }
    const bool shed = queued_ >= options_.max_queue;
    Conn::Slot slot;
    if (shed) {
      counters_.shed.fetch_add(1, std::memory_order_relaxed);
      slot.ready = true;
      slot.reply = make_error_reply("", "shed", "overloaded: request queue full");
    } else {
      conn.backlog.emplace_back(conn.next_seq, std::move(line));
      ++conn.admitted_unanswered;
      ++queued_;
      counters_.queue_depth.store(queued_, std::memory_order_relaxed);
    }
    conn.slots.push_back(std::move(slot));
    ++conn.next_seq;
  }
  lines.clear();
}

void NetServer::handle_readable(Conn& conn) {
  char buf[16384];
  std::vector<std::string> lines;
  while (!conn.dead && !conn.read_closed) {
    // Backpressure: a client that does not read its replies stops being
    // read from until the write backlog drains below the cap.
    if (conn.unsent() > kMaxWriteBuffer) break;
    const int r = read_some(conn.fd, buf, sizeof(buf));
    if (r > 0) {
      conn.last_activity_ms = now_ms();
      if (!conn.in.append(buf, static_cast<std::size_t>(r), lines)) {
        admit_lines(conn, lines);
        if (conn.dead) return;
        // Oversized request line: no resynchronisation is possible
        // inside it, so answer once and stop reading.
        Conn::Slot slot;
        slot.ready = true;
        slot.reply = make_error_reply(
            "", "malformed", "request line exceeds the size limit");
        conn.slots.push_back(std::move(slot));
        ++conn.next_seq;
        conn.read_closed = true;
        break;
      }
      admit_lines(conn, lines);
      if (conn.dead) return;
      continue;
    }
    if (r == kIoEof) {
      conn.read_closed = true;
      // Half-close compatibility: a trailing line without a newline is
      // still a request.
      std::string tail;
      if (conn.in.take_partial(tail)) {
        lines.push_back(std::move(tail));
        admit_lines(conn, lines);
        if (conn.dead) return;
      }
      break;
    }
    if (r == kIoWouldBlock) break;
    force_close(conn, true);  // kIoPeerGone
    return;
  }
  dispatch(conn);
  flush(conn);
}

void NetServer::dispatch(Conn& conn) {
  if (conn.dead || conn.job_in_flight || conn.backlog.empty()) return;
  Job job;
  job.conn_id = conn.id;
  job.seqs.reserve(conn.backlog.size());
  job.lines.reserve(conn.backlog.size());
  for (auto& [seq, line] : conn.backlog) {
    job.seqs.push_back(seq);
    job.lines.push_back(std::move(line));
  }
  conn.backlog.clear();
  conn.job_in_flight = true;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.push_back(std::move(job));
  }
  jobs_ready_.notify_one();
}

void NetServer::flush(Conn& conn) {
  if (conn.dead) return;
  while (!conn.slots.empty() && conn.slots.front().ready) {
    conn.out += conn.slots.front().reply;
    conn.out += '\n';
    conn.slots.pop_front();
    ++conn.front_seq;
    counters_.replies.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn.unsent() > 0 &&
      !fault::should_fire(fault::points::kServeNetStall)) {
    while (conn.unsent() > 0) {
      const int w =
          send_some(conn.fd, conn.out.data() + conn.out_off, conn.unsent());
      if (w > 0) {
        conn.out_off += static_cast<std::size_t>(w);
        conn.last_activity_ms = now_ms();
        continue;
      }
      if (w == kIoWouldBlock) break;
      force_close(conn, true);  // peer vanished mid-reply (EPIPE path)
      return;
    }
    if (conn.unsent() == 0) {
      conn.out.clear();
      conn.out_off = 0;
    }
  }
  if (conn.read_closed && !conn.work_pending()) {
    // Everything admitted was answered and written: orderly completion.
    close_conn(conn);
  }
}

void NetServer::deliver_completions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    done.swap(completions_);
  }
  for (auto& completion : done) {
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;
    if (it->second->dead) {
      // The peer is gone; drop the replies, but release the job so the
      // dead connection can be reclaimed (queued_ was already settled
      // when it closed).
      it->second->job_in_flight = false;
      continue;
    }
    Conn& conn = *it->second;
    conn.job_in_flight = false;
    conn.last_activity_ms = now_ms();
    for (std::size_t i = 0; i < completion.seqs.size(); ++i) {
      const std::uint64_t seq = completion.seqs[i];
      const std::size_t idx = static_cast<std::size_t>(seq - conn.front_seq);
      if (idx >= conn.slots.size()) continue;  // defensive; cannot happen
      conn.slots[idx].ready = true;
      conn.slots[idx].reply = std::move(completion.replies[i]);
      --conn.admitted_unanswered;
      --queued_;
    }
    counters_.queue_depth.store(queued_, std::memory_order_relaxed);
    dispatch(conn);
    flush(conn);
  }
}

void NetServer::close_conn(Conn& conn) {
  if (conn.dead) return;
  conn.dead = true;
  ::close(conn.fd);
  conn.fd = -1;
  queued_ -= conn.admitted_unanswered;
  conn.admitted_unanswered = 0;
  counters_.queue_depth.store(queued_, std::memory_order_relaxed);
  counters_.active_conns.fetch_sub(1, std::memory_order_relaxed);
}

void NetServer::force_close(Conn& conn, bool count_disconnect) {
  if (conn.dead) return;
  if (count_disconnect) {
    counters_.disconnects.fetch_add(1, std::memory_order_relaxed);
  }
  close_conn(conn);
}

void NetServer::begin_drain() {
  if (draining_) return;
  draining_ = true;
  drain_deadline_ms_ = now_ms() + options_.drain_ms;
  for (const int fd : listeners_) ::close(fd);
  listeners_.clear();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  // No new requests during the drain; in-flight ones finish (or hit the
  // drain deadline) and their replies still go out.
  for (auto& [id, conn] : conns_) {
    if (!conn->dead) {
      conn->read_closed = true;
      flush(*conn);
    }
  }
}

void NetServer::finish_drain() {
  for (auto& [id, conn] : conns_) {
    if (conn->dead) continue;
    bool timed_out = false;
    for (auto& slot : conn->slots) {
      if (slot.ready) continue;
      slot.ready = true;
      slot.reply =
          make_error_reply("", "timeout", "server draining: request abandoned");
      timed_out = true;
    }
    for (auto& [seq, line] : conn->backlog) {
      (void)seq;
      (void)line;
      timed_out = true;
    }
    conn->backlog.clear();
    if (timed_out) {
      counters_.timeouts.fetch_add(1, std::memory_order_relaxed);
    }
    flush(*conn);  // best effort; close regardless below
    if (!conn->dead) close_conn(*conn);
  }
}

bool NetServer::fully_drained() const {
  for (const auto& [id, conn] : conns_) {
    if (!conn->dead) return false;
  }
  return true;
}

int NetServer::run() {
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }

  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> pfd_conn_ids;
  bool stop_requested = false;
  while (true) {
    const std::int64_t now = now_ms();
    pfds.clear();
    pfd_conn_ids.clear();
    pfds.push_back({wake_read_fd_, POLLIN, 0});
    const bool accept_cooled = now >= accept_cooldown_until_ms_;
    std::size_t listeners_polled = 0;
    if (!draining_ && accept_cooled) {
      for (const int fd : listeners_) pfds.push_back({fd, POLLIN, 0});
      listeners_polled = listeners_.size();
    }
    const std::size_t conn_base = pfds.size();
    for (auto& [id, conn] : conns_) {
      if (conn->dead) continue;
      short events = 0;
      if (!conn->read_closed && conn->unsent() <= kMaxWriteBuffer) {
        events |= POLLIN;
      }
      if (conn->unsent() > 0) events |= POLLOUT;
      if (events == 0) continue;
      pfds.push_back({conn->fd, events, 0});
      pfd_conn_ids.push_back(id);
    }

    // Wake at the earliest deadline: a connection timeout, the drain
    // deadline, or the end of an accept backoff.
    std::int64_t wake_at = -1;
    for (const auto& [id, conn] : conns_) {
      if (conn->dead) continue;
      const std::int64_t deadline =
          conn->last_activity_ms + options_.timeout_ms;
      if (wake_at < 0 || deadline < wake_at) wake_at = deadline;
    }
    if (draining_ && (wake_at < 0 || drain_deadline_ms_ < wake_at)) {
      wake_at = drain_deadline_ms_;
    }
    if (!accept_cooled &&
        (wake_at < 0 || accept_cooldown_until_ms_ < wake_at)) {
      wake_at = accept_cooldown_until_ms_;
    }
    const int timeout =
        wake_at < 0 ? -1
                    : static_cast<int>(std::max<std::int64_t>(0, wake_at - now));

    const int ready = ::poll(pfds.data(), pfds.size(), timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      BF_FAIL("poll failed: " << std::strerror(errno));
    }

    if ((pfds[0].revents & POLLIN) != 0) {
      char buf[64];
      int r = 0;
      while ((r = read_some(wake_read_fd_, buf, sizeof(buf))) > 0) {
        for (int i = 0; i < r; ++i) {
          if (buf[i] == kWakeStop) stop_requested = true;
        }
      }
    }
    for (std::size_t i = 0; i < listeners_polled; ++i) {
      if ((pfds[1 + i].revents & (POLLIN | POLLERR)) != 0) {
        accept_pending(pfds[1 + i].fd);
        if (draining_) break;  // a transient error may not drain; be safe
      }
    }
    deliver_completions();
    if (stop_requested) begin_drain();

    for (std::size_t i = 0; i < pfd_conn_ids.size(); ++i) {
      const auto it = conns_.find(pfd_conn_ids[i]);
      if (it == conns_.end() || it->second->dead) continue;
      Conn& conn = *it->second;
      const short revents = pfds[conn_base + i].revents;
      if ((revents & POLLOUT) != 0) flush(conn);
      if (conn.dead) continue;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        handle_readable(conn);
      }
    }

    // Per-connection inactivity timeouts.
    const std::int64_t after = now_ms();
    for (auto& [id, conn] : conns_) {
      if (conn->dead) continue;
      if (after - conn->last_activity_ms >= options_.timeout_ms) {
        counters_.timeouts.fetch_add(1, std::memory_order_relaxed);
        close_conn(*conn);
      }
    }
    if (draining_ && after >= drain_deadline_ms_) finish_drain();

    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second->dead && !it->second->job_in_flight) {
        it = conns_.erase(it);
      } else if (it->second->dead) {
        ++it;  // wait for the worker's completion before reclaiming
      } else {
        ++it;
      }
    }

    if (draining_ && fully_drained() && conns_.empty()) break;
    if (options_.once && accepted_any_ && !draining_) {
      bool all_closed = true;
      for (const auto& [id, conn] : conns_) {
        if (!conn->dead) all_closed = false;
      }
      if (all_closed) begin_drain();
    }
  }

  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    workers_stop_ = true;
  }
  jobs_ready_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  return 0;
}

}  // namespace bf::serve
