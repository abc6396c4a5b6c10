#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <exception>
#include <stdexcept>
#include <thread>

#include "serve/net.hpp"

namespace perfbench {
namespace {

/// How long outstanding replies are awaited after the last slot.
constexpr double kDrainS = 3.0;

struct Pending {
  std::uint64_t id = 0;
  Clock::time_point due;
  int key = 0;
};

/// Closes the fd when the connection goes out of scope.
struct Fd {
  int fd = -1;
  explicit Fd(int f) : fd(f) {}
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
};

/// The reply's leading {"id":N, — every reply to a request with an id
/// starts with it.
bool reply_id(std::string_view reply, std::uint64_t* id) {
  constexpr std::string_view kPrefix = "{\"id\":";
  if (reply.substr(0, kPrefix.size()) != kPrefix) return false;
  std::uint64_t v = 0;
  std::size_t i = kPrefix.size();
  if (i >= reply.size() || reply[i] < '0' || reply[i] > '9') return false;
  for (; i < reply.size() && reply[i] >= '0' && reply[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(reply[i] - '0');
  }
  *id = v;
  return true;
}

void drive_connection(const LoadSpec& spec, const ReplyChecker& check,
                      std::size_t conn, Clock::time_point t0,
                      LoadResult& out) {
  const auto& items = *spec.items;
  const double period_s = 1.0 / spec.rate;
  const auto due_of = [&](std::size_t slot) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(period_s *
                                                  static_cast<double>(slot)));
  };
  const std::size_t slots =
      static_cast<std::size_t>(spec.duration_s * spec.rate);
  const auto deadline =
      due_of(slots) + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(kDrainS));

  std::deque<Pending> pending;
  std::string outbuf;
  bf::serve::LineBuffer framer;
  std::vector<std::string> lines;
  char buf[65536];
  std::size_t next = conn;
  const auto fail = [&](const std::string& what) {
    if (out.samples.size() < 3) out.samples.push_back(what);
  };

  // A lost connection ends this connection's share of the load; what it
  // still had outstanding or unsent is counted as missing below.
  try {
    Fd sock(connect_unix(spec.socket_path, 5.0));
    bf::serve::set_nonblocking(sock.fd);
    while (true) {
      auto now = Clock::now();
      while (next < slots && due_of(next) <= now) {
        const LoadItem& item = items[(next + spec.item_offset) % items.size()];
        const auto due = due_of(next);
        for (int k = 0; k < (item.pair ? 2 : 1); ++k) {
          const std::uint64_t id = next * 2 + static_cast<std::uint64_t>(k);
          outbuf += "{\"id\":" + std::to_string(id) + "," + item.body + "}\n";
          pending.push_back({id, due, item.key});
          ++out.sent;
        }
        out.lag_us.push_back(std::chrono::duration<double, std::micro>(now - due)
                                 .count());
        next += spec.conns;
      }
      while (!outbuf.empty()) {
        const int n = bf::serve::send_some(sock.fd, outbuf.data(), outbuf.size());
        if (n == bf::serve::kIoWouldBlock) break;
        if (n < 0) throw std::runtime_error("server closed the connection");
        outbuf.erase(0, static_cast<std::size_t>(n));
      }
      if (next >= slots && pending.empty()) break;
      if (now >= deadline) break;

      const auto wake = next < slots ? due_of(next) : deadline;
      const auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::max(wake - now, Clock::duration::zero()));
      struct timespec ts {};
      ts.tv_sec = static_cast<time_t>(wait_ns.count() / 1000000000);
      ts.tv_nsec = static_cast<long>(wait_ns.count() % 1000000000);
      struct pollfd pfd {};
      pfd.fd = sock.fd;
      pfd.events = static_cast<short>(POLLIN | (outbuf.empty() ? 0 : POLLOUT));
      const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
      if (rc < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
      if (rc <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

      while (true) {
        const int n = bf::serve::read_some(sock.fd, buf, sizeof buf);
        if (n == bf::serve::kIoWouldBlock) break;
        if (n <= 0) throw std::runtime_error("server closed the connection");
        lines.clear();
        framer.append(buf, static_cast<std::size_t>(n), lines);
        const auto recv = Clock::now();
        for (const auto& reply : lines) {
          if (pending.empty()) {
            ++out.errors;
            fail("unsolicited reply: " + reply);
            continue;
          }
          const Pending p = pending.front();
          pending.pop_front();
          std::uint64_t id = 0;
          if (!reply_id(reply, &id) || id != p.id) {
            ++out.errors;
            fail("reply out of order: " + reply);
          } else if (reply.find("\"ok\":true") != std::string::npos) {
            if (check(p.key, reply)) {
              ++out.ok;
              out.latency_us.push_back(
                  std::chrono::duration<double, std::micro>(recv - p.due)
                      .count());
              out.due_s.push_back(seconds_between(t0, p.due));
              if (spec.tracer != nullptr) {
                spec.tracer->record("request", p.id + 1, p.due, recv);
              }
            } else {
              ++out.mismatches;
              fail("reply differs from in-process prediction: " + reply);
            }
          } else if (reply.find("\"code\":\"shed\"") != std::string::npos) {
            ++out.shed;
          } else {
            ++out.errors;
            fail("error reply: " + reply);
          }
        }
      }
    }
  } catch (const std::exception& e) {
    ++out.errors;
    fail("connection " + std::to_string(conn) + ": " + e.what());
  }
  out.missing += pending.size();
  // Slots never sent: the drain deadline passed or the connection failed.
  for (; next < slots; next += spec.conns) {
    const LoadItem& item = items[(next + spec.item_offset) % items.size()];
    out.missing += item.pair ? 2 : 1;
    out.sent += item.pair ? 2 : 1;
  }
}

}  // namespace

int connect_unix(const std::string& path, double timeout_s) {
  const auto t0 = Clock::now();
  while (true) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    struct sockaddr_un addr {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      ::close(fd);
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    if (seconds_since(t0) > timeout_s) {
      throw std::runtime_error("cannot connect to " + path + ": " +
                               std::strerror(errno));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

std::vector<std::string> roundtrip_all(const std::string& path,
                                       const std::vector<std::string>& lines) {
  Fd sock(connect_unix(path, 5.0));
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const int n = bf::serve::send_some(sock.fd, out.data() + off, out.size() - off);
    if (n < 0) throw std::runtime_error("send to server failed");
    off += static_cast<std::size_t>(n);
  }
  bf::serve::LineBuffer framer;
  std::vector<std::string> replies;
  char buf[65536];
  while (replies.size() < lines.size()) {
    const int n = bf::serve::read_some(sock.fd, buf, sizeof buf);
    if (n <= 0) throw std::runtime_error("server closed before replying");
    framer.append(buf, static_cast<std::size_t>(n), replies);
  }
  return replies;
}

std::string roundtrip(const std::string& path, const std::string& line) {
  return roundtrip_all(path, {line}).front();
}

LoadResult run_load(const LoadSpec& spec, const ReplyChecker& check) {
  std::vector<LoadResult> parts(spec.conns);
  // Start a little in the future so every connection is open at slot 0.
  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> threads;
  threads.reserve(spec.conns);
  for (std::size_t c = 0; c < spec.conns; ++c) {
    threads.emplace_back(
        [&, c] { drive_connection(spec, check, c, t0, parts[c]); });
  }
  for (auto& t : threads) t.join();

  LoadResult total;
  for (std::size_t c = 0; c < spec.conns; ++c) {
    auto& p = parts[c];
    total.latency_us.insert(total.latency_us.end(), p.latency_us.begin(),
                            p.latency_us.end());
    total.due_s.insert(total.due_s.end(), p.due_s.begin(), p.due_s.end());
    total.lag_us.insert(total.lag_us.end(), p.lag_us.begin(), p.lag_us.end());
    total.sent += p.sent;
    total.ok += p.ok;
    total.shed += p.shed;
    total.errors += p.errors;
    total.mismatches += p.mismatches;
    total.missing += p.missing;
    for (auto& s : p.samples) total.samples.push_back(std::move(s));
  }
  return total;
}

}  // namespace perfbench
