// bf_loadgen — a load-generation harness for bf_serve's socket modes.
//
// Opens N concurrent connections to a running server (Unix or TCP),
// replays a request trace (or synthesizes one with log-uniform sizes),
// paces it to a target QPS, and measures what actually happened:
//
//   bf_loadgen --socket /tmp/bf.sock --model reduce1
//              --requests 400 --conns 8 --qps 200
//              --slow 1 --disconnect 1 --out BENCH_serve.json
//
// The report (BENCH_serve.json) carries achieved QPS, p50/p95/p99/max
// latency, the shed fraction and the chaos-client outcomes — the repo's
// serving-throughput trajectory artifact. Beyond the well-behaved
// clients, --slow adds clients that dribble a request byte-by-byte
// (they must not stall anyone else) and --disconnect adds clients that
// hang up mid-request (they must not kill the server); both run
// concurrently with the measured traffic and are excluded from the
// latency percentiles.
//
// Exit status: 0 when at least one request got an ok reply.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"
#include "serve/net.hpp"

namespace {

using namespace bf;
using Clock = std::chrono::steady_clock;

void usage() {
  std::printf(
      "usage: bf_loadgen (--socket PATH | --tcp HOST:PORT) [options]\n"
      "  --model NAME      model for synthesized requests (default reduce1)\n"
      "  --models A,B,...  round-robin synthesized requests over several\n"
      "                    models (cache-thrash traffic; overrides --model)\n"
      "  --requests N      total measured requests (default 200)\n"
      "  --conns N         concurrent connections (default 4)\n"
      "  --qps Q           target requests/second, 0 = unpaced (default 0)\n"
      "  --size-min N      smallest synthesized size (default 16384)\n"
      "  --size-max N      largest synthesized size (default 4194304)\n"
      "  --trace FILE      replay request lines from FILE instead of\n"
      "                    synthesizing (round-robin across connections)\n"
      "  --slow N          additional deliberately slow clients that\n"
      "                    dribble one request byte-by-byte (default 0)\n"
      "  --disconnect N    additional clients that hang up mid-request\n"
      "                    (default 0)\n"
      "  --timeout-ms N    per-reply client timeout (default 10000)\n"
      "  --seed N          RNG seed for sizes (default 1)\n"
      "  --oneshot LINE    send one request line, print the reply, exit\n"
      "                    (exit 0 iff the reply says \"ok\":true);\n"
      "                    admin-verb helper for reload e2e harnesses\n"
      "  --reload-churn N  rewrite the --churn-file bundle every N ms\n"
      "                    while the measured load runs (hot-reload churn;\n"
      "                    0 = off)\n"
      "  --churn-file P    bundle path the churn thread rewrites\n"
      "  --churn-src A,B   alternate source bundles cycled into\n"
      "                    --churn-file (default: rewrite its own bytes)\n"
      "  --out FILE        report path (default BENCH_serve.json)\n"
      "  --stats-out FILE  after the run, fetch {\"cmd\":\"stats\"} over a\n"
      "                    fresh connection and write the reply to FILE\n"
      "  --version         print the build identity and exit\n");
}

struct Args {
  std::string socket_path;
  std::string tcp_host;
  int tcp_port = -1;
  std::string model = "reduce1";
  std::vector<std::string> models;
  std::size_t requests = 200;
  std::size_t conns = 4;
  double qps = 0.0;
  double size_min = 16384.0;
  double size_max = 4194304.0;
  std::string trace_path;
  std::size_t slow = 0;
  std::size_t disconnect = 0;
  int timeout_ms = 10000;
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_serve.json";
  std::string stats_out_path;
  std::string oneshot;
  std::size_t reload_churn_ms = 0;
  std::string churn_file;
  std::vector<std::string> churn_src;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      BF_CHECK_MSG(i + 1 < argc, "missing value for " << a);
      return argv[++i];
    };
    if (a == "--socket") {
      args.socket_path = next();
    } else if (a == "--tcp") {
      const std::string spec = next();
      const std::size_t colon = spec.rfind(':');
      BF_CHECK_MSG(colon != std::string::npos, "--tcp needs HOST:PORT");
      args.tcp_host = spec.substr(0, colon);
      args.tcp_port = static_cast<int>(parse_int(spec.substr(colon + 1)));
    } else if (a == "--model") {
      args.model = next();
    } else if (a == "--models") {
      args.models = split(next(), ',');
      BF_CHECK_MSG(!args.models.empty(), "--models needs at least one name");
    } else if (a == "--requests") {
      args.requests = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--conns") {
      args.conns = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--qps") {
      args.qps = parse_double(next());
    } else if (a == "--size-min") {
      args.size_min = parse_double(next());
    } else if (a == "--size-max") {
      args.size_max = parse_double(next());
    } else if (a == "--trace") {
      args.trace_path = next();
    } else if (a == "--slow") {
      args.slow = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--disconnect") {
      args.disconnect = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--timeout-ms") {
      args.timeout_ms = static_cast<int>(parse_int(next()));
    } else if (a == "--seed") {
      args.seed = static_cast<std::uint64_t>(parse_int(next()));
    } else if (a == "--out") {
      args.out_path = next();
    } else if (a == "--stats-out") {
      args.stats_out_path = next();
    } else if (a == "--oneshot") {
      args.oneshot = next();
    } else if (a == "--reload-churn") {
      args.reload_churn_ms = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--churn-file") {
      args.churn_file = next();
    } else if (a == "--churn-src") {
      args.churn_src = split(next(), ',');
    } else if (a == "--version") {
      std::printf("%s\n", bf::version_string().c_str());
      std::exit(0);
    } else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else {
      BF_FAIL("unknown option: " << a);
    }
  }
  BF_CHECK_MSG(!args.socket_path.empty() || args.tcp_port >= 0,
               "need --socket PATH or --tcp HOST:PORT");
  BF_CHECK_MSG(args.conns > 0, "--conns must be positive");
  return args;
}

int connect_target(const Args& args) {
  if (!args.socket_path.empty()) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    BF_CHECK_MSG(fd >= 0, "socket(AF_UNIX): " << std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    BF_CHECK_MSG(args.socket_path.size() < sizeof(addr.sun_path),
                 "socket path too long: " << args.socket_path);
    args.socket_path.copy(addr.sun_path, args.socket_path.size());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      BF_FAIL("cannot connect to " << args.socket_path << ": " << why);
    }
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  BF_CHECK_MSG(fd >= 0, "socket(AF_INET): " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(args.tcp_port));
  if (::inet_pton(AF_INET, args.tcp_host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    BF_FAIL("not a numeric IPv4 address: " << args.tcp_host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    BF_FAIL("cannot connect to " << args.tcp_host << ":" << args.tcp_port
                                 << ": " << why);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Blocking NDJSON client: send whole lines, read one reply line with a
/// deadline. Measured clients run one in-flight request at a time, so a
/// simple read-until-newline buffer suffices.
class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept : fd_(other.fd_), buf_(std::move(other.buf_)) {
    other.fd_ = -1;
  }

  bool send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const int w = serve::send_some(fd_, data.data() + off,
                                     data.size() - off);
      if (w > 0) {
        off += static_cast<std::size_t>(w);
        continue;
      }
      if (w == serve::kIoWouldBlock) continue;  // blocking fd: cannot happen
      return false;
    }
    return true;
  }

  /// Read one '\n'-terminated line (stripped), waiting up to timeout_ms.
  bool read_line(std::string& line, int timeout_ms) {
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      char chunk[4096];
      const int r = serve::read_some(fd_, chunk, sizeof(chunk));
      if (r > 0) {
        buf_.append(chunk, static_cast<std::size_t>(r));
        continue;
      }
      if (r == serve::kIoWouldBlock) continue;
      return false;  // EOF or peer gone without a complete line
    }
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
  std::string buf_;
};

struct Outcome {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> no_reply{0};
};

void classify(const std::string& reply, Outcome& outcome) {
  if (reply.find("\"ok\":true") != std::string::npos) {
    outcome.ok.fetch_add(1, std::memory_order_relaxed);
  } else if (reply.find("\"code\":\"shed\"") != std::string::npos) {
    outcome.shed.fetch_add(1, std::memory_order_relaxed);
  } else {
    outcome.errors.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string percentile_block(std::vector<double>& sorted_ms) {
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const auto rank = [&](double p) -> double {
    if (sorted_ms.empty()) return 0.0;
    const double idx = p * static_cast<double>(sorted_ms.size());
    std::size_t i = static_cast<std::size_t>(idx);
    if (i >= sorted_ms.size()) i = sorted_ms.size() - 1;
    return sorted_ms[i];
  };
  double sum = 0.0;
  for (const double v : sorted_ms) sum += v;
  const double mean =
      sorted_ms.empty() ? 0.0 : sum / static_cast<double>(sorted_ms.size());
  std::ostringstream os;
  os << "{\"p50\":" << rank(0.50) << ",\"p95\":" << rank(0.95)
     << ",\"p99\":" << rank(0.99)
     << ",\"max\":" << (sorted_ms.empty() ? 0.0 : sorted_ms.back())
     << ",\"mean\":" << mean << '}';
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);

    // One-shot mode: a single request/reply round-trip over a fresh
    // connection — the e2e harness's admin-verb and spot-check client.
    if (!args.oneshot.empty()) {
      Client client(connect_target(args));
      BF_CHECK_MSG(client.send_all(args.oneshot + "\n"),
                   "oneshot send failed");
      std::string reply;
      BF_CHECK_MSG(client.read_line(reply, args.timeout_ms),
                   "oneshot reply timed out");
      std::printf("%s\n", reply.c_str());
      return reply.find("\"ok\":true") != std::string::npos ? 0 : 1;
    }

    // Build the request trace up front so pacing measures the server,
    // not request synthesis.
    std::vector<std::string> trace;
    if (!args.trace_path.empty()) {
      const auto text = bf::read_file(args.trace_path);
      BF_CHECK_MSG(text.has_value(), "cannot read " << args.trace_path);
      trace = serve::split_requests(*text);
      BF_CHECK_MSG(!trace.empty(), args.trace_path << " holds no requests");
    } else {
      Rng rng(args.seed);
      const double lo = std::log(args.size_min);
      const double hi = std::log(std::max(args.size_max, args.size_min));
      const std::vector<std::string> models =
          args.models.empty() ? std::vector<std::string>{args.model}
                              : args.models;
      trace.reserve(args.requests);
      for (std::size_t k = 0; k < args.requests; ++k) {
        const double size = std::floor(std::exp(rng.uniform(lo, hi)));
        std::ostringstream os;
        os << "{\"cmd\":\"predict\",\"model\":\""
           << json_escape(models[k % models.size()]) << "\",\"size\":" << size
           << ",\"id\":" << k << '}';
        trace.push_back(os.str());
      }
    }
    const std::size_t total = args.requests;

    Outcome outcome;
    std::mutex latencies_mu;
    std::vector<double> latencies_ms;
    latencies_ms.reserve(total);
    std::atomic<std::uint64_t> slow_ok{0};
    std::atomic<std::uint64_t> disconnects_done{0};

    // Reload churn: rewrite the target bundle on a timer while the
    // measured load runs, driving the server's staleness watcher. With
    // --churn-src the rewrites alternate real exports (checksum changes
    // -> promotions); without it the file's own bytes are rewritten
    // (mtime changes, checksum does not -> cheap unchanged polls).
    std::atomic<bool> churn_stop{false};
    std::atomic<std::uint64_t> churns{0};
    std::thread churn_thread;
    if (args.reload_churn_ms > 0) {
      BF_CHECK_MSG(!args.churn_file.empty(),
                   "--reload-churn needs --churn-file PATH");
      std::vector<std::string> variants;
      for (const auto& src : args.churn_src) {
        const auto text = bf::read_file(src);
        BF_CHECK_MSG(text.has_value(), "cannot read churn source " << src);
        variants.push_back(*text);
      }
      if (variants.empty()) {
        const auto text = bf::read_file(args.churn_file);
        BF_CHECK_MSG(text.has_value(),
                     "cannot read churn file " << args.churn_file);
        variants.push_back(*text);
      }
      // Joined before every capture dies (see below), hence the audit.
      churn_thread = std::thread([&, variants] {  // bf-lint: allow(capture-escape)
        std::size_t i = 0;
        while (!churn_stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(args.reload_churn_ms));
          try {
            bf::atomic_write_file(args.churn_file,
                                  variants[i++ % variants.size()]);
            churns.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "bf_loadgen: churn: %s\n", e.what());
          }
        }
      });
    }

    const auto t_start = Clock::now();
    const auto send_time = [&](std::size_t k) {
      if (args.qps <= 0.0) return t_start;
      const double offset_s = static_cast<double>(k) / args.qps;
      return t_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(offset_s));
    };

    std::vector<std::thread> threads;
    threads.reserve(args.conns + args.slow + args.disconnect);
    for (std::size_t c = 0; c < args.conns; ++c) {
      // bf-lint: allow(capture-escape) — joined before every capture dies
      threads.emplace_back([&, c] {
        try {
          Client client(connect_target(args));
          for (std::size_t k = c; k < total; k += args.conns) {
            std::this_thread::sleep_until(send_time(k));
            const std::string line = trace[k % trace.size()] + "\n";
            const auto t0 = Clock::now();
            if (!client.send_all(line)) {
              outcome.no_reply.fetch_add(1, std::memory_order_relaxed);
              return;
            }
            std::string reply;
            if (!client.read_line(reply, args.timeout_ms)) {
              outcome.no_reply.fetch_add(1, std::memory_order_relaxed);
              return;
            }
            const double ms = std::chrono::duration<double, std::milli>(
                                  Clock::now() - t0)
                                  .count();
            classify(reply, outcome);
            std::lock_guard<std::mutex> lock(latencies_mu);
            latencies_ms.push_back(ms);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bf_loadgen: conn %zu: %s\n", c, e.what());
          outcome.no_reply.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    // Deliberately slow clients: dribble one request a byte at a time.
    // The server must keep answering everyone else while these crawl.
    for (std::size_t s = 0; s < args.slow; ++s) {
      // bf-lint: allow(capture-escape) — joined before every capture dies
      threads.emplace_back([&, s] {
        try {
          Client client(connect_target(args));
          const std::string line = trace[s % trace.size()] + "\n";
          for (const char ch : line) {
            if (!client.send_all(std::string(1, ch))) return;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
          std::string reply;
          if (client.read_line(reply, args.timeout_ms)) {
            slow_ok.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bf_loadgen: slow client: %s\n", e.what());
        }
      });
    }

    // Mid-request disconnectors: half a JSON object, then hang up.
    for (std::size_t d = 0; d < args.disconnect; ++d) {
      // bf-lint: allow(capture-escape) — joined before every capture dies
      threads.emplace_back([&, d] {
        try {
          Client client(connect_target(args));
          const std::string& line = trace[d % trace.size()];
          client.send_all(line.substr(0, line.size() / 2));
          client.close();
          disconnects_done.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bf_loadgen: disconnect client: %s\n",
                       e.what());
        }
      });
    }

    for (auto& t : threads) t.join();
    churn_stop.store(true, std::memory_order_relaxed);
    if (churn_thread.joinable()) churn_thread.join();
    const double duration_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t_start)
            .count();

    const std::uint64_t ok = outcome.ok.load();
    const std::uint64_t shed = outcome.shed.load();
    const std::uint64_t errors = outcome.errors.load();
    const std::uint64_t no_reply = outcome.no_reply.load();
    const std::uint64_t answered = ok + shed + errors;
    const double qps_achieved =
        duration_ms > 0.0 ? 1000.0 * static_cast<double>(answered) / duration_ms
                          : 0.0;
    const double shed_fraction =
        answered > 0 ? static_cast<double>(shed) / static_cast<double>(answered)
                     : 0.0;
    const double error_fraction =
        answered > 0
            ? static_cast<double>(errors) / static_cast<double>(answered)
            : 0.0;

    std::ostringstream os;
    os << "{\"bench\":\"serve\",\"schema_version\":1,\"target\":\""
       << json_escape(!args.socket_path.empty()
                          ? args.socket_path
                          : args.tcp_host + ":" + std::to_string(args.tcp_port))
       << "\",\"conns\":" << args.conns << ",\"qps_target\":" << args.qps
       << ",\"requests\":" << total << ",\"ok\":" << ok
       << ",\"shed\":" << shed << ",\"errors\":" << errors
       << ",\"no_reply\":" << no_reply
       << ",\"shed_fraction\":" << shed_fraction
       << ",\"error_fraction\":" << error_fraction
       << ",\"duration_ms\":" << duration_ms
       << ",\"qps_achieved\":" << qps_achieved << ",\"latency_ms\":"
       << percentile_block(latencies_ms) << ",\"chaos\":{\"slow_clients\":"
       << args.slow << ",\"slow_ok\":" << slow_ok.load()
       << ",\"disconnect_clients\":" << args.disconnect
       << ",\"disconnects_done\":" << disconnects_done.load()
       << "},\"churn\":{\"period_ms\":" << args.reload_churn_ms
       << ",\"churns\":" << churns.load() << "}}\n";
    bf::atomic_write_file(args.out_path, os.str());
    std::printf("%s", os.str().c_str());

    // Post-run server introspection: the cache/connection counters that
    // e2e harnesses assert on (single-flight loads, evictions, sheds).
    if (!args.stats_out_path.empty()) {
      Client client(connect_target(args));
      std::string reply;
      BF_CHECK_MSG(client.send_all("{\"cmd\":\"stats\"}\n") &&
                       client.read_line(reply, args.timeout_ms),
                   "stats fetch failed");
      bf::atomic_write_file(args.stats_out_path, reply + "\n");
    }

    return ok > 0 ? 0 : 1;
  } catch (const bf::Error& e) {
    std::fprintf(stderr, "bf_loadgen: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bf_loadgen: unexpected error: %s\n", e.what());
    return 1;
  }
}
