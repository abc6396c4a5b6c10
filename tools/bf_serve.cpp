// bf_serve — the BlackForest prediction server.
//
// Answers newline-delimited JSON prediction requests from trained
// .bfmodel bundles (written by `bf_analyze --export-model`). Bundles
// are cached in an LRU registry with single-flight loading; batches are
// grouped per model, deduplicated, and fanned across the process-wide
// thread pool.
//
//   bf_analyze --workload reduce1 --runs 12 --export-model m/reduce1.bfmodel
//   printf '%s\n' '{"model":"reduce1","size":65536,"id":1}' |
//     bf_serve --model-dir m
//
//   bf_serve --model-dir m --socket /tmp/bf.sock          # Unix listener
//   bf_serve --model-dir m --tcp 7070                     # TCP listener
//
// Socket modes run the fleet-shaped connection layer (serve/conn.hpp):
// concurrent connections, pipelined line-by-line replies, admission
// control with explicit load shedding, per-connection timeouts, and a
// graceful drain on SIGTERM/SIGINT. Request/response schema and
// operational behaviour: docs/serving.md.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <atomic>
#include <csignal>
#include <unistd.h>
#endif

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"
#ifndef _WIN32
#include "serve/conn.hpp"
#endif
#include "serve/net.hpp"
#include "serve/server.hpp"

namespace {

using namespace bf;

void usage() {
  std::printf(
      "usage: bf_serve [options]\n"
      "  --model-dir DIR   directory of <name>.bfmodel bundles (default .)\n"
      "  --cache N         max resident bundles, LRU beyond (default 8)\n"
      "  --socket PATH     listen on a Unix socket; pipelined NDJSON\n"
      "                    requests are answered line-by-line, in order\n"
      "  --tcp [HOST:]PORT listen on TCP too (or instead); port 0 binds\n"
      "                    an ephemeral port and prints it on stderr\n"
      "  --max-conns N     open-connection cap; beyond it a connection\n"
      "                    gets one \"shed\" reply and is closed\n"
      "                    (default 256)\n"
      "  --max-queue N     admitted-but-unanswered request cap; beyond\n"
      "                    it requests are shed with an explicit error\n"
      "                    (default 1024)\n"
      "  --timeout-ms N    per-connection inactivity timeout\n"
      "                    (default 30000)\n"
      "  --drain-ms N      grace budget for in-flight requests after\n"
      "                    SIGTERM/SIGINT (default 5000)\n"
      "  --net-workers N   threads running request batches for the\n"
      "                    socket listeners (default 2)\n"
      "  --reload-watch-ms N  poll resident bundles for on-disk changes\n"
      "                    every N ms and hot-reload them (canary-\n"
      "                    validated, atomic promotion; default 1000,\n"
      "                    0 disables the watcher)\n"
      "  --no-reload       disable hot reload entirely: no watcher and\n"
      "                    the reload/pin/unpin admin verbs are refused\n"
      "  --batch           read all of stdin before answering, grouping\n"
      "                    requests per model and fanning across the\n"
      "                    shared thread pool (default: one reply per line,\n"
      "                    streamed as requests arrive)\n"
      "  --faults SPEC     arm fault injection (also BF_FAULTS in env)\n"
      "  --fault-seed N    deterministic fault stream seed\n"
      "  --version         print the build identity and exit\n"
      "\n"
      "stdin mode reads requests (one JSON object per line) until EOF\n"
      "and writes one reply line per request, in input order. On SIGTERM\n"
      "or SIGINT the socket modes stop accepting, finish or time out\n"
      "in-flight requests, flush, and exit 0.\n");
}

struct Args {
  serve::ServerOptions server;
  serve::NetServerOptions net;
  bool use_net = false;
  bool batch = false;
  std::string faults;
  std::uint64_t fault_seed = bf::fault::kDefaultSeed;
};

Args parse(int argc, char** argv) {
  Args args;
  // CLI default: watch for bundle changes once a second. ServerOptions
  // itself defaults to 0 (off) so embedded/test servers opt in.
  args.server.reload_watch_ms = 1000;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      BF_CHECK_MSG(i + 1 < argc, "missing value for " << a);
      return argv[++i];
    };
    if (a == "--model-dir") {
      args.server.model_dir = next();
    } else if (a == "--cache") {
      args.server.cache_capacity = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--socket") {
      args.net.unix_path = next();
      args.use_net = true;
    } else if (a == "--tcp") {
      const std::string spec = next();
      const std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos) {
        args.net.tcp_port = static_cast<int>(parse_int(spec));
      } else {
        args.net.tcp_host = spec.substr(0, colon);
        args.net.tcp_port = static_cast<int>(parse_int(spec.substr(colon + 1)));
      }
      BF_CHECK_MSG(args.net.tcp_port >= 0 && args.net.tcp_port <= 65535,
                   "--tcp port out of range: " << spec);
      args.use_net = true;
    } else if (a == "--max-conns") {
      args.net.max_conns = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--max-queue") {
      args.net.max_queue = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--timeout-ms") {
      args.net.timeout_ms = static_cast<int>(parse_int(next()));
    } else if (a == "--drain-ms") {
      args.net.drain_ms = static_cast<int>(parse_int(next()));
    } else if (a == "--net-workers") {
      args.net.workers = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--reload-watch-ms") {
      args.server.reload_watch_ms =
          static_cast<std::uint64_t>(parse_int(next()));
    } else if (a == "--no-reload") {
      args.server.allow_reload = false;
    } else if (a == "--batch") {
      args.batch = true;
    } else if (a == "--faults") {
      args.faults = next();
    } else if (a == "--fault-seed") {
      args.fault_seed = static_cast<std::uint64_t>(parse_int(next()));
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
  return args;
}

int run_stdin(serve::Server& server, bool batch) {
  if (batch) {
    // Throughput mode: collect everything, group per model, fan out.
    std::string input;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), stdin)) > 0) {
      input.append(buf, n);
    }
    const auto replies = server.handle_batch(serve::split_requests(input));
    for (const auto& reply : replies) std::printf("%s\n", reply.c_str());
    return 0;
  }
  // Streaming mode: one reply per request line, flushed immediately so
  // an interactive client (or a pipe) sees answers as it asks.
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::printf("%s\n", server.handle_line(line).c_str());
    std::fflush(stdout);
  }
  return 0;
}

#ifndef _WIN32

/// write(2) from a signal handler needs the stop fd without touching
/// any non-trivial object; an atomic int is async-signal-safe to read.
std::atomic<int> g_stop_fd{-1};

extern "C" void handle_stop_signal(int) {
  const int fd = g_stop_fd.load(std::memory_order_relaxed);
  if (fd < 0) return;
  const char byte = 's';
  // The return value is meaningless mid-signal; a full pipe already
  // guarantees a pending wake-up.
  (void)!::write(fd, &byte, 1);
}

int run_net(serve::Server& server, const Args& args) {
  serve::NetServer net(server, args.net);
  server.attach_net(&net.counters());
  g_stop_fd.store(net.stop_fd(), std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: poll must wake to notice the stop
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  if (!args.net.unix_path.empty()) {
    std::fprintf(stderr, "bf_serve: listening on %s\n",
                 args.net.unix_path.c_str());
  }
  if (args.net.tcp_port >= 0) {
    std::fprintf(stderr, "bf_serve: listening on %s:%u\n",
                 args.net.tcp_host.c_str(),
                 static_cast<unsigned>(net.tcp_port()));
  }
  const int rc = net.run();
  g_stop_fd.store(-1, std::memory_order_relaxed);
  return rc;
}

#endif  // !_WIN32

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (!args.faults.empty()) {
      bf::fault::reseed(args.fault_seed);
      bf::fault::configure(args.faults);
    } else {
      bf::fault::configure_from_env();
    }
    serve::Server server(args.server);
    if (args.use_net) {
#ifndef _WIN32
      return run_net(server, args);
#else
      BF_FAIL("--socket/--tcp are not supported on this platform");
#endif
    }
    return run_stdin(server, args.batch);
  } catch (const bf::Error& e) {
    std::fprintf(stderr, "bf_serve: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bf_serve: unexpected error: %s\n", e.what());
    return 1;
  }
}
