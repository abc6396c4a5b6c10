// Open-loop NDJSON load generator for bf_serve's Unix socket.
//
// One thread per connection. Each connection owns every conns-th slot of
// a fixed schedule (slot i is due at start + i / rate) and sends it when
// it falls due, whether or not earlier replies have arrived; replies are
// matched in order by id. Latency runs from the slot's due time, so a
// stall in the server (or in the generator) is charged to every request
// it delays, and the generator's own lateness is reported separately.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct LoadItem {
  std::string body;  ///< request members without the id, e.g. "\"model\":..."
  int key = 0;       ///< passed to the checker with the reply
  bool pair = false; ///< send the request twice in one write (coalescing)
};

struct LoadSpec {
  std::string socket_path;
  double rate = 1000.0;  ///< slots per second over all connections
  double duration_s = 1.0;
  std::size_t conns = 1;
  const std::vector<LoadItem>* items = nullptr;  ///< slot i uses items[i % n]
  std::size_t item_offset = 0;
  Tracer* tracer = nullptr;  ///< records one "request" span per reply
};

/// Returns true when an ok reply carries exactly the expected output.
using ReplyChecker = std::function<bool(int key, std::string_view reply)>;

struct LoadResult {
  std::vector<double> latency_us;  ///< ok replies, from due time
  std::vector<double> due_s;       ///< their due times, from the start
  std::vector<double> lag_us;      ///< send time minus due time, per slot
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;      ///< error replies other than shed
  std::uint64_t mismatches = 0;  ///< ok replies with wrong content
  std::uint64_t missing = 0;     ///< no reply before the drain deadline
  std::vector<std::string> samples;  ///< first few failure descriptions

  std::uint64_t failed() const { return shed + errors + mismatches + missing; }
};

LoadResult run_load(const LoadSpec& spec, const ReplyChecker& check);

/// Connect to a Unix socket, retrying until `timeout_s`; throws on failure.
int connect_unix(const std::string& path, double timeout_s);

/// Send one request line on a fresh connection and return the reply line.
std::string roundtrip(const std::string& path, const std::string& line);

/// Send many lines pipelined on one connection; returns the replies.
std::vector<std::string> roundtrip_all(const std::string& path,
                                       const std::vector<std::string>& lines);

}  // namespace perfbench
