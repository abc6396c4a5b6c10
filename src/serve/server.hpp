// The bf_serve request broker: newline-delimited JSON in, newline-
// delimited JSON out.
//
// Requests:
//   {"cmd":"predict","model":"<name>","size":<n>,"id":<any>}   (cmd
//     defaults to "predict" when omitted)
//   {"cmd":"stats"}
//   {"cmd":"reload","model":"<name>"}   force a supervised hot reload
//   {"cmd":"pin","model":"<name>"}      freeze the current generation
//   {"cmd":"unpin","model":"<name>"}
//
// A predict reply carries the guarded prediction: predicted time, the
// model generation it was computed against, the per-tree interval, the
// confidence grade and the request's service latency. Every failure —
// unknown model, corrupt bundle, malformed JSON — degrades to an
// {"ok":false,"code":...,"error":...} reply on that line; the server
// itself never dies on bad input and the cache stays consistent.
// Batches are grouped per model (one registry resolution per distinct
// model), identical (model, size) rows are computed once per batch
// (coalescing), and the work is fanned across the process-wide
// ThreadPool::global() with replies emitted in input order.
//
// Hot reload: admin verbs and the optional staleness watcher (a
// Server-owned thread polling ModelRegistry::poll_stale every
// reload_watch_ms) both run off the I/O thread — verbs execute on the
// worker handling the batch, the watcher on its own thread. In-flight
// batches pin their generation with a shared_ptr, so a promotion mid-
// batch never tears a reply.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/net.hpp"
#include "serve/registry.hpp"

namespace bf::serve {

/// Render the canonical failure reply:
///   {"id":<id_json>,"ok":false,"code":"<code>","error":"<what>"}
/// (the id field is omitted when id_json is empty). Stable codes:
///   "malformed"          — the request line was not a valid request
///   "model_unavailable"  — the named model could not be loaded
///   "predict_failed"     — the model loaded but prediction threw
///   "reload_disabled"    — admin verb refused (--no-reload)
///   "shed"               — refused by admission control (net layer)
///   "timeout"            — abandoned by a deadline (net layer)
std::string make_error_reply(const std::string& id_json,
                             const std::string& code,
                             const std::string& what);

struct ServerOptions {
  std::string model_dir = ".";
  std::size_t cache_capacity = 8;
  /// Reload supervision (canary tolerance, failure backoff).
  ReloadPolicy reload;
  /// Staleness watcher period; 0 disables the watcher thread (reloads
  /// then only happen through the admin verb).
  std::uint64_t reload_watch_ms = 0;
  /// Master switch for the reload/pin/unpin admin verbs and the
  /// watcher (bf_serve --no-reload clears it).
  bool allow_reload = true;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  /// Serve one request line; always returns exactly one reply line
  /// (without the trailing newline).
  std::string handle_line(const std::string& line);

  /// Serve a batch of request lines; replies are positionally aligned
  /// with the inputs. Predict requests are grouped per model and run
  /// concurrently on ThreadPool::global().
  std::vector<std::string> handle_batch(const std::vector<std::string>& lines);

  ModelRegistry& registry() { return registry_; }

  /// Let `{"cmd":"stats"}` replies include the connection layer's
  /// counters. The pointed-to counters must outlive the server (the
  /// NetServer owns them and owns this server's lifetime in bf_serve).
  void attach_net(const NetCounters* counters) { net_ = counters; }

  /// Duplicate (model, size) rows answered from one computation.
  std::uint64_t coalesced() const {
    return coalesced_.load(std::memory_order_relaxed);
  }

 private:
  struct Request;
  struct Computed;

  Request parse_request(const std::string& line) const;
  std::string render_reply(const Request& req, const Computed& result) const;
  std::string stats_reply() const;
  /// Execute one reload/pin/unpin verb and render its reply.
  std::string admin_reply(const Request& req);
  /// Body of the staleness watcher thread.
  void watch_loop();

  ModelRegistry registry_;
  const NetCounters* net_ = nullptr;
  std::atomic<std::uint64_t> coalesced_{0};
  bool allow_reload_ = true;
  std::uint64_t watch_ms_ = 0;
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  bool stopping_ = false;
  std::thread watcher_;
};

}  // namespace bf::serve
