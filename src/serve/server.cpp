#include "serve/server.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "power/predictor.hpp"
#include "serve/json.hpp"

namespace bf::serve {
namespace {

/// Render a scalar id value back into JSON so replies echo whatever key
/// the client used (string, number, bool). Containers are not echoed.
std::string render_id(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kString: {
      std::string quoted;
      quoted += '"';
      quoted += json_escape(v.str);
      quoted += '"';
      return quoted;
    }
    case JsonValue::Type::kNumber:
      return json_number(v.number);
    case JsonValue::Type::kBool:
      return v.boolean ? "true" : "false";
    default:
      return {};
  }
}

bool is_admin_cmd(const std::string& cmd) {
  return cmd == "reload" || cmd == "pin" || cmd == "unpin";
}

}  // namespace

std::string make_error_reply(const std::string& id_json,
                             const std::string& code,
                             const std::string& what) {
  std::ostringstream os;
  os << '{';
  if (!id_json.empty()) os << "\"id\":" << id_json << ',';
  os << "\"ok\":false,\"code\":\"" << json_escape(code) << "\",\"error\":\""
     << json_escape(what) << "\"}";
  return os.str();
}

struct Server::Request {
  bool valid = false;
  std::string parse_error;
  std::string cmd = "predict";
  std::string model;
  double size = 0.0;
  std::string id_json;
  /// Generation pinned for this request: the shared_ptr keeps the model
  /// alive across the whole batch even if it is evicted or a reload
  /// promotes a newer generation meanwhile.
  std::shared_ptr<const LoadedModel> model_ref;
  std::string model_error;
  /// Reply of an admin verb (reload/pin/unpin), rendered sequentially
  /// before the predict fan-out.
  std::string admin_rendered;
  /// Coalescing key: model + '\0' + canonical size rendering. Empty for
  /// anything that is not a computable predict request.
  std::string coalesce_key;
};

/// One prediction computed per distinct (model, size) in a batch; every
/// request sharing the key renders its reply from the same result.
struct Server::Computed {
  bool ok = false;
  std::string error;
  guard::PredictionGuardRecord rec{};
  /// Power response (filled only when the bundle carries the power
  /// record; powerless replies carry no power fields).
  bool has_power = false;
  bf::power::PowerPrediction power{};
  double latency_us = 0.0;
};

Server::Server(const ServerOptions& options)
    : registry_(options.model_dir, options.cache_capacity, options.reload),
      allow_reload_(options.allow_reload),
      watch_ms_(options.allow_reload ? options.reload_watch_ms : 0) {
  if (watch_ms_ > 0) {
    watcher_ = std::thread(&Server::watch_loop, this);
  }
}

Server::~Server() {
  if (watcher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      stopping_ = true;
    }
    watch_cv_.notify_all();
    watcher_.join();
  }
}

void Server::watch_loop() {
  std::unique_lock<std::mutex> lock(watch_mu_);
  while (!stopping_) {
    const bool stop = watch_cv_.wait_for(
        lock, std::chrono::milliseconds(watch_ms_), [this] { return stopping_; });
    if (stop) break;
    lock.unlock();
    try {
      registry_.poll_stale();
    } catch (...) {
      // The watcher must outlive any single bad poll; failures are
      // already recorded in the registry's lifecycle state.
    }
    lock.lock();
  }
}

Server::Request Server::parse_request(const std::string& line) const {
  Request req;
  JsonValue doc;
  try {
    doc = parse_json(line);
  } catch (const std::exception& e) {
    req.parse_error = e.what();
    return req;
  }
  if (doc.type != JsonValue::Type::kObject) {
    req.parse_error = "request must be a JSON object";
    return req;
  }
  if (const JsonValue* id = doc.find("id")) req.id_json = render_id(*id);
  if (const JsonValue* cmd = doc.find("cmd")) {
    if (cmd->type != JsonValue::Type::kString) {
      req.parse_error = "\"cmd\" must be a string";
      return req;
    }
    req.cmd = cmd->str;
  }
  if (req.cmd == "stats") {
    req.valid = true;
    return req;
  }
  if (req.cmd != "predict" && !is_admin_cmd(req.cmd)) {
    req.parse_error = "unknown cmd \"" + req.cmd + "\"";
    return req;
  }
  const JsonValue* model = doc.find("model");
  if (model == nullptr || model->type != JsonValue::Type::kString ||
      model->str.empty()) {
    req.parse_error = req.cmd + " needs a string \"model\"";
    return req;
  }
  req.model = model->str;
  if (is_admin_cmd(req.cmd)) {
    req.valid = true;
    return req;
  }
  const JsonValue* size = doc.find("size");
  if (size == nullptr || size->type != JsonValue::Type::kNumber ||
      !std::isfinite(size->number) || size->number <= 0.0) {
    req.parse_error = "predict needs a finite positive \"size\"";
    return req;
  }
  req.size = size->number;
  req.valid = true;
  return req;
}

std::string Server::admin_reply(const Request& req) {
  if (!allow_reload_) {
    return make_error_reply(req.id_json, "reload_disabled",
                            "hot reload administration is disabled");
  }
  std::ostringstream os;
  os << '{';
  if (!req.id_json.empty()) os << "\"id\":" << req.id_json << ',';
  os << "\"ok\":true,\"cmd\":\"" << json_escape(req.cmd) << "\",\"model\":\""
     << json_escape(req.model) << '"';
  if (req.cmd == "reload") {
    const ReloadResult result = registry_.reload(req.model);
    os << ",\"status\":\"" << to_string(result.status) << "\""
       << ",\"generation\":" << result.generation;
    if (!result.error.empty()) {
      os << ",\"error\":\"" << json_escape(result.error) << '"';
    }
  } else {
    const bool resident = req.cmd == "pin" ? registry_.pin(req.model)
                                           : registry_.unpin(req.model);
    os << ",\"resident\":" << (resident ? "true" : "false");
  }
  os << '}';
  return os.str();
}

std::string Server::render_reply(const Request& req,
                                 const Computed& result) const {
  if (!result.ok) {
    return make_error_reply(req.id_json, "predict_failed", result.error);
  }
  const guard::PredictionGuardRecord& rec = result.rec;
  std::ostringstream os;
  os << '{';
  if (!req.id_json.empty()) os << "\"id\":" << req.id_json << ',';
  os << "\"ok\":true,\"model\":\"" << json_escape(req.model) << "\""
     << ",\"generation\":" << req.model_ref->generation
     << ",\"size\":" << json_number(req.size)
     << ",\"predicted_ms\":" << json_number(rec.value)
     << ",\"interval_lo_ms\":" << json_number(rec.lo)
     << ",\"interval_hi_ms\":" << json_number(rec.hi) << ",\"grade\":\""
     << guard::grade_letter(rec.grade) << "\",\"extrapolated\":"
     << (rec.extrapolated ? "true" : "false");
  if (result.has_power) {
    os << ",\"power_w\":" << json_number(result.power.power_w)
       << ",\"energy_j\":" << json_number(result.power.energy_j)
       << ",\"power_grade\":\""
       << guard::grade_letter(result.power.energy_grade) << '"';
  }
  os << ",\"latency_us\":" << json_number(result.latency_us) << '}';
  return os.str();
}

std::string Server::stats_reply() const {
  const RegistryStats s = registry_.stats();
  std::ostringstream os;
  os << "{\"ok\":true,\"cmd\":\"stats\",\"hits\":" << s.hits
     << ",\"misses\":" << s.misses << ",\"loads\":" << s.loads
     << ",\"evictions\":" << s.evictions << ",\"failures\":" << s.failures
     << ",\"fast_fails\":" << s.fast_fails << ",\"reloads\":" << s.reloads
     << ",\"promotions\":" << s.promotions << ",\"rollbacks\":" << s.rollbacks
     << ",\"coalesced\":" << coalesced_.load(std::memory_order_relaxed)
     << ",\"resident\":[";
  bool first = true;
  for (const auto& name : registry_.resident()) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << '"';
  }
  os << "],\"models\":[";
  first = true;
  for (const auto& info : registry_.models()) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(info.name)
       << "\",\"generation\":" << info.generation << ",\"checksum\":\""
       << json_escape(info.checksum) << "\",\"loaded_at\":\""
       << json_escape(info.loaded_at) << "\",\"rollbacks\":" << info.rollbacks
       << ",\"pinned\":" << (info.pinned ? "true" : "false")
       << ",\"power\":" << (info.power ? "true" : "false") << '}';
  }
  os << "]";
  if (net_ != nullptr) {
    os << ",\"net\":{\"accepted\":"
       << net_->accepted.load(std::memory_order_relaxed)
       << ",\"active_conns\":"
       << net_->active_conns.load(std::memory_order_relaxed)
       << ",\"requests\":" << net_->requests.load(std::memory_order_relaxed)
       << ",\"replies\":" << net_->replies.load(std::memory_order_relaxed)
       << ",\"queue_depth\":"
       << net_->queue_depth.load(std::memory_order_relaxed)
       << ",\"shed\":" << net_->shed.load(std::memory_order_relaxed)
       << ",\"timeouts\":" << net_->timeouts.load(std::memory_order_relaxed)
       << ",\"disconnects\":"
       << net_->disconnects.load(std::memory_order_relaxed)
       << ",\"overloaded_conns\":"
       << net_->overloaded_conns.load(std::memory_order_relaxed)
       << ",\"accept_errors\":"
       << net_->accept_errors.load(std::memory_order_relaxed) << '}';
  }
  os << '}';
  return os.str();
}

std::string Server::handle_line(const std::string& line) {
  std::vector<std::string> replies = handle_batch({line});
  return replies.front();
}

std::vector<std::string> Server::handle_batch(
    const std::vector<std::string>& lines) {
  ThreadPool& pool = ThreadPool::global();
  std::vector<Request> requests;
  requests.reserve(lines.size());
  for (const auto& line : lines) requests.push_back(parse_request(line));

  // Admin verbs run first, sequentially, in input order — a reload in a
  // batch takes effect before that batch's predicts resolve, and two
  // verbs in one batch cannot race each other.
  for (auto& req : requests) {
    if (req.valid && is_admin_cmd(req.cmd)) {
      req.admin_rendered = admin_reply(req);
    }
  }

  // Resolve each distinct model once; the registry's single-flight path
  // already dedupes, this just avoids redundant future round-trips and
  // gives the whole batch one coherent generation per model.
  std::map<std::string, std::pair<std::shared_ptr<const LoadedModel>,
                                  std::string>>
      resolved;
  for (const auto& req : requests) {
    if (req.valid && req.cmd == "predict") resolved.emplace(req.model,
        std::pair<std::shared_ptr<const LoadedModel>, std::string>{});
  }
  std::vector<std::string> names;
  names.reserve(resolved.size());
  for (const auto& [name, unused] : resolved) names.push_back(name);
  pool.parallel_for(0, names.size(), [&](std::size_t i) {
    // find() keeps the concurrent map access read-only on the tree
    // structure; each task writes only its own slot. Pool tasks must
    // not throw: fold load errors into the reply text.
    auto& slot = resolved.find(names[i])->second;
    try {
      slot.first = registry_.get(names[i]);
    } catch (const std::exception& e) {
      slot.second = e.what();
    }
  });

  // Coalesce identical (model, size) rows: one computation per distinct
  // key, every duplicate answered from it (with its own id echoed).
  std::map<std::string, Computed> computed;
  std::vector<const Request*> representative;
  std::vector<std::string> keys;
  std::uint64_t duplicates = 0;
  for (auto& req : requests) {
    if (!req.valid || req.cmd != "predict") continue;
    auto it = resolved.find(req.model);
    req.model_ref = it->second.first;
    req.model_error = it->second.second;
    if (req.model_ref == nullptr) continue;
    req.coalesce_key = req.model;
    req.coalesce_key += '\0';
    req.coalesce_key += json_number(req.size);
    const auto [slot, inserted] = computed.emplace(req.coalesce_key,
                                                   Computed{});
    if (inserted) {
      keys.push_back(req.coalesce_key);
      representative.push_back(&req);
    } else {
      ++duplicates;
    }
  }
  if (duplicates > 0) {
    coalesced_.fetch_add(duplicates, std::memory_order_relaxed);
  }
  pool.parallel_for(0, keys.size(), [&](std::size_t i) {
    Computed& slot = computed.find(keys[i])->second;
    const Request& req = *representative[i];
    const auto t0 = std::chrono::steady_clock::now();
    try {
      slot.rec = req.model_ref->bundle.predictor.predict_guarded(req.size);
      if (req.model_ref->bundle.power.has_value()) {
        slot.power =
            req.model_ref->bundle.power->predict_guarded(req.size, slot.rec);
        slot.has_power = true;
      }
      slot.ok = true;
    } catch (const std::exception& e) {
      slot.error = e.what();
    }
    const auto t1 = std::chrono::steady_clock::now();
    slot.latency_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
  });

  std::vector<std::string> replies(requests.size());
  pool.parallel_for(0, requests.size(), [&](std::size_t i) {
    const Request& req = requests[i];
    if (!req.valid) {
      replies[i] = make_error_reply(req.id_json, "malformed", req.parse_error);
    } else if (req.cmd == "stats") {
      replies[i] = stats_reply();
    } else if (is_admin_cmd(req.cmd)) {
      replies[i] = req.admin_rendered;
    } else if (req.model_ref == nullptr) {
      replies[i] = make_error_reply(req.id_json, "model_unavailable",
                                    req.model_error.empty()
                                        ? "model unavailable"
                                        : req.model_error);
    } else {
      replies[i] = render_reply(req, computed.find(req.coalesce_key)->second);
    }
  });
  return replies;
}

}  // namespace bf::serve
