// The serve_hot workload: the unchanged bf_serve binary over a Unix
// socket, driven open-loop, with two resident bundles (reduce1 time-only,
// needle v3 with power) behind a warm cache: the read-only request path.
//
// Its traced run adds a churn phase on a second server: needle plus
// three reduce1 copies behind a two-entry cache, so the registry misses,
// loads and evicts, while needle is rewritten on disk and the staleness
// watcher canary-validates and promotes each new generation. Churn
// latency moved 3-10x between identical runs on a shared host, so it is
// a per-layer figure and never gated.
//
// Every reply must match, byte for byte, what the in-process
// predict_guarded of the same bundle renders.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/io.hpp"
#include "core/predictor.hpp"
#include "gpusim/arch.hpp"
#include "loadgen.hpp"
#include "power/predictor.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"
#include "serve/artifact.hpp"
#include "serve/json.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "sim_probe.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace bf;

constexpr const char* kSocket = "serve.sock";
constexpr std::size_t kTrees = 200;
constexpr std::size_t kSizesInHull = 48;
constexpr std::size_t kSizesBeyond = 16;
constexpr double kLatencyLimitUs = 2000.0;  ///< p99 limit of the capacity ladder
/// Beyond this lag p99 the generator fell behind and the run is invalid.
/// Host stalls alone reach ~5 ms on a busy shared VM.
constexpr double kMaxLagP99Ms = 20.0;
/// A capacity-ladder step is only valid while the generator keeps time.
constexpr double kLadderMaxLagP99Ms = 2.0;
constexpr double kWindowS = 0.5;  ///< shortest latency percentile window
/// Requests per second. Well below the knee (~15k/s on 4 vCPUs): when the
/// shared host slows down, a rate near capacity turns a slow phase into a
/// queueing blow-up.
constexpr double kBaseRate = 3000.0;
constexpr std::size_t kHotCache = 8;
constexpr double kChurnRate = 1000.0;
constexpr std::size_t kChurnCache = 2;
/// Bundles the hot server serves; the churn phase serves names_ in full.
constexpr std::size_t kHotModels = 2;

/// Latency quantile `q` per window (by due time), reduced over the
/// windows by steady_time(). A window lasts half a second, or longer when
/// the rate gives it fewer than the replies that put ten beyond `q` (100
/// for a p90, 1000 for a p99); windows short of that are skipped.
/// Virtual machines stall now and then for milliseconds to tens of
/// milliseconds; a stall lands in a few windows and no longer decides the
/// run's tail.
double windowed_quantile(const LoadResult& lr, double rate, double q) {
  const auto min_replies =
      static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-6));
  const double window_s =
      std::max(kWindowS, static_cast<double>(min_replies) / rate);
  std::map<long, std::vector<double>> windows;
  for (std::size_t i = 0; i < lr.latency_us.size(); ++i) {
    windows[static_cast<long>(lr.due_s[i] / window_s)].push_back(
        lr.latency_us[i]);
  }
  std::vector<double> per_window;
  for (const auto& [w, v] : windows) {
    if (v.size() >= min_replies) per_window.push_back(quantile(v, q));
  }
  return per_window.empty() ? quantile(lr.latency_us, q)
                            : steady_time(per_window);
}

/// A bf_serve child process; stopped (SIGTERM, then SIGKILL) and reaped
/// by the destructor at the latest.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& args) {
    std::vector<std::string> argv_s{binary};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, "serve.log",
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) BF_FAIL("cannot start " << binary << ": " << std::strerror(rc));
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Peak resident set of the server so far, MB (VmHWM).
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        in >> kb;
        return kb / 1024.0;
      }
      std::string rest;
      std::getline(in, rest);
    }
    return 0.0;
  }

  /// CPU seconds (user + system) the server has used so far.
  double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string line;
    std::getline(in, line);
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream is(line.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    for (int i = 3; i <= 15 && is >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Graceful drain; returns the exit status (-1 when it had to be killed).
  int stop() {
    if (pid_ <= 0) return status_;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int st = 0;
    while (::waitpid(pid_, &st, WNOHANG) == 0) {
      if (seconds_since(t0) > 10.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &st, 0);
        pid_ = 0;
        return status_ = -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = 0;
    status_ = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    return status_;
  }

 private:
  pid_t pid_ = 0;
  int status_ = 0;
};

/// One exported model: training statistics and the bundle as served.
struct Model {
  std::string name;
  bool power = false;
  std::vector<double> train;
  std::vector<double> heldout;
  std::vector<double> queries;  ///< request sizes: in-hull, then beyond
  profiling::Workload workload;
  double oob_pct = 0.0;
  std::size_t trees = 0;
  std::size_t flat_nodes = 0;
};

/// Expected reply content for one (model, size).
struct Expect {
  std::string body;  ///< "size" .. last prediction field, as rendered
  guard::PredictionGuardRecord rec;
};

std::string expected_body(double size, const guard::PredictionGuardRecord& rec,
                          const bf::power::PowerPrediction* pp) {
  std::string s = "\"size\":" + serve::json_number(size) +
                  ",\"predicted_ms\":" + serve::json_number(rec.value) +
                  ",\"interval_lo_ms\":" + serve::json_number(rec.lo) +
                  ",\"interval_hi_ms\":" + serve::json_number(rec.hi) +
                  ",\"grade\":\"" + guard::grade_letter(rec.grade) +
                  "\",\"extrapolated\":" + (rec.extrapolated ? "true" : "false");
  if (pp != nullptr) {
    s += ",\"power_w\":" + serve::json_number(pp->power_w) +
         ",\"energy_j\":" + serve::json_number(pp->energy_j) +
         ",\"power_grade\":\"" + guard::grade_letter(pp->energy_grade) + "\"";
  }
  return s + ",\"latency_us\":";
}

class ServeBench {
 public:
  ServeBench(const Options& opts, Tracer& tracer)
      : opts_(opts), tracer_(tracer) {
    conns_ = std::max<std::size_t>(1, std::thread::hardware_concurrency() / 2);
  }

  Result run();

 private:
  /// Sweep, fit and export both bundles, the needle rewrite and the
  /// reduce1 copies; returns the sim digest.
  std::uint64_t train_and_export();
  /// Expected replies for the seeded request sizes; returns the digest
  /// of the bundles' predictions at their (seed-independent) held-out
  /// sizes.
  std::uint64_t build_expectations(Result& r);
  std::vector<LoadItem> build_plan(bool churn) const;
  std::unique_ptr<ServerProcess> start_server(bool churn);
  void warm(Result& r, std::size_t models);
  std::map<std::string, double> stats();
  LoadResult load(double rate, double duration_s, Tracer* tracer,
                  std::size_t offset, const std::vector<LoadItem>& plan);
  void account(Result& r, const LoadResult& lr, double rate,
               const std::string& phase, bool base_rate);
  void in_process_layers(Result& r);

  const Options& opts_;
  Tracer& tracer_;
  std::size_t conns_ = 1;
  SimProbe probe_;
  std::vector<Model> models_;
  std::string needle_a_;  ///< needle bundle content, and its rewrite
  std::string needle_b_;
  std::vector<Expect> expect_;
  std::vector<LoadItem> plan_;      ///< hot request schedule
  std::vector<std::string> names_;  ///< every bundle name exported
};

std::uint64_t ServeBench::train_and_export() {
  models_.clear();
  probe_.reset_digest();
  {
    Model m;
    m.name = "reduce1";
    m.workload = profiling::reduce_workload(1);
    m.train = profiling::log2_sizes(16384, 1 << 20, 12, 256);
    models_.push_back(std::move(m));
  }
  {
    Model m;
    m.name = "needle";
    m.power = true;
    m.workload = profiling::nw_workload();
    m.train = profiling::log2_sizes(64, 2048, 12, 16);
    models_.push_back(std::move(m));
  }
  const gpusim::Device device(gpusim::gtx580());
  // Training inputs are fixed: the seed drives the request stream only.
  std::uint64_t profiler_seed = 11;
  for (auto& m : models_) {
    profiling::SweepOptions so;
    so.profiler.seed = profiler_seed++;
    const ml::Dataset data =
        profiling::sweep(probe_.wrap(m.workload), device, m.train, so);
    core::ProblemScalingOptions pso;
    pso.model.forest.n_trees = kTrees;
    pso.arch = device.arch();
    const auto psp = core::ProblemScalingPredictor::build(data, pso);
    m.oob_pct = psp.full_model().pct_var_explained();
    m.trees = psp.full_model().flat().n_trees();
    m.flat_nodes = psp.full_model().flat().node_count();
    std::optional<bf::power::PowerPredictor> power;
    if (m.power) {
      bf::power::PowerPredictorOptions popts;
      popts.scaling.model.forest.n_trees = kTrees;
      popts.scaling.arch = device.arch();
      power = bf::power::PowerPredictor::build(data, popts);
    }
    const std::string path = m.name + serve::kBundleSuffix;
    serve::export_model(path, m.name, m.workload.name, device.arch().name,
                        data.num_rows(), psp, 5, power ? &*power : nullptr);
    if (m.power) {
      // The rewrite differs only in its probe record: a new checksum, so
      // the churn server's watcher stages, canary-checks and promotes it,
      // while every prediction stays bit-identical.
      serve::export_model("rewrite.tmp", m.name, m.workload.name,
                          device.arch().name, data.num_rows(), psp, 6,
                          power ? &*power : nullptr);
      needle_b_ = *read_file("rewrite.tmp");
      std::filesystem::remove("rewrite.tmp");
      needle_a_ = *read_file(path);
    }
    m.heldout = heldout_sizes(m.train, m.name == "needle" ? 16 : 256);
  }
  names_ = {"reduce1", "needle"};
  for (const char* copy : {"c0", "c1", "c2"}) {
    std::filesystem::copy_file(
        "reduce1.bfmodel", std::string(copy) + serve::kBundleSuffix,
        std::filesystem::copy_options::overwrite_existing);
    names_.push_back(copy);
  }
  return probe_.digest();
}

std::uint64_t ServeBench::build_expectations(Result& r) {
  expect_.clear();
  Fnv digest;
  Rng rng(derive_seed(opts_.seed, 21));
  for (auto& m : models_) {
    const double lo = m.train.front();
    const double hi = m.train.back();
    m.queries.clear();
    for (std::size_t i = 0; i < kSizesInHull + kSizesBeyond; ++i) {
      const double a = i < kSizesInHull ? lo : hi * 1.2;
      const double b = i < kSizesInHull ? hi : hi * 6.0;
      m.queries.push_back(
          std::round(std::exp(rng.uniform(std::log(a), std::log(b)))));
    }
    // Expected replies come from the bundle exactly as the server loads it.
    const serve::ModelBundle bundle =
        serve::load_bundle(m.name + serve::kBundleSuffix);
    std::optional<serve::ModelBundle> rewrite;
    if (m.power) rewrite = serve::bundle_from_string(needle_b_, "rewrite");
    for (const double size : m.heldout) {
      const auto rec = bundle.predictor.predict_guarded(size);
      std::optional<bf::power::PowerPrediction> pp;
      if (bundle.power) pp = bundle.power->predict_guarded(size, rec);
      digest.str(expected_body(size, rec, pp ? &*pp : nullptr));
    }
    for (const double size : m.queries) {
      const auto rec = bundle.predictor.predict_guarded(size);
      std::optional<bf::power::PowerPrediction> pp;
      if (bundle.power) pp = bundle.power->predict_guarded(size, rec);
      Expect e{expected_body(size, rec, pp ? &*pp : nullptr), rec};
      if (rewrite) {
        const auto rec_b = rewrite->predictor.predict_guarded(size);
        const auto pp_b = rewrite->power->predict_guarded(size, rec_b);
        ++r.attempted;
        if (expected_body(size, rec_b, &pp_b) != e.body) {
          r.incorrect("rewritten needle bundle predicts differently");
        }
      }
      expect_.push_back(std::move(e));
    }
  }
  return digest.value();
}

/// A request schedule: seeded model/size choices; every eighth slot is
/// a duplicate pair so batch coalescing is exercised.
std::vector<LoadItem> ServeBench::build_plan(bool churn) const {
  std::vector<LoadItem> plan;
  Rng rng(derive_seed(opts_.seed, churn ? 32 : 31));
  const std::size_t per_model = kSizesInHull + kSizesBeyond;
  constexpr std::size_t kPlan = 8192;
  // Loads stay rare enough (one per 128 slots) that the p90 reads the
  // churned request path and the p99 reads the loads.
  constexpr std::size_t kColdBlock = 64;
  for (std::size_t i = 0; i < kPlan; ++i) {
    std::size_t model = 0;
    std::string name;
    if (!churn) {
      model = rng.uniform_index(kHotModels);
      name = models_[model].name;
    } else if (i % 2 == 0) {
      model = 1;  // needle: hot, stays resident, rewritten
      name = "needle";
    } else {
      model = 0;  // reduce1 copies, round-robined in blocks
      name = names_[2 + (i / 2 / kColdBlock) % 3];
    }
    const std::size_t q = rng.uniform_index(per_model);
    const int key = static_cast<int>(model * per_model + q);
    LoadItem item;
    item.body = "\"model\":\"" + name + "\",\"size\":" +
                serve::json_number(models_[model].queries[q]);
    item.key = key;
    item.pair = i % 8 == 7;
    plan.push_back(std::move(item));
  }
  return plan;
}

std::unique_ptr<ServerProcess> ServeBench::start_server(bool churn) {
  std::filesystem::remove(kSocket);
  const std::vector<std::string> args = {
      "--model-dir", ".", "--socket", kSocket, "--cache",
      std::to_string(churn ? kChurnCache : kHotCache), "--net-workers", "2",
      "--reload-watch-ms", churn ? "50" : "0"};
  auto server = std::make_unique<ServerProcess>(opts_.serve_binary, args);
  ::close(connect_unix(kSocket, 10.0));
  return server;
}

std::map<std::string, double> ServeBench::stats() {
  const serve::JsonValue doc =
      serve::parse_json(roundtrip(kSocket, "{\"cmd\":\"stats\"}"));
  std::map<std::string, double> out;
  for (const auto& [k, v] : doc.object) {
    if (v.type == serve::JsonValue::Type::kNumber) out[k] = v.number;
  }
  if (const auto* net = doc.find("net")) {
    for (const auto& [k, v] : net->object) {
      if (v.type == serve::JsonValue::Type::kNumber) out["net." + k] = v.number;
    }
  }
  return out;
}

void ServeBench::warm(Result& r, std::size_t models) {
  // Every distinct (name, size) of the first `models` bundles once;
  // replies are checked like any other.
  std::vector<std::string> lines;
  std::vector<std::pair<std::string, int>> keys;
  const std::size_t per_model = kSizesInHull + kSizesBeyond;
  for (std::size_t n = 0; n < models; ++n) {
    const std::string& name = names_[n];
    const std::size_t model = name == "needle" ? 1 : 0;
    for (std::size_t q = 0; q < per_model; ++q) {
      const int key = static_cast<int>(model * per_model + q);
      lines.push_back("{\"id\":" + std::to_string(lines.size()) +
                      ",\"model\":\"" + name + "\",\"size\":" +
                      serve::json_number(models_[model].queries[q]) + "}");
      keys.emplace_back(name, key);
    }
  }
  const auto replies = roundtrip_all(kSocket, lines);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ++r.attempted;
    const Expect& e = expect_[static_cast<std::size_t>(keys[i].second)];
    if (replies[i].find("\"model\":\"" + keys[i].first + "\"") ==
            std::string::npos ||
        replies[i].find(e.body) == std::string::npos) {
      r.incorrect("warm-up reply differs: " + replies[i]);
    }
  }
}

LoadResult ServeBench::load(double rate, double duration_s, Tracer* tracer,
                            std::size_t offset,
                            const std::vector<LoadItem>& plan) {
  LoadSpec ls;
  ls.socket_path = kSocket;
  ls.rate = rate;
  ls.duration_s = duration_s;
  ls.conns = conns_;
  ls.items = &plan;
  ls.item_offset = offset;
  ls.tracer = tracer;
  const auto check = [this](int key, std::string_view reply) {
    // Churned copies answer under their own name with reduce1's output,
    // so the check covers everything after the name and generation.
    return reply.find(expect_[static_cast<std::size_t>(key)].body) !=
           std::string_view::npos;
  };
  return run_load(ls, check);
}

void ServeBench::account(Result& r, const LoadResult& lr, double rate,
                         const std::string& phase, bool base_rate) {
  r.attempted += lr.sent;
  r.failed += lr.failed();
  // Nothing may fail at the base rate: shed, error and missing replies
  // there make the run incorrect, like a wrong reply at any rate.
  if (lr.mismatches > 0 || (base_rate && lr.failed() > 0)) {
    r.correct = false;
    r.note("INCORRECT: " + phase + ": " + std::to_string(lr.failed()) +
           " of " + std::to_string(lr.sent) + " requests failed");
  }
  for (const auto& s : lr.samples) r.note(phase + ": " + s);
  r.note(phase + ": sent=" + std::to_string(lr.sent) +
         " ok=" + std::to_string(lr.ok) + " shed=" + std::to_string(lr.shed) +
         " errors=" + std::to_string(lr.errors) +
         " mismatches=" + std::to_string(lr.mismatches) +
         " missing=" + std::to_string(lr.missing) +
         " p50_us=" + std::to_string(median(lr.latency_us)) +
         " p99_us=" + std::to_string(quantile(lr.latency_us, 0.99)) +
         " windowed_p90_us=" + std::to_string(windowed_quantile(lr, rate, 0.90)) +
         " windowed_p99_us=" + std::to_string(windowed_quantile(lr, rate, 0.99)) +
         " lag_p99_ms=" + std::to_string(quantile(lr.lag_us, 0.99) / 1e3));
}

/// Keeps rewriting the needle bundle (alternating two contents) until
/// stopped, so the watcher reloads it beside the predict traffic.
class Rewriter {
 public:
  Rewriter(const std::string& a, const std::string& b)
      : thread_([this, a, b] { loop(a, b); }) {}
  ~Rewriter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Rewriter(const Rewriter&) = delete;
  Rewriter& operator=(const Rewriter&) = delete;

 private:
  void loop(const std::string& a, const std::string& b) {
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t i = 1;; ++i) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(200),
                       [this] { return stop_; })) {
        return;
      }
      try {
        atomic_write_file(std::string("needle") + serve::kBundleSuffix,
                          i % 2 == 1 ? b : a);
      } catch (...) {
        // A failed rewrite only means one fewer reload; the old file stays.
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

void ServeBench::in_process_layers(Result& r) {
  // parse_json on the request lines the generator sends.
  std::vector<double> parse_us;
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::string line = "{\"id\":" + std::to_string(i) + "," +
                             plan_[i % plan_.size()].body + "}";
    const auto t0 = Clock::now();
    const auto doc = serve::parse_json(line);
    parse_us.push_back(seconds_since(t0) * 1e6);
    if (doc.find("model") == nullptr) r.incorrect("parse_json lost a member");
  }
  r.set("serve.parse_us", median(parse_us), "us");

  // Server::handle_batch in-process, on the same bundles and mix.
  {
    serve::ServerOptions so;
    so.model_dir = ".";
    so.cache_capacity = kHotCache;
    serve::Server server(so);
    std::vector<double> batch_us;
    for (std::size_t b = 0; b < 300; ++b) {
      std::vector<std::string> lines;
      for (std::size_t k = 0; k < 8; ++k) {
        lines.push_back("{\"id\":" + std::to_string(k) + "," +
                        plan_[(b * 8 + k) % plan_.size()].body + "}");
      }
      const auto t0 = Clock::now();
      const auto replies = server.handle_batch(lines);
      batch_us.push_back(seconds_since(t0) * 1e6);
      for (std::size_t k = 0; k < replies.size(); ++k) {
        ++r.attempted;
        const Expect& e =
            expect_[static_cast<std::size_t>(plan_[(b * 8 + k) % plan_.size()].key)];
        if (replies[k].find(e.body) == std::string::npos) {
          r.incorrect("in-process handle_batch reply differs: " + replies[k]);
        }
      }
    }
    r.set("serve.batch_us", median(batch_us), "us");
  }

  // ModelRegistry::get on a resident model.
  {
    serve::ModelRegistry reg(".", 8);
    reg.get("needle");
    std::vector<double> hit_us;
    for (int i = 0; i < 2000; ++i) {
      const auto t0 = Clock::now();
      reg.get(i % 2 == 0 ? "needle" : "reduce1");
      hit_us.push_back(seconds_since(t0) * 1e6);
    }
    r.set("serve.registry_hit_us", median(hit_us), "us");
  }

  // Guarded predictions on the served bundles.
  {
    const serve::ModelBundle needle = serve::load_bundle("needle.bfmodel");
    const serve::ModelBundle reduce = serve::load_bundle("reduce1.bfmodel");
    std::vector<double> pred_us, power_us;
    Rng rng(derive_seed(opts_.seed, 41));
    for (int i = 0; i < 3000; ++i) {
      const bool n = i % 2 == 0;
      const auto& m = models_[n ? 1 : 0];
      const double size = m.queries[rng.uniform_index(m.queries.size())];
      auto t0 = Clock::now();
      const auto rec = (n ? needle : reduce).predictor.predict_guarded(size);
      pred_us.push_back(seconds_since(t0) * 1e6);
      if (n) {
        t0 = Clock::now();
        const auto pp = needle.power->predict_guarded(size, rec);
        power_us.push_back(seconds_since(t0) * 1e6);
        if (!std::isfinite(pp.power_w)) r.incorrect("non-finite power");
      }
    }
    r.set("core.predict_us", median(pred_us), "us");
    r.set("power.predict_us", median(power_us), "us");
  }

  // The churn path's layers: a registry miss (capacity 1, alternating
  // copies), a bundle load and a canary check.
  {
    serve::ModelRegistry reg(".", 1);
    std::vector<double> miss_ms;
    for (int i = 0; i < 20; ++i) {
      const auto t0 = Clock::now();
      reg.get(i % 2 == 0 ? "c0" : "c1");
      miss_ms.push_back(seconds_since(t0) * 1e3);
    }
    r.set("serve.registry_miss_ms", median(miss_ms), "ms");
  }
  std::vector<double> load_ms, canary_ms;
  for (int i = 0; i < 10; ++i) {
    auto t0 = Clock::now();
    const serve::BundleFile f = serve::load_bundle_file("needle.bfmodel");
    load_ms.push_back(seconds_since(t0) * 1e3);
    std::string why;
    t0 = Clock::now();
    const bool ok = serve::validate_canary(f.bundle, 1e-9, &why);
    canary_ms.push_back(seconds_since(t0) * 1e3);
    ++r.attempted;
    if (!ok) r.incorrect("canary rejected a healthy bundle: " + why);
  }
  r.set("serve.load_bundle_ms", median(load_ms), "ms");
  r.set("serve.canary_ms", median(canary_ms), "ms");
}

Result ServeBench::run() {
  Result r;
  const DigestBook book(opts_.digest_file);
  const auto check_digest = [&](const std::string& kind, std::uint64_t digest) {
    ++r.attempted;
    const std::string err = book.check(opts_.workload, kind, digest);
    if (!err.empty()) r.incorrect(err);
  };

  // ---- set-up, repeated; the last server stays up ----
  std::vector<double> setup_s;
  std::vector<double> analysis_s;  ///< training time, set-ups and after
  std::unique_ptr<ServerProcess> server;
  std::uint64_t sim_digest = 0;
  std::uint64_t pred_digest = 0;
  const int setups = opts_.trace ? 1 : 5;
  for (int k = 0; k < setups; ++k) {
    const auto dir = "setup" + std::to_string(k);
    std::filesystem::create_directories(dir);
    std::filesystem::current_path(dir);
    const auto t0 = Clock::now();
    sim_digest = train_and_export();
    analysis_s.push_back(seconds_since(t0));
    pred_digest = build_expectations(r);
    plan_ = build_plan(false);
    server = start_server(false);
    warm(r, kHotModels);
    setup_s.push_back(seconds_since(t0));
    if (k + 1 < setups) {
      server->stop();
      server.reset();
      std::filesystem::current_path("..");
      std::filesystem::remove_all(dir);
    }
  }
  check_digest("sim", sim_digest);
  check_digest("pred", pred_digest);
  r.note("digest sim=" + hex64(sim_digest) + " pred=" + hex64(pred_digest));
  const auto stop_server = [&] {
    const int rc = server->stop();
    ++r.attempted;
    if (rc != 0) {
      r.incorrect("bf_serve did not drain cleanly (status " +
                  std::to_string(rc) + ")");
    }
  };

  // ---- measured window(s) ----
  const double secs = opts_.seconds;
  const auto before = stats();
  const double server_cpu0 = server->cpu_s();
  const double self_cpu0 = self_cpu_s();
  LoadResult base;
  LoadResult traced;
  if (!opts_.trace) {
    base = load(kBaseRate, 0.8 * secs, nullptr, 0, plan_);
    account(r, base, kBaseRate, "base", true);
  } else {
    base = load(kBaseRate, 0.3 * secs, nullptr, 0, plan_);
    account(r, base, kBaseRate, "base untraced", true);
    traced = load(kBaseRate, 0.3 * secs, &tracer_, 1000, plan_);
    account(r, traced, kBaseRate, "base traced", true);
  }
  const auto after = stats();
  const double server_cpu_s = server->cpu_s() - server_cpu0;
  r.note("cpu seconds in the window: server=" + std::to_string(server_cpu_s) +
         " generator=" + std::to_string(self_cpu_s() - self_cpu0));
  const double lag_p99_ms = quantile(base.lag_us, 0.99) / 1e3;
  if (lag_p99_ms > kMaxLagP99Ms) {
    r.incorrect("load generator fell behind (lag p99 " +
                std::to_string(lag_p99_ms) + " ms): run invalid");
  }

  // ---- quality of the served models against the simulator ----
  profiling::ProfilerOptions exact;
  exact.time_noise_sd = 0.0;
  exact.counter_noise_sd = 0.0;
  profiling::Profiler profiler(exact);
  const gpusim::Device device(gpusim::gtx580());
  std::vector<double> ape, sim_s, oob;
  for (const auto& m : models_) {
    const serve::ModelBundle bundle = serve::load_bundle(m.name + serve::kBundleSuffix);
    for (const double size : m.heldout) {
      const auto t0 = Clock::now();
      const auto truth = profiler.profile(m.workload, device, size);
      sim_s.push_back(seconds_since(t0));
      const double pred = bundle.predictor.predict_guarded(size).value;
      ape.push_back(100.0 * std::fabs(pred - truth.time_ms) / truth.time_ms);
    }
    oob.push_back(m.oob_pct);
  }
  const double p50_us = median(base.latency_us);
  r.note("samples: setups=" + std::to_string(setup_s.size()) +
         " requests=" + std::to_string(base.latency_us.size()) +
         " heldout=" + std::to_string(ape.size()) +
         " conns=" + std::to_string(conns_) +
         " rate=" + std::to_string(kBaseRate));

  if (!opts_.trace) {
    r.set("setup_s", median(setup_s), "s");
    r.set("predict_p50_us", p50_us, "us");
    r.set("predict_p90_us", windowed_quantile(base, kBaseRate, 0.90), "us");
    r.set("pred_mape_pct", median(ape), "%");
    r.set("oob_var_pct", median(oob), "%");
    r.set("peak_rss_mb", self_peak_rss_mb() + server->peak_rss_mb(), "MB");
    stop_server();
    // More training samples after the window, so analysis_s is a median
    // over both ends of the run and over enough samples to ride out the
    // host's bursts of contention.
    std::filesystem::create_directories("extra");
    std::filesystem::current_path("extra");
    for (int k = 0; k < 20; ++k) {
      const auto t0 = Clock::now();
      ++r.attempted;
      if (train_and_export() != sim_digest) r.incorrect("training is not deterministic");
      analysis_s.push_back(seconds_since(t0));
    }
    std::string line = "analysis samples (s):";
    for (const double v : analysis_s) line += " " + std::to_string(v);
    r.note(line);
    r.set("analysis_s", steady_time(analysis_s), "s");
    return r;
  }

  // ---- per-layer (traced run) ----
  // Stats-reply counters, summed over the hot windows and the churn phase.
  std::map<std::string, double> counters;
  const auto add_deltas = [&](const std::map<std::string, double>& from,
                              const std::map<std::string, double>& to) {
    for (const auto& [k, v] : to) {
      const auto it = from.find(k);
      counters[k] += v - (it == from.end() ? 0.0 : it->second);
    }
  };
  add_deltas(before, after);
  r.set("serve.bundle_bytes",
        static_cast<double>(std::filesystem::file_size("reduce1.bfmodel") +
                            std::filesystem::file_size("needle.bfmodel")),
        "B");
  r.set("serve.cpu_us_per_req",
        1e6 * server_cpu_s / static_cast<double>(base.sent + traced.sent), "us");
  r.set("loadgen.lag_p99_ms", lag_p99_ms, "ms");
  r.set("predict_p99_us", windowed_quantile(base, kBaseRate, 0.99), "us");
  const double traced_p50 = median(traced.latency_us);
  r.set("trace.overhead_pct", p50_us > 0 ? 100.0 * (traced_p50 - p50_us) / p50_us : 0.0, "%");
  double grade_c = 0, clamps = 0, extrapolated = 0;
  for (const auto& e : expect_) {
    grade_c += e.rec.grade == guard::Grade::kC ? 1 : 0;
    clamps += static_cast<double>(e.rec.clamps.size());
    extrapolated += e.rec.extrapolated ? 1 : 0;
  }
  r.set("guard.grade_c", grade_c, "count");
  r.set("guard.clamps", clamps, "count");
  r.set("guard.extrapolated", extrapolated, "count");
  r.set("ml.trees", static_cast<double>(models_[1].trees), "count");
  r.set("ml.flat_nodes", static_cast<double>(models_[1].flat_nodes), "count");

  // Latency at a fixed higher rate, then the capacity ladder.
  const double hi_rate = 3.0 * kBaseRate;
  const LoadResult hi = load(hi_rate, 0.1 * secs, nullptr, 2000, plan_);
  account(r, hi, hi_rate, "hi", false);
  r.set("serve.p99_hi_us", windowed_quantile(hi, hi_rate, 0.99), "us");
  double max_qps = 0.0;
  for (const double mult : {2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0}) {
    const double rate = mult * kBaseRate;
    // Steps past the knee shed by design: they are reported, not
    // counted as failures of the run.
    const LoadResult step = load(rate, 0.06 * secs, nullptr, 3000, plan_);
    const bool kept_up =
        quantile(step.lag_us, 0.99) / 1e3 <= kLadderMaxLagP99Ms;
    const bool met = step.failed() == 0 &&
                     quantile(step.latency_us, 0.99) <= kLatencyLimitUs;
    r.note("ladder rate=" + std::to_string(rate) + " p99_us=" +
           std::to_string(quantile(step.latency_us, 0.99)) +
           " failed=" + std::to_string(step.failed()) +
           (kept_up ? "" : " (generator fell behind: step invalid)"));
    if (!kept_up || !met) break;
    max_qps = rate;
  }
  r.set("serve.max_qps", max_qps, "1/s");

  // Churn phase: a second server with a two-entry cache and the staleness
  // watcher. Odd slots round-robin the reduce1 copies, so the registry
  // misses, loads and evicts, while needle is rewritten every 200 ms.
  stop_server();
  server = start_server(true);
  warm(r, names_.size());
  const std::vector<LoadItem> churn_plan = build_plan(true);
  const auto churn_before = stats();
  LoadResult churn;
  {
    const Rewriter rewriter(needle_a_, needle_b_);
    churn = load(kChurnRate, 0.2 * secs, nullptr, 0, churn_plan);
  }
  account(r, churn, kChurnRate, "churn", true);
  add_deltas(churn_before, stats());
  r.set("serve.churn_p90_us", windowed_quantile(churn, kChurnRate, 0.90), "us");
  for (const char* k : {"hits", "misses", "loads", "evictions", "promotions",
                        "rollbacks", "coalesced"}) {
    r.set(std::string("serve.") + k, counters[k], "count");
  }
  r.set("serve.shed", counters["net.shed"], "count");

  in_process_layers(r);
  r.set("core.predict_vs_sim_ratio",
        median(sim_s) / (r.metrics["core.predict_us"].value * 1e-6), "ratio");
  stop_server();
  return r;
}

}  // namespace

Result run_serve(const Options& opts, Tracer& tracer) {
  return ServeBench(opts, tracer).run();
}

}  // namespace perfbench
