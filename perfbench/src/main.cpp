// bf_perfbench — the BlackForest benchmark driver.
//
//   bf_perfbench --workload analyze_mm_fresh --seed 1 --seconds 10 \
//       --trace 0 --serve-binary PATH --digests FILE --work-dir DIR
//
// Runs one workload, checks its outputs, and prints a few human-readable
// lines followed by one JSON object (the last line of stdout) holding
// every metric the run measured: the end-to-end ones untraced
// (--trace 0), the per-layer ones traced (--trace 1). perfbench/run.py
// builds this binary, keeps the metrics BENCHMARK.json declares, and is
// the documented entry point.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

const std::set<std::string> kWorkloads = {"analyze_mm_fresh",
                                          "analyze_nw_cached", "serve_hot"};

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "bf_perfbench: %s\n", what.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = static_cast<std::uint64_t>(bf::parse_int(next()));
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = bf::parse_double(next());
    } else if (a == "--trace") {
      o.trace = bf::parse_int(next()) != 0;
    } else if (a == "--serve-binary") {
      o.serve_binary = next();
    } else if (a == "--digests") {
      o.digest_file = next();
    } else if (a == "--work-dir") {
      o.work_dir = next();
    } else {
      usage_error("unknown option: " + a);
    }
  }
  if (kWorkloads.count(o.workload) == 0) {
    usage_error("unknown --workload '" + o.workload + "'");
  }
  if (!have_seed) usage_error("--seed is required");
  if (!(o.seconds > 0.0)) usage_error("--seconds must be positive");
  if (o.work_dir.empty()) usage_error("--work-dir is required");
  return o;
}

/// The machine-readable result: every metric this run measured. run.py
/// selects the ones BENCHMARK.json declares for the run's mode.
void print_json(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);

  // Numbers from sanitized or unoptimised builds are never comparable.
  const std::string build = bf::build_type();
  const std::string sanitizer = bf::sanitizer();
  if (sanitizer != "none" || build.empty() || build == "Debug" ||
      build == "unknown") {
    std::fprintf(stderr,
                 "bf_perfbench: refusing to measure a %s build with "
                 "sanitizer=%s; use RelWithDebInfo or Release without one\n",
                 build.empty() ? "(no build type)" : build.c_str(),
                 sanitizer.c_str());
    return 2;
  }

  try {
    bf::logging::set_level(bf::LogLevel::kError);
    std::filesystem::create_directories(opts.work_dir);
    std::filesystem::current_path(opts.work_dir);

    perfbench::Tracer tracer(opts.trace);
    const bool serve = opts.workload.rfind("serve_", 0) == 0;
    Result r = serve ? perfbench::run_serve(opts, tracer)
                     : perfbench::run_analyze(opts, tracer);

    std::printf("env: nproc=%u build=%s sanitizer=%s version=\"%s\" "
                "workload=%s seed=%llu seconds=%g trace=%d\n",
                std::thread::hardware_concurrency(), build.c_str(),
                sanitizer.c_str(), bf::version_string().c_str(),
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);
    for (const auto& line : r.notes) std::printf("%s\n", line.c_str());
    if (opts.trace) {
      std::printf("span self time (name, count, self_s):\n");
      for (const auto& [name, cs] : tracer.self_times()) {
        std::printf("  %-28s %8zu %12.6f\n", name.c_str(), cs.first,
                    cs.second);
      }
      tracer.write("trace.jsonl");
    }
    if (r.attempted == 0) r.incorrect("nothing was attempted");
    if (r.failed > r.attempted) r.attempted = r.failed;
    if (!opts.trace) {
      r.set("ok_frac",
            1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted),
            "frac");
    }
    for (const auto& [name, m] : r.metrics) {
      std::printf("metric %-28s %.6g %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
    print_json(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bf_perfbench: %s\n", e.what());
    return 1;
  }
}
