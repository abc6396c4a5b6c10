// Shared pieces of the benchmark driver: run options, the result record
// every workload fills, sample statistics, output digests and the
// in-memory span tracer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_binary;  ///< the unchanged bf_serve executable
  std::string digest_file;   ///< committed correctness digests
  std::string work_dir;      ///< scratch space inside the checkout
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `attempted`/`failed` count every operation the
/// workload performed (analyses, correctness checks, requests); a failed
/// correctness check also clears `correct`.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  ///< human-readable lines before the JSON

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  void incorrect(const std::string& why) {
    correct = false;
    ++failed;
    // The first few reasons are enough to act on; a broken gate can fire
    // once per request.
    if (failed <= 10) notes.push_back("INCORRECT: " + why);
  }
};

/// Linear-interpolated quantile of `v` (q in [0,1]); 0 for no samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Repeated wall-time samples of one piece of work (an analysis, or a
/// percentile of one round or window of requests) reduce to their
/// minimum. On a shared host contention only ever adds time, in bursts of
/// seconds and in slow phases of a minute or so; the minimum is the time
/// the work takes when the host leaves it alone. Over ten-run sets it
/// moved less between runs than the lower quartile or the median did.
inline double steady_time(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Streaming 64-bit FNV-1a over raw bytes of values.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex64(std::uint64_t v);

/// Committed digests: lines "<workload> <kind> <hex>". check() returns
/// "" only when the digest matches the committed one; an unreadable file
/// or a missing entry is an error like a mismatch.
class DigestBook {
 public:
  explicit DigestBook(const std::string& path);
  std::string check(const std::string& workload, const std::string& kind,
                    std::uint64_t digest) const;

 private:
  std::string path_;
  bool readable_ = false;
  std::map<std::string, std::string> entries_;  ///< "workload kind" -> hex
};

/// In-memory span recorder. Spans are kept until the run ends and then
/// written out; with tracing off every call is a no-op.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t trace_id = 0;
    int parent = -1;
    double start_s = 0.0;  ///< relative to the tracer's epoch
    double end_s = -1.0;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  bool on() const { return on_; }

  /// Open a span under `parent` (-1: the calling thread's current span).
  int begin(const std::string& name, std::uint64_t trace_id, int parent = -1);
  void end(int span);
  /// Record an already-finished span (e.g. a request timed by the
  /// load generator).
  void record(const std::string& name, std::uint64_t trace_id,
              Clock::time_point start, Clock::time_point end);

  /// Total duration per span name within one trace id.
  std::map<std::string, double> totals(std::uint64_t trace_id) const;
  /// Self time (duration minus the union of child spans) per name, over
  /// every span recorded.
  std::map<std::string, std::pair<std::size_t, double>> self_times() const;
  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; nests through a thread-local "current span".
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t trace_id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int span_ = -1;
  int saved_ = -1;
};

/// Peak resident set of this process, MB.
double self_peak_rss_mb();
/// CPU seconds (user + system) this process has used.
double self_cpu_s();

// Workload entry points (analyze.cpp, serve.cpp).
Result run_analyze(const Options& opts, Tracer& tracer);
Result run_serve(const Options& opts, Tracer& tracer);

}  // namespace perfbench
