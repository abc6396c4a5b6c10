// Instrumentation around the simulator layer, plus the size helpers the
// workloads share.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "gpusim/counters.hpp"
#include "profiling/profiler.hpp"

namespace perfbench {

/// Wraps profiling::Workload::run: times every simulated application
/// run, counts launches and issued instructions, and digests each
/// counter vector. The digest is order-independent (sorted by size and
/// per-run hash), so a sweep that runs its sizes in parallel still
/// produces the same value.
class SimProbe {
 public:
  struct Totals {
    double run_s = 0.0;
    std::uint64_t runs = 0;
    std::uint64_t launches = 0;
    double inst_issued = 0.0;
  };

  /// The tracer receives a "gpusim.run" span per run; nullptr records
  /// none.
  void set_tracer(Tracer* tracer, std::uint64_t trace_id) {
    tracer_.store(tracer);
    trace_id_.store(trace_id);
  }

  bf::profiling::Workload wrap(const bf::profiling::Workload& inner) {
    bf::profiling::Workload w;
    w.name = inner.name;
    w.run = [this, run = inner.run](const bf::gpusim::Device& device,
                                    double size) {
      Tracer* tracer = tracer_.load();
      const int span =
          tracer != nullptr ? tracer->begin("gpusim.run", trace_id_.load()) : -1;
      const auto t0 = Clock::now();
      bf::gpusim::AggregateResult res = run(device, size);
      const double dt = seconds_since(t0);
      if (tracer != nullptr) tracer->end(span);
      Fnv h;
      h.f64(size);
      h.f64(res.time_ms);
      h.u64(static_cast<std::uint64_t>(res.launches));
      for (std::size_t e = 0; e < bf::gpusim::kNumEvents; ++e) {
        h.f64(res.counters.get(static_cast<bf::gpusim::Event>(e)));
      }
      std::lock_guard<std::mutex> lock(mu_);
      totals_.run_s += dt;
      ++totals_.runs;
      totals_.launches += static_cast<std::uint64_t>(res.launches);
      totals_.inst_issued +=
          res.counters.get(bf::gpusim::Event::kInstIssued);
      runs_.emplace_back(size, h.value());
      return res;
    };
    return w;
  }

  /// Totals since the last take(), then reset.
  Totals take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(totals_, Totals{});
  }

  void reset_digest() {
    std::lock_guard<std::mutex> lock(mu_);
    runs_.clear();
  }

  std::uint64_t digest() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<double, std::uint64_t>> sorted = runs_;
    std::sort(sorted.begin(), sorted.end());
    Fnv h;
    for (const auto& [size, hash] : sorted) {
      h.f64(size);
      h.u64(hash);
    }
    return h.value();
  }

 private:
  std::atomic<Tracer*> tracer_{nullptr};
  std::atomic<std::uint64_t> trace_id_{0};
  std::mutex mu_;
  Totals totals_;
  std::vector<std::pair<double, std::uint64_t>> runs_;
};

/// Seed of one input stream derived from the workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  bf::Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ull));
  return rng();
}

/// Geometric midpoints of consecutive training sizes, rounded to
/// `multiple`, minus any size that is itself trained on.
inline std::vector<double> heldout_sizes(const std::vector<double>& train,
                                         double multiple) {
  std::vector<double> out;
  for (std::size_t i = 0; i + 1 < train.size(); ++i) {
    const double mid =
        std::round(std::sqrt(train[i] * train[i + 1]) / multiple) * multiple;
    if (std::find(train.begin(), train.end(), mid) == train.end() &&
        std::find(out.begin(), out.end(), mid) == out.end()) {
      out.push_back(mid);
    }
  }
  return out;
}

}  // namespace perfbench
