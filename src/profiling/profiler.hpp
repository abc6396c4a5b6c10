// The nvprof analogue: run an application on a (simulated) device, derive
// the nvprof-style metric set from the raw events, and return a named
// counter vector plus the measured execution time.
//
// This is the paper's data-collection stage (§4.2): "We perform data
// collection by running the application multiple times on the architecture
// of interest, with different problem characteristics … Performance
// counter data are collected using nvprof."
#pragma once

#include <exception>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/engine.hpp"

namespace bf::profiling {

/// An application under study: named, and runnable for a given problem
/// size on a given device. Multi-launch applications aggregate internally.
///
/// `run` must be deterministic (the same device and size give the same
/// result bit for bit) and callable concurrently for distinct sizes: a
/// sweep simulates each size once, all sizes at once, and re-measures
/// that one run for every attempt and replicate. Every workload in
/// workloads.hpp builds its kernel per call and shares no mutable state.
struct Workload {
  std::string name;
  std::function<gpusim::AggregateResult(const gpusim::Device&,
                                        double problem_size)>
      run;
};

/// One finished run of a workload at one size: its aggregate, or the
/// exception the run threw.
struct SimulatedRun {
  gpusim::AggregateResult result;
  std::exception_ptr error;
};

/// Call `workload.run` once, capturing whatever it throws.
SimulatedRun simulate(const Workload& workload, const gpusim::Device& device,
                      double problem_size);

/// One profiled run: the problem characteristics, every counter/metric
/// available on the architecture, and the measured time.
struct ProfileResult {
  std::string workload;
  std::string arch;
  std::map<std::string, double> problem;   ///< e.g. {"size": 1024}
  std::map<std::string, double> counters;  ///< nvprof counter -> value
  double time_ms = 0.0;
};

struct ProfilerOptions {
  /// Multiplicative Gaussian noise applied to the measured time
  /// (run-to-run variation of a real GPU; nvprof counters themselves are
  /// nearly exact, so they receive `counter_noise_sd` only).
  double time_noise_sd = 0.02;
  double counter_noise_sd = 0.003;
  std::uint64_t seed = 1234;
  /// Validate every run against the bf::check counter invariants: the
  /// raw engine counters at engine tolerance and the profiled metric set
  /// at measured tolerance; throws bf::Error on violation.
  bool validate = false;
};

class Profiler {
 public:
  explicit Profiler(ProfilerOptions options = {});

  /// Profile one run of `workload` at `problem_size` on `device`:
  /// simulate() it, then measure() the result.
  ProfileResult profile(const Workload& workload,
                        const gpusim::Device& device, double problem_size);

  /// Measure a finished run as nvprof would: draw the injected crash,
  /// rethrow the run's own error, draw the timeout, derive the metric
  /// set, add measurement noise and the dropout and spike faults, and
  /// validate. Measuring the same run again is a fresh attempt or
  /// replicate: noise and fault draws advance, the simulation does not
  /// repeat.
  ProfileResult measure(const Workload& workload,
                        const gpusim::Device& device, double problem_size,
                        const SimulatedRun& run);

  /// Derive the architecture's full nvprof metric set from raw events.
  /// Exposed for tests; `time_ms` must be the (noise-free) elapsed time.
  static std::map<std::string, double> derive_metrics(
      const gpusim::ArchSpec& arch, const gpusim::CounterSet& counters,
      double time_ms);

 private:
  ProfilerOptions options_;
  Rng rng_;
};

}  // namespace bf::profiling
