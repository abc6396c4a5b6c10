// Problem-scaling prediction (paper §6.1.1): train on a sweep of matrix
// sizes, model the retained counters as functions of the size, and
// predict the execution time of sizes the forest never saw.
//
// Build & run:  ./build/examples/matmul_prediction [max_train_size]
#include <cstdio>

#include "common/string_util.hpp"
#include "core/predictor.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"

int main(int argc, char** argv) {
  using namespace bf;
  const int max_n =
      argc > 1 ? static_cast<int>(parse_int(argv[1])) : 1024;

  const gpusim::Device device(gpusim::gtx580());
  const auto workload = profiling::matmul_workload();

  // Collect the training sweep.
  const auto sizes = profiling::log2_sizes(32, max_n, 20, 16);
  std::printf("profiling %zu matrix sizes in [32, %d] on %s...\n",
              sizes.size(), max_n, device.arch().name.c_str());
  const auto sweep = profiling::sweep(workload, device, sizes);

  // Build the predictor: forest + top-variable selection + per-counter
  // GLM/MARS models in terms of the matrix size.
  core::ProblemScalingOptions options;
  options.model.exclude = {"power_avg_w", "flop_sp_efficiency"};
  const auto predictor =
      core::ProblemScalingPredictor::build(sweep, options);

  std::printf("retained variables:");
  for (const auto& v : predictor.retained()) std::printf(" %s", v.c_str());
  std::printf("\ncounter models: average R^2 %.4f\n\n",
              predictor.counter_models().average_r2());

  // Predict sizes that were never profiled, then verify.
  profiling::Profiler profiler;
  std::printf("%-8s %-14s %-14s %s\n", "n", "predicted_ms", "measured_ms",
              "error");
  // Sizes strictly inside the training range: a random forest cannot
  // extrapolate beyond the response values it has seen (leaves predict
  // training means), so predictions at the extreme edges degrade.
  for (const double n : {112.0, 208.0, 416.0, 608.0, 800.0, 928.0}) {
    if (n > max_n) continue;
    const double predicted = predictor.predict_guarded(n).value;
    const double measured = profiler.profile(workload, device, n).time_ms;
    std::printf("%-8.0f %-14.4f %-14.4f %+.1f%%\n", n, predicted, measured,
                100.0 * (predicted - measured) / measured);
  }
  return 0;
}
