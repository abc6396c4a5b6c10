// Extension A7 (paper §7): "first proving BF's usability on CPUs."
//
// The identical BlackForest core — forest, importance, counter models,
// problem scaling — runs on CPU perf counters produced by the cpusim
// substrate. Nothing in bf::core knows which processor the dataset came
// from.
#include <cstdio>

#include "bench_util.hpp"
#include "core/model.hpp"
#include "core/predictor.hpp"
#include "cpusim/cpu_workloads.hpp"
#include "profiling/cpu_sweep.hpp"
#include "ml/metrics.hpp"

int main() {
  using namespace bf;
  bench::print_header("Extension A7",
                      "BlackForest on CPU performance counters "
                      "(blocked matmul, Xeon E5-2620 model)");

  const cpusim::CpuDevice device(cpusim::xeon_e5_2620());
  std::vector<double> sizes;
  for (int n = 64; n <= 1024; n += 48) sizes.push_back(n);
  const auto sweep =
      profiling::cpu_sweep(cpusim::cpu_matmul_workload(), device, sizes);
  std::printf("collected %zu runs of cpu_matmul, n in [64, 1024]\n\n",
              sweep.num_rows());

  core::ModelOptions mo;
  mo.forest.n_trees = 400;
  mo.forest.min_node_size = 2;
  const auto model = core::BlackForestModel::fit(sweep, mo);
  bench::print_importance(model, 10,
                          "variable importance (CPU counters)");

  core::ProblemScalingOptions pso;
  pso.model.forest.n_trees = 400;
  const auto predictor = core::ProblemScalingPredictor::build(sweep, pso);
  const auto& test = predictor.full_model().test_data();
  const auto series = predictor.validate(test.column("size"),
                                         test.column("time_ms"));
  bench::print_prediction_series("execution-time prediction (CPU)",
                                 series.sizes, series.measured_ms,
                                 series.predicted_ms);
  std::printf("MSE %.4g, explained variance %.1f%%, median |err| %.1f%%\n",
              series.mse, 100.0 * series.explained_variance,
              series.median_abs_pct_error);

  // Contrast two CPU workload characters, as §5 does for GPU kernels.
  std::printf("\nbottleneck contrast (fixed size):\n");
  const auto mm = device.run(*cpusim::cpu_matmul_workload().make(
      512, device.spec()));
  const auto triad = device.run(*cpusim::cpu_triad_workload().make(
      1 << 22, device.spec()));
  std::printf("  cpu_matmul : ipc %.2f, bw util %4.1f%%, %s\n",
              mm.counters.at("ipc"),
              100.0 * mm.counters.at("mem_bw_utilization"),
              mm.bandwidth_bound ? "bandwidth-bound" : "compute-bound");
  std::printf("  cpu_triad  : ipc %.2f, bw util %4.1f%%, %s\n",
              triad.counters.at("ipc"),
              100.0 * triad.counters.at("mem_bw_utilization"),
              triad.bandwidth_bound ? "bandwidth-bound" : "compute-bound");
  return 0;
}
