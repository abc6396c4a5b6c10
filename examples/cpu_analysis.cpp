// BlackForest on a CPU (paper §7: a unified modelling approach for
// heterogeneous platforms). Same core pipeline, different substrate:
// perf-style counters from the cpusim multicore model.
//
// Build & run:  ./build/examples/cpu_analysis
#include <cstdio>

#include "core/bottleneck.hpp"
#include "core/model.hpp"
#include "cpusim/cpu_workloads.hpp"
#include "profiling/cpu_sweep.hpp"

int main() {
  using namespace bf;
  const cpusim::CpuDevice device(cpusim::xeon_e5_2620());

  std::vector<double> sizes;
  for (int n = 64; n <= 768; n += 32) sizes.push_back(n);
  std::printf("profiling cpu_matmul on %s (%zu sizes)...\n",
              device.spec().name.c_str(), sizes.size());
  const auto sweep =
      profiling::cpu_sweep(cpusim::cpu_matmul_workload(), device, sizes);

  core::ModelOptions opt;
  opt.forest.n_trees = 300;
  const auto model = core::BlackForestModel::fit(sweep, opt);
  std::printf("forest explains %.1f%% of variance (OOB)\n\n",
              model.pct_var_explained());
  std::printf("most influential CPU counters:\n");
  const auto imp = model.importance();
  for (std::size_t i = 0; i < imp.size() && i < 6; ++i) {
    std::printf("  %-22s %%IncMSE %.2f\n", imp[i].name.c_str(),
                imp[i].pct_inc_mse);
  }

  // The same bottleneck classifier runs, though CPU counter names land
  // in the unclassified bucket by design — this prints the raw ranking
  // a CPU-specific pattern table would build on.
  std::printf("\ncontrast across CPU models (n = 512):\n");
  for (const auto& spec :
       {cpusim::xeon_e5_2620(), cpusim::core_i7_4770k()}) {
    const cpusim::CpuDevice dev(spec);
    const auto r =
        dev.run(*cpusim::cpu_matmul_workload().make(512, spec));
    std::printf("  %-14s %8.3f ms  ipc %.2f  llc_misses %.0f\n",
                spec.name.c_str(), r.time_ms, r.counters.at("ipc"),
                r.counters.at("llc_misses"));
  }
  return 0;
}
