// CPU sweep adapter for the heterogeneous extension: profiles a cpusim
// workload across problem sizes into the same kind of ml::Dataset the
// GPU sweep produces ("size" + perf counters + "time_ms"), so the entire
// BlackForest core runs unchanged on CPU data — the unified-modelling
// claim of §7.
#pragma once

#include <cstdint>
#include <vector>

#include "cpusim/cpu_engine.hpp"
#include "cpusim/cpu_workloads.hpp"
#include "ml/dataset.hpp"

namespace bf::profiling {

struct CpuSweepOptions {
  double time_noise_sd = 0.02;
  double counter_noise_sd = 0.003;
  std::uint64_t seed = 555;
  bool machine_characteristics = false;
  cpusim::CpuRunOptions run;
};

/// Profile `workload` across sizes into a BlackForest-ready dataset
/// ("size" + perf counters + "time_ms").
ml::Dataset cpu_sweep(const cpusim::CpuWorkload& workload,
                      const cpusim::CpuDevice& device,
                      const std::vector<double>& sizes,
                      const CpuSweepOptions& options = {});

}  // namespace bf::profiling
