#include "profiling/cpu_sweep.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace bf::profiling {

ml::Dataset cpu_sweep(const cpusim::CpuWorkload& workload,
                      const cpusim::CpuDevice& device,
                      const std::vector<double>& sizes,
                      const CpuSweepOptions& options) {
  BF_CHECK_MSG(!sizes.empty(), "empty size sweep");
  Rng rng(options.seed);
  const auto jitter = [&](double v, double sd) {
    if (sd <= 0.0 || v == 0.0) return v;
    return v * std::clamp(rng.normal(1.0, sd), 0.5, 1.5);
  };

  ml::Dataset ds;
  bool schema_ready = false;
  std::vector<std::string> counter_names;
  for (const double size : sizes) {
    const auto kernel = workload.make(size, device.spec());
    cpusim::CpuRunResult r = device.run(*kernel, options.run);
    for (auto& [name, value] : r.counters) {
      value = jitter(value, options.counter_noise_sd);
    }
    r.time_ms = jitter(r.time_ms, options.time_noise_sd);

    if (!schema_ready) {
      ds.add_column("size", {});
      for (const auto& [name, _] : r.counters) {
        counter_names.push_back(name);
        ds.add_column(name, {});
      }
      if (options.machine_characteristics) {
        for (const auto& [name, _] :
             cpusim::cpu_machine_characteristics(device.spec())) {
          ds.add_column(name, {});
        }
      }
      ds.add_column("time_ms", {});
      schema_ready = true;
    }
    std::vector<double> row;
    row.push_back(size);
    for (const auto& name : counter_names) {
      row.push_back(r.counters.at(name));
    }
    if (options.machine_characteristics) {
      for (const auto& [_, value] :
           cpusim::cpu_machine_characteristics(device.spec())) {
        row.push_back(value);
      }
    }
    row.push_back(r.time_ms);
    ds.add_row(row);
  }
  return ds;
}

}  // namespace bf::profiling
