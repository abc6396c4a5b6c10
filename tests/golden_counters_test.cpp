// Golden simulator counters: every workload of the library, on all four
// architectures, at three small sizes, must reproduce the committed
// fnv1a64 digest of its full AggregateResult (every event, time_ms and
// launches, bit for bit). Performance work on the simulator must leave
// this table untouched.
//
// The table lives in tests/data/golden_counters.txt. When a deliberate
// model change moves counters, the failure message prints the complete
// recomputed table; review the change and paste it over the file.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/io.hpp"
#include "golden_table.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/engine.hpp"
#include "profiling/workloads.hpp"

namespace bf {
namespace {

using gpusim::AggregateResult;
using gpusim::Device;
using gpusim::Event;

/// Three small sizes per workload family, respecting each kernel's size
/// multiple. The largest launches more than the 128 blocks the engine
/// simulates by default, so sampled runs are pinned too (needle's strip
/// launches stay narrower at every size).
std::vector<double> golden_sizes(const std::string& workload) {
  if (workload == "matrixMul") return {32, 96, 256};
  if (workload == "needle") return {64, 128, 256};
  if (workload.rfind("transpose_", 0) == 0 || workload == "stencil5") {
    return {64, 160, 512};
  }
  return {4096, 40000, 1 << 18};  // element-count workloads
}

std::string digest(const AggregateResult& agg) {
  std::string text;
  for (std::size_t i = 0; i < gpusim::kNumEvents; ++i) {
    const auto e = static_cast<Event>(i);
    text += gpusim::event_name(e);
    text += '=';
    text += bits_hex(agg.counters.get(e));
    text += '\n';
  }
  text += "time_ms=" + bits_hex(agg.time_ms) + '\n';
  text += "launches=" + std::to_string(agg.launches) + '\n';
  return to_hex64(fnv1a64(text));
}

TEST(GoldenCounters, EveryWorkloadArchAndSizeMatchesTable) {
  std::vector<std::pair<std::string, std::string>> got;
  for (const char* arch : {"gtx580", "gtx480", "k20m", "k40"}) {
    const Device device(gpusim::arch_by_name(arch));
    for (const auto& w : profiling::all_workloads()) {
      for (const double size : golden_sizes(w.name)) {
        const std::string key =
            w.name + ' ' + arch + ' ' + std::to_string(
                                            static_cast<long long>(size));
        got.emplace_back(key, digest(w.run(device, size)));
      }
    }
  }
  expect_golden_table(BF_GOLDEN_COUNTERS, got);
}

}  // namespace
}  // namespace bf
