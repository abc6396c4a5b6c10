#include "guard/physical.hpp"

#include <cmath>
#include <sstream>

namespace bf::guard {
namespace {

std::string format_value(double v) {
  std::ostringstream os;
  os.precision(4);
  os << v;
  return os.str();
}

}  // namespace

std::vector<PhysicalCap> ratio_caps() {
  std::vector<PhysicalCap> caps;
  for (const char* name :
       {"achieved_occupancy", "warp_execution_efficiency",
        "issue_slot_utilization", "gld_efficiency", "gst_efficiency",
        "flop_sp_efficiency"}) {
    caps.push_back({name, 1.0, "ratio metric <= 1"});
  }
  return caps;
}

std::vector<PhysicalCap> static_caps(const gpusim::ArchSpec& arch) {
  std::vector<PhysicalCap> caps = ratio_caps();
  const double issue_width =
      static_cast<double>(arch.warp_schedulers_per_sm) *
      static_cast<double>(arch.dispatch_units_per_scheduler);
  caps.push_back({"ipc", issue_width,
                  "IPC <= schedulers x dispatch units (" +
                      format_value(issue_width) + ")"});
  caps.push_back({"dram_read_throughput", arch.mem_bandwidth_gbs,
                  "DRAM read throughput <= " +
                      format_value(arch.mem_bandwidth_gbs) + " GB/s"});
  caps.push_back({"dram_write_throughput", arch.mem_bandwidth_gbs,
                  "DRAM write throughput <= " +
                      format_value(arch.mem_bandwidth_gbs) + " GB/s"});
  return caps;
}

std::optional<TimeCaps> time_caps(const gpusim::ArchSpec& arch,
                                  double predicted_time_ms) {
  if (!(predicted_time_ms > 0.0) || !std::isfinite(predicted_time_ms)) {
    return std::nullopt;
  }
  const double time_s = predicted_time_ms * 1e-3;
  const double bus_bytes = arch.mem_bandwidth_gbs * 1e9 * time_s;
  TimeCaps caps;
  caps.max_transactions =
      bus_bytes / static_cast<double>(arch.l2_transaction_bytes);
  caps.max_issued = static_cast<double>(arch.sm_count) *
                    static_cast<double>(arch.warp_schedulers_per_sm) *
                    static_cast<double>(arch.dispatch_units_per_scheduler) *
                    arch.clock_ghz * 1e9 * time_s;
  return caps;
}

std::string time_cap_reason(TimeLaw law, double bound) {
  return law == TimeLaw::kBusTransactions
             ? "bandwidth x predicted time allows <= " + format_value(bound) +
                   " transactions"
             : "issue rate x predicted time allows <= " +
                   format_value(bound) + " warp instructions";
}

bool exceeds_cap(double value, double cap, double tolerance) {
  return std::isfinite(value) && value > cap * (1.0 + tolerance);
}

std::string clamp_text(const std::string& counter, double from, double to,
                       const std::string& reason) {
  std::ostringstream os;
  os << counter << ": " << from << " -> " << to << " (" << reason << ")";
  return os.str();
}

double clamp_power_to_envelope(const gpusim::ArchSpec& arch, double watts,
                               double tolerance,
                               std::vector<std::string>& clamps) {
  if (!std::isfinite(watts)) return watts;
  if (watts > arch.tdp_w * (1.0 + tolerance)) {
    clamps.push_back(clamp_text("power_avg_w", watts, arch.tdp_w,
                                "board power <= TDP (" +
                                    format_value(arch.tdp_w) + " W on " +
                                    arch.name + ")"));
    return arch.tdp_w;
  }
  if (watts < arch.idle_w * (1.0 - tolerance)) {
    clamps.push_back(clamp_text("power_avg_w", watts, arch.idle_w,
                                "board power >= idle floor (" +
                                    format_value(arch.idle_w) + " W on " +
                                    arch.name + ")"));
    return arch.idle_w;
  }
  return watts;
}

}  // namespace bf::guard
