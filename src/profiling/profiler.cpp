#include "profiling/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "check/check.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "gpusim/power.hpp"
#include "profiling/counter_registry.hpp"

namespace bf::profiling {

using gpusim::Event;

Profiler::Profiler(ProfilerOptions options)
    : options_(options), rng_(options.seed) {}

std::map<std::string, double> Profiler::derive_metrics(
    const gpusim::ArchSpec& arch, const gpusim::CounterSet& c,
    double time_ms) {
  BF_CHECK_MSG(time_ms > 0.0, "non-positive elapsed time");
  const double time_s = time_ms * 1e-3;
  const double gbps = 1e-9 / time_s;  // bytes -> GB/s factor

  std::map<std::string, double> m;
  // ---- raw events ----
  m["inst_executed"] = c.get(Event::kInstExecuted);
  m["inst_issued"] = c.get(Event::kInstIssued);
  m["branch"] = c.get(Event::kBranch);
  m["divergent_branch"] = c.get(Event::kDivergentBranch);
  m["gld_request"] = c.get(Event::kGldRequest);
  m["gst_request"] = c.get(Event::kGstRequest);
  m["l1_global_load_hit"] = c.get(Event::kL1GlobalLoadHit);
  m["l1_global_load_miss"] = c.get(Event::kL1GlobalLoadMiss);
  m["global_store_transaction"] = c.get(Event::kGlobalStoreTransaction);
  m["l2_read_transactions"] = c.get(Event::kL2ReadTransactions);
  m["l2_write_transactions"] = c.get(Event::kL2WriteTransactions);
  m["dram_read_transactions"] = c.get(Event::kDramReadTransactions);
  m["dram_write_transactions"] = c.get(Event::kDramWriteTransactions);
  m["shared_load"] = c.get(Event::kSharedLoad);
  m["shared_store"] = c.get(Event::kSharedStore);
  m["l1_shared_bank_conflict"] = c.get(Event::kSharedBankConflict);
  m["shared_load_replay"] = c.get(Event::kSharedLoadReplay);
  m["shared_store_replay"] = c.get(Event::kSharedStoreReplay);

  // ---- derived metrics ----
  const double executed = std::max(1.0, c.get(Event::kInstExecuted));
  const double active_cycles = c.get(Event::kActiveCycles);
  m["ipc"] = active_cycles > 0 ? c.get(Event::kInstExecuted) / active_cycles
                               : 0.0;
  const double slots = c.get(Event::kIssueSlotsTotal);
  m["issue_slot_utilization"] =
      slots > 0 ? c.get(Event::kInstIssued) / slots : 0.0;
  m["achieved_occupancy"] =
      active_cycles > 0
          ? c.get(Event::kActiveWarpCycles) /
                (active_cycles * arch.max_warps_per_sm)
          : 0.0;
  m["warp_execution_efficiency"] =
      c.get(Event::kThreadInstExecuted) / (executed * arch.warp_size);
  m["inst_replay_overhead"] =
      (c.get(Event::kInstIssued) - c.get(Event::kInstExecuted)) / executed;
  m["shared_replay_overhead"] =
      c.get(Event::kSharedBankConflict) / executed;

  const double gld_seg_bytes = arch.l1_caches_global_loads
                                   ? arch.l1_transaction_bytes
                                   : arch.l2_transaction_bytes;
  const double gld_actual_bytes =
      c.get(Event::kGlobalLoadTransaction) * gld_seg_bytes;
  const double gst_actual_bytes =
      c.get(Event::kGlobalStoreTransaction) * arch.l2_transaction_bytes;
  m["gld_requested_throughput"] =
      c.get(Event::kGlobalLoadBytesRequested) * gbps;
  m["gst_requested_throughput"] =
      c.get(Event::kGlobalStoreBytesRequested) * gbps;
  m["gld_throughput"] = gld_actual_bytes * gbps;
  m["gst_throughput"] = gst_actual_bytes * gbps;
  m["gld_efficiency"] =
      gld_actual_bytes > 0
          ? c.get(Event::kGlobalLoadBytesRequested) / gld_actual_bytes
          : 0.0;
  m["gst_efficiency"] =
      gst_actual_bytes > 0
          ? c.get(Event::kGlobalStoreBytesRequested) / gst_actual_bytes
          : 0.0;
  m["l2_read_throughput"] =
      c.get(Event::kL2ReadTransactions) * arch.l2_transaction_bytes * gbps;
  m["l2_write_throughput"] =
      c.get(Event::kL2WriteTransactions) * arch.l2_transaction_bytes * gbps;
  m["dram_read_throughput"] = c.get(Event::kDramReadTransactions) *
                              arch.l2_transaction_bytes * gbps;
  m["dram_write_throughput"] = c.get(Event::kDramWriteTransactions) *
                               arch.l2_transaction_bytes * gbps;

  const double peak_flops =
      arch.flops_per_sm_cycle() * arch.sm_count * arch.clock_ghz * 1e9;
  m["flop_sp_efficiency"] =
      peak_flops > 0 ? c.get(Event::kFlopCount) / time_s / peak_flops : 0.0;
  m["power_avg_w"] = gpusim::estimate_power(arch, c, time_ms).total_w;

  // Keep only counters that exist on this architecture generation.
  std::map<std::string, double> filtered;
  for (const auto& [name, value] : m) {
    if (counter_available(name, arch.generation)) {
      filtered.emplace(name, value);
    }
  }
  return filtered;
}

SimulatedRun simulate(const Workload& workload, const gpusim::Device& device,
                      double problem_size) {
  SimulatedRun run;
  try {
    run.result = workload.run(device, problem_size);
  } catch (...) {
    run.error = std::current_exception();
  }
  return run;
}

ProfileResult Profiler::profile(const Workload& workload,
                                const gpusim::Device& device,
                                double problem_size) {
  return measure(workload, device, problem_size,
                 simulate(workload, device, problem_size));
}

ProfileResult Profiler::measure(const Workload& workload,
                                const gpusim::Device& device,
                                double problem_size, const SimulatedRun& run) {
  BF_CHECK_MSG(static_cast<bool>(workload.run),
               "workload '" << workload.name << "' has no run function");
  // Injected driver crash: the run aborts before the workload executes
  // (see bf::fault; unarmed points cost one atomic load).
  if (fault::should_fire(fault::points::kProfilerRunCrash)) {
    throw Error("injected fault: profiler run of '" + workload.name +
                "' crashed");
  }
  if (run.error) std::rethrow_exception(run.error);
  const gpusim::AggregateResult& agg = run.result;
  // Injected timeout: the run completed but took too long; its data is
  // discarded exactly as a watchdog kill would.
  if (fault::should_fire(fault::points::kProfilerRunTimeout)) {
    throw Error("injected fault: profiler run of '" + workload.name +
                "' timed out");
  }
  BF_CHECK_MSG(agg.time_ms > 0.0,
               "workload '" << workload.name << "' reported zero time");

  ProfileResult out;
  out.workload = workload.name;
  out.arch = device.arch().name;
  out.problem["size"] = problem_size;
  out.counters = derive_metrics(device.arch(), agg.counters, agg.time_ms);

  // Measurement noise: multiplicative Gaussian, clamped so a wild draw
  // can never flip a value's sign.
  const auto jitter = [&](double v, double sd) {
    if (sd <= 0.0 || v == 0.0) return v;
    const double f = std::clamp(rng_.normal(1.0, sd), 0.5, 1.5);
    return v * f;
  };
  for (auto& [name, value] : out.counters) {
    value = jitter(value, options_.counter_noise_sd);
  }
  // Ratio metrics have hard physical caps a real profiler never exceeds;
  // keep the jitter from crossing them.
  for (const char* capped :
       {"achieved_occupancy", "warp_execution_efficiency",
        "issue_slot_utilization", "gld_efficiency", "gst_efficiency"}) {
    const auto it = out.counters.find(capped);
    if (it != out.counters.end()) it->second = std::min(it->second, 1.0);
  }
  out.time_ms = jitter(agg.time_ms, options_.time_noise_sd);

  // Injected counter dropout: nvprof-style multiplexing loses individual
  // events; the counter stays in the schema but its value is NaN.
  if (fault::active()) {
    for (auto& [name, value] : out.counters) {
      (void)name;
      if (fault::should_fire(fault::points::kProfilerCounterDropout)) {
        value = std::numeric_limits<double>::quiet_NaN();
      }
    }
    // Injected noise spike: background interference inflates this
    // replicate's measured time (median aggregation should reject it).
    if (fault::should_fire(fault::points::kProfilerNoiseSpike)) {
      out.time_ms *= 4.0;
    }
    // Injected power-label spike: a power-rail sensor glitch inflates
    // this replicate's derived power label 5x; median aggregation
    // should reject it and the TDP check rule catches a leak.
    if (fault::should_fire(fault::points::kPowerLabelSpike)) {
      const auto it = out.counters.find("power_avg_w");
      if (it != out.counters.end() && std::isfinite(it->second)) {
        it->second *= 5.0;
      }
    }
  }

  if (options_.validate) {
    auto metrics = out.counters;
    metrics["time_ms"] = out.time_ms;
    // Validation-only energy mirror: recompute the breakdown at the
    // reported time so energy = power x time is checked on one
    // consistent basis (noise cancels); a unit slip inside
    // estimate_power still shifts energy_j by 1000x and fires the rule.
    if (metrics.count("power_avg_w") != 0) {
      const gpusim::PowerBreakdown pb =
          gpusim::estimate_power(device.arch(), agg.counters, out.time_ms);
      metrics["power_total_w"] = pb.total_w;
      metrics["energy_j"] = pb.energy_j;
    }
    // Raw events at engine tolerance first: many conservation laws
    // (transactions per request, DRAM fills per L2 miss, warp slots)
    // reference counters the derived metric set does not carry.
    std::vector<check::Violation> violations =
        check::validate(agg.counters, device.arch());
    const auto derived = check::validate_metrics(metrics, device.arch());
    violations.insert(violations.end(), derived.begin(), derived.end());
    check::throw_if_errors(
        violations, "profiled run of '" + workload.name + "' on " + out.arch);
  }
  return out;
}

}  // namespace bf::profiling
