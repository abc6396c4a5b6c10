// The warp-level timing engine and device front end.
//
// Execution model (a deliberately simplified GPGPU-Sim):
//  * Thread blocks are distributed round-robin over SMs; each SM keeps up
//    to the occupancy limit of blocks resident and admits the next queued
//    block as one retires.
//  * Each SM steps a cycle loop. Warps are statically assigned to warp
//    schedulers; per cycle each free scheduler issues from its ready warps
//    (round-robin), up to dispatch_units_per_scheduler instructions.
//  * Arithmetic ops occupy the scheduler for the warp-wide issue cost and
//    stall the issuing warp for the dependence latency (back-to-back
//    instructions of one warp are assumed dependent; concurrency comes
//    from other warps — i.e. from occupancy, as on real hardware).
//  * Memory ops run through the coalescer; every transaction beyond the
//    first is an instruction replay that occupies an extra issue slot.
//    Loads probe L1 (Fermi global-load path) and a per-SM slice of L2;
//    the worst transaction's level determines the warp's stall latency.
//  * Shared-memory ops serialise over bank-conflict passes; each extra
//    pass is a replay (counted in the *_replay / bank-conflict events).
//  * __syncthreads() parks warps until every live warp of the block
//    arrives.
//
// Large grids are sampled: a representative subset of blocks is simulated
// and every extensive counter plus the elapsed time is scaled by
// total/sampled. A device-level DRAM bandwidth roofline is applied on top
// of the latency model, since per-SM simulation cannot model global
// bandwidth contention directly.
//
// How a launch runs on the host:
//  * Lowering as kernels emit. When an SM admits a block, the kernel
//    emits each warp through a TraceSink that writes 12-byte records
//    straight into the warp's trace: op, mask, access width, divergence,
//    plus the shared access's bank passes or the global access's
//    transaction count and an offset into the warp's slab of coalesced
//    segment addresses. Coalescing and bank-conflict analysis run once per
//    emitted instruction, or once per resolved SharedAccess that a kernel
//    replays; issuing an instruction only reads the result.
//  * Idle-cycle jump. A cycle in which no scheduler issues advances
//    straight to the earliest cycle at which one could: the earliest
//    ready warp a free scheduler saw while looking for work, or a busy
//    scheduler's release. Warps and barriers change state only when an
//    instruction issues, so the skipped cycles would each have added the
//    same integer-valued deltas, and the counters are exact.
//  * Per-SM parallelism. SMs share nothing (each has its own L1, L2 slice
//    and block queue), so every SM that received blocks runs on
//    ThreadPool::global() into its own CounterSet. The sets are merged in
//    SM order and the device time is the slowest SM's. Every event is an
//    integer-valued double far below 2^53, so the sums are exact in any
//    order and a launch's counters equal a serial run's bit for bit. If
//    SMs fail, the lowest-index SM's error is rethrown on the caller.
#pragma once

#include <cstdint>
#include <utility>

#include "gpusim/arch.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/trace.hpp"

namespace bf::gpusim {

struct RunOptions {
  /// Upper bound on simulated blocks (0 = simulate the full grid). The
  /// engine rounds up so every SM receives at least two full occupancy
  /// waves when the grid is that large.
  int max_sampled_blocks = 128;
};

struct RunResult {
  CounterSet counters;
  double time_ms = 0.0;
  OccupancyResult occupancy;
  std::int64_t blocks_total = 0;
  std::int64_t blocks_simulated = 0;
  double sample_scale = 1.0;
  /// True when the DRAM bandwidth roofline, not the latency model,
  /// determined the final time.
  bool bandwidth_bound = false;
};

class Device {
 public:
  explicit Device(ArchSpec arch) : arch_(std::move(arch)) {}

  const ArchSpec& arch() const { return arch_; }

  /// Execute one kernel launch and return its counters and elapsed time.
  RunResult run(const TraceKernel& kernel, const RunOptions& opts = {}) const;

 private:
  ArchSpec arch_;
};

/// Accumulate launch results into an application-level aggregate: counters
/// and times add up (the paper treats NW's many launches this way).
struct AggregateResult {
  CounterSet counters;
  double time_ms = 0.0;
  double occupancy_weighted = 0.0;  ///< time-weighted achieved residency
  std::int64_t launches = 0;

  void add(const RunResult& r, double weight = 1.0);
};

}  // namespace bf::gpusim
