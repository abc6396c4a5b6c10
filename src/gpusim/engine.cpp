#include "gpusim/engine.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/sharedmem.hpp"

namespace bf::gpusim {
namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

struct WarpState {
  std::vector<TraceRecord> trace;
  std::vector<std::uint64_t> segments;  ///< global-op transaction slab
  std::size_t pc = 0;
  std::uint64_t ready = 0;
  int scheduler = 0;
  int block_slot = -1;  // index into SmSim::blocks_
  bool at_barrier = false;
  bool done = false;
};

struct BlockCtx {
  int block_id = 0;
  std::vector<std::unique_ptr<WarpState>> warps;
  int live_warps = 0;  // warps not yet done
  int at_barrier = 0;  // warps currently parked at the barrier
};

/// Simulates one SM over its assigned queue of blocks.
class SmSim {
 public:
  SmSim(const ArchSpec& arch, const TraceKernel& kernel,
        const LaunchGeometry& geom, int max_resident_blocks,
        std::vector<int> block_queue)
      : arch_(arch),
        kernel_(kernel),
        geom_(geom),
        max_resident_(max_resident_blocks),
        queue_(std::move(block_queue)),
        banks_(arch),
        load_segment_bytes_(arch.l1_caches_global_loads
                                ? arch.l1_transaction_bytes
                                : arch.l2_transaction_bytes),
        arith_cost_(arch.arith_issue_cycles()),
        l1_(static_cast<std::int64_t>(arch.l1_size_kb) * 1024,
            arch.l1_line_bytes, arch.l1_assoc),
        l2_(arch.l2_slice_bytes(),
            arch.generation == Generation::kKepler ? arch.l2_transaction_bytes
                                                   : arch.l2_line_bytes,
            arch.l2_assoc),
        sched_busy_(static_cast<std::size_t>(arch.warp_schedulers_per_sm), 0),
        sched_rr_(static_cast<std::size_t>(arch.warp_schedulers_per_sm), 0),
        sched_warps_(static_cast<std::size_t>(arch.warp_schedulers_per_sm)) {}

  /// Run to completion; returns the SM's final cycle count.
  std::uint64_t run(CounterSet& counters) {
    counters_ = &counters;
    settle();
    while (!blocks_.empty()) {
      step();
      // Blocks only retire when a warp finishes, so settle() has nothing
      // to do otherwise.
      if (warp_finished_) settle();
    }
    // Write-back of dirty L2 lines at kernel end (bytes leave to DRAM).
    const std::uint64_t dirty = l2_.flush_dirty();
    counters_->add(Event::kDramWriteTransactions,
                   static_cast<double>(dirty) *
                       (l2_.line_bytes() / arch_.l2_transaction_bytes));
    // The kernel is not finished until the last instruction *completes*
    // (its dependence latency drains), not merely when it issued.
    return std::max(cycle_, completion_cycle_);
  }

 private:
  // ---- block lifecycle ----

  /// Retire finished blocks and admit queued ones until stable (a freshly
  /// admitted block can be degenerate — all-empty traces — and retire
  /// immediately).
  void settle() {
    warp_finished_ = false;
    while (true) {
      bool changed = false;
      for (std::size_t b = 0; b < blocks_.size();) {
        if (blocks_[b]->live_warps == 0) {
          blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(b));
          changed = true;
        } else {
          ++b;
        }
      }
      while (static_cast<int>(blocks_.size()) < max_resident_ &&
             next_in_queue_ < queue_.size()) {
        admit_one(queue_[next_in_queue_++]);
        changed = true;
      }
      if (changed) {
        rebuild_scheduler_lists();
      } else {
        break;
      }
    }
  }

  void admit_one(int block_id) {
    auto ctx = std::make_unique<BlockCtx>();
    ctx->block_id = block_id;
    const int warps = geom_.warps_per_block(arch_.warp_size);
    for (int w = 0; w < warps; ++w) {
      auto ws = std::make_unique<WarpState>();
      // Stores bypass L1 (Fermi is write-through-no-allocate; Kepler has
      // no L1 global path) and coalesce at L2 segment granularity.
      TraceSink sink(banks_, load_segment_bytes_, arch_.l2_transaction_bytes,
                     ws->trace, ws->segments);
      kernel_.emit_warp(block_id, w, sink);
      ws->ready = cycle_;
      ws->scheduler =
          static_cast<int>(warp_admit_counter_++ %
                           static_cast<std::uint64_t>(sched_busy_.size()));
      if (ws->trace.empty()) {
        ws->done = true;
      } else {
        ++ctx->live_warps;
      }
      ctx->warps.push_back(std::move(ws));
    }
    blocks_.push_back(std::move(ctx));
  }

  void rebuild_scheduler_lists() {
    for (auto& lst : sched_warps_) lst.clear();
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      for (auto& w : blocks_[b]->warps) {
        w->block_slot = static_cast<int>(b);
        if (!w->done) {
          sched_warps_[static_cast<std::size_t>(w->scheduler)].push_back(
              w.get());
        }
      }
    }
  }

  // ---- main loop ----
  void step() {
    bool issued_any = false;
    // For an idle cycle: the earliest cycle at which a busy scheduler
    // frees up or a warp of a free scheduler becomes ready.
    std::uint64_t wake = kNever;
    const int dispatch = arch_.dispatch_units_per_scheduler;
    for (std::size_t s = 0; s < sched_busy_.size(); ++s) {
      if (sched_busy_[s] > cycle_) {
        wake = std::min(wake, sched_busy_[s]);
        continue;
      }
      for (int d = 0; d < dispatch; ++d) {
        WarpState* warp = pick_warp(s, wake);
        if (warp == nullptr) break;
        const int cost = issue(warp);
        issued_any = true;
        if (cost > 1) {
          // A multi-slot instruction (wide issue or replays) occupies the
          // scheduler beyond this cycle; no further dispatch this cycle.
          sched_busy_[s] = cycle_ + static_cast<std::uint64_t>(cost);
          break;
        }
      }
    }

    // Advance time: one cycle while issuing, else straight to `wake`.
    // State changes only when an instruction issues, so each skipped cycle
    // would have issued nothing and added the same integer-valued deltas.
    std::uint64_t next = cycle_ + 1;
    if (!issued_any) {
      BF_CHECK_MSG(wake != kNever,
                   "SM deadlock: no runnable warp and no pending event "
                   "(barrier mismatch in kernel '"
                       << kernel_.name() << "'?)");
      next = wake;
    }

    const std::uint64_t delta = next - cycle_;
    int resident_warps = 0;
    for (const auto& block : blocks_) resident_warps += block->live_warps;
    counters_->add(Event::kActiveCycles, static_cast<double>(delta));
    counters_->add(Event::kActiveWarpCycles,
                   static_cast<double>(delta) * resident_warps);
    counters_->add(Event::kIssueSlotsTotal,
                   static_cast<double>(delta) *
                       static_cast<double>(sched_busy_.size()) * dispatch);
    cycle_ = next;
  }

  /// The scheduler's next ready warp in round-robin order, or nullptr
  /// after a full scan of its list that also lowers `wake` to the
  /// earliest ready cycle among its runnable warps.
  WarpState* pick_warp(std::size_t sched, std::uint64_t& wake) {
    auto& list = sched_warps_[sched];
    if (list.empty()) return nullptr;
    const std::size_t n = list.size();
    std::size_t& rr = sched_rr_[sched];
    std::size_t at = rr % n;  // the list may have shrunk since rr was set
    for (std::size_t i = 0; i < n; ++i) {
      WarpState* w = list[at];
      if (++at == n) at = 0;
      if (w->done || w->at_barrier) continue;
      if (w->ready <= cycle_) {
        rr = at;
        return w;
      }
      wake = std::min(wake, w->ready);
    }
    return nullptr;
  }

  // ---- instruction execution ----

  /// Execute the warp's next instruction; returns the issue slots it
  /// consumed on its scheduler (1 = single slot, free for dual issue).
  int issue(WarpState* warp) {
    const TraceRecord& in = warp->trace[warp->pc++];
    CounterSet& c = *counters_;
    c.add(Event::kInstExecuted, 1);
    c.add(Event::kThreadInstExecuted, popcount_mask(in.mask));

    int cost = 1;
    switch (in.op) {
      case Op::kIAlu:
      case Op::kFAlu:
      case Op::kSfu: {
        c.add(Event::kInstIssued, 1);
        if (in.op == Op::kFAlu) {
          c.add(Event::kFlopCount, popcount_mask(in.mask));
        }
        const int lat = (in.op == Op::kSfu) ? arch_.sfu_dep_latency
                                            : arch_.alu_dep_latency;
        cost = arith_cost_;
        warp->ready = cycle_ + static_cast<std::uint64_t>(lat);
        break;
      }
      case Op::kBranch: {
        c.add(Event::kInstIssued, 1);
        c.add(Event::kBranch, 1);
        if (in.divergent) c.add(Event::kDivergentBranch, 1);
        cost = arith_cost_;
        warp->ready =
            cycle_ + static_cast<std::uint64_t>(arch_.alu_dep_latency);
        break;
      }
      case Op::kSync: {
        c.add(Event::kInstIssued, 1);
        arrive_barrier(warp);
        return 1;  // barrier handling below decides warp completion
      }
      case Op::kLdShared:
      case Op::kStShared: {
        const int passes = in.count;
        const int replays = passes - 1;
        c.add(Event::kInstIssued, passes);
        if (in.op == Op::kLdShared) {
          c.add(Event::kSharedLoad, 1);
          c.add(Event::kSharedLoadReplay, replays);
        } else {
          c.add(Event::kSharedStore, 1);
          c.add(Event::kSharedStoreReplay, replays);
        }
        c.add(Event::kSharedBankConflict, replays);
        cost = arith_cost_ + replays;
        warp->ready =
            cycle_ +
            static_cast<std::uint64_t>(arch_.shared_latency + replays);
        break;
      }
      case Op::kAtomicShared: {
        // Atomics serialise over both bank conflicts and same-address
        // collisions; every extra pass is a replayed issue slot.
        const int passes = in.count;
        const int replays = passes - 1;
        c.add(Event::kInstIssued, passes);
        c.add(Event::kSharedStore, 1);  // nvprof counts atomics as stores
        c.add(Event::kSharedStoreReplay, replays);
        c.add(Event::kSharedBankConflict, replays);
        cost = arith_cost_ + replays;
        warp->ready =
            cycle_ +
            static_cast<std::uint64_t>(arch_.shared_latency + 2 * replays);
        break;
      }
      case Op::kLdGlobal:
        cost = execute_global_load(warp, in);
        break;
      case Op::kStGlobal:
        cost = execute_global_store(warp, in);
        break;
    }

    completion_cycle_ = std::max(completion_cycle_, warp->ready);
    if (warp->pc >= warp->trace.size()) {
      finish_warp(warp);
    }
    return cost;
  }

  int execute_global_load(WarpState* warp, const TraceRecord& in) {
    CounterSet& c = *counters_;
    c.add(Event::kGldRequest, 1);
    c.add(Event::kGlobalLoadBytesRequested,
          static_cast<double>(popcount_mask(in.mask)) * in.access_bytes);

    const bool via_l1 = arch_.l1_caches_global_loads;
    const int seg_bytes = load_segment_bytes_;
    const int ntrans = in.count;
    c.add(Event::kGlobalLoadTransaction, ntrans);

    int worst_latency = 0;
    const std::uint64_t* segments = warp->segments.data() + in.seg_begin;
    for (int t = 0; t < ntrans; ++t) {
      const std::uint64_t seg = segments[t];
      int lat;
      if (via_l1) {
        const auto l1r = l1_.access(seg, /*write=*/false);
        if (l1r.hit) {
          c.add(Event::kL1GlobalLoadHit, 1);
          lat = arch_.l1_latency;
        } else {
          c.add(Event::kL1GlobalLoadMiss, 1);
          c.add(Event::kL2ReadTransactions,
                seg_bytes / arch_.l2_transaction_bytes);
          lat = l2_read(seg, seg_bytes);
        }
      } else {
        c.add(Event::kL2ReadTransactions, 1);
        lat = l2_read(seg, seg_bytes);
      }
      worst_latency = std::max(worst_latency, lat);
    }

    const int replays = std::max(0, ntrans - 1);
    c.add(Event::kInstIssued, 1 + replays);
    warp->ready =
        cycle_ + static_cast<std::uint64_t>(worst_latency + replays);
    return arith_cost_ + replays;
  }

  /// One read reaching L2; returns the latency of the worst level touched.
  int l2_read(std::uint64_t addr, int fill_bytes) {
    const auto r = l2_.access(addr, /*write=*/false);
    if (r.writeback) {
      counters_->add(Event::kDramWriteTransactions,
                     l2_.line_bytes() / arch_.l2_transaction_bytes);
    }
    if (r.hit) {
      counters_->add(Event::kL2ReadHit, 1);
      return arch_.l2_latency;
    }
    counters_->add(Event::kL2ReadMiss, 1);
    counters_->add(Event::kDramReadTransactions,
                   std::max(1, fill_bytes / arch_.l2_transaction_bytes));
    return arch_.dram_latency;
  }

  int execute_global_store(WarpState* warp, const TraceRecord& in) {
    CounterSet& c = *counters_;
    c.add(Event::kGstRequest, 1);
    c.add(Event::kGlobalStoreBytesRequested,
          static_cast<double>(popcount_mask(in.mask)) * in.access_bytes);

    // The sink coalesced the segments at L2 granularity.
    const int ntrans = in.count;
    c.add(Event::kGlobalStoreTransaction, ntrans);
    c.add(Event::kL2WriteTransactions, ntrans);
    const std::uint64_t* segments = warp->segments.data() + in.seg_begin;
    for (int t = 0; t < ntrans; ++t) {
      const auto r = l2_.access(segments[t], /*write=*/true);
      if (r.writeback) {
        c.add(Event::kDramWriteTransactions,
              l2_.line_bytes() / arch_.l2_transaction_bytes);
      }
    }

    const int replays = std::max(0, ntrans - 1);
    c.add(Event::kInstIssued, 1 + replays);
    // Stores retire through the write buffer: the warp only waits for
    // issue serialisation, not for DRAM.
    warp->ready =
        cycle_ + static_cast<std::uint64_t>(arch_.alu_dep_latency + replays);
    return arith_cost_ + replays;
  }

  // ---- barriers / warp completion ----
  void arrive_barrier(WarpState* warp) {
    BlockCtx& block = *blocks_[static_cast<std::size_t>(warp->block_slot)];
    warp->at_barrier = true;
    ++block.at_barrier;
    maybe_release_barrier(block);
  }

  void maybe_release_barrier(BlockCtx& block) {
    if (block.live_warps == 0) return;
    if (block.at_barrier < block.live_warps) return;
    // Clear the barrier state before finishing warps: finish_warp can
    // re-enter this function and must observe a consistent block.
    std::vector<WarpState*> released;
    released.reserve(block.warps.size());
    for (auto& w : block.warps) {
      if (w->at_barrier) {
        w->at_barrier = false;
        released.push_back(w.get());
      }
    }
    block.at_barrier = 0;
    for (WarpState* w : released) {
      w->ready = cycle_ + static_cast<std::uint64_t>(arch_.sync_latency);
      if (w->pc >= w->trace.size()) {
        finish_warp(w);
      }
    }
  }

  void finish_warp(WarpState* warp) {
    if (warp->done) return;
    warp->done = true;
    warp_finished_ = true;
    BlockCtx& block = *blocks_[static_cast<std::size_t>(warp->block_slot)];
    --block.live_warps;
    // Scheduler lists are cleaned on the next settle(); pick_warp already
    // skips done warps.
    maybe_release_barrier(block);
  }

  const ArchSpec& arch_;
  const TraceKernel& kernel_;
  const LaunchGeometry& geom_;
  const int max_resident_;
  std::vector<int> queue_;
  std::size_t next_in_queue_ = 0;
  const SharedBanks banks_;
  const int load_segment_bytes_;
  const int arith_cost_;  // issue slots of one warp-wide arithmetic op

  Cache l1_;
  Cache l2_;
  std::vector<std::unique_ptr<BlockCtx>> blocks_;
  std::vector<std::uint64_t> sched_busy_;
  std::vector<std::size_t> sched_rr_;
  std::vector<std::vector<WarpState*>> sched_warps_;
  std::uint64_t warp_admit_counter_ = 0;
  std::uint64_t cycle_ = 0;
  std::uint64_t completion_cycle_ = 0;
  bool warp_finished_ = false;  // since the last settle()
  CounterSet* counters_ = nullptr;
};

}  // namespace

RunResult Device::run(const TraceKernel& kernel, const RunOptions& opts) const {
  const LaunchGeometry geom = kernel.geometry();
  BF_CHECK_MSG(geom.num_blocks() >= 1, "empty grid");

  RunResult result;
  result.occupancy = compute_occupancy(arch_, geom);
  result.blocks_total = geom.num_blocks();

  // Choose the sampled block set: everything when the grid is small,
  // otherwise an even stride so boundary blocks stay represented, rounded
  // so each SM receives at least two full occupancy waves.
  const std::int64_t total = result.blocks_total;
  std::int64_t want = total;
  if (opts.max_sampled_blocks > 0 && total > opts.max_sampled_blocks) {
    const std::int64_t min_per_sm = 2LL * result.occupancy.blocks_per_sm;
    want = std::max<std::int64_t>(opts.max_sampled_blocks,
                                  min_per_sm * arch_.sm_count);
    want = std::min(want, total);
  }
  std::vector<int> sampled;
  sampled.reserve(static_cast<std::size_t>(want));
  for (std::int64_t i = 0; i < want; ++i) {
    sampled.push_back(static_cast<int>(i * total / want));
  }
  result.blocks_simulated = want;
  result.sample_scale =
      static_cast<double>(total) / static_cast<double>(want);

  // Distribute sampled blocks round-robin across SMs (GigaThread-style).
  std::vector<std::vector<int>> per_sm(
      static_cast<std::size_t>(arch_.sm_count));
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    per_sm[i % static_cast<std::size_t>(arch_.sm_count)].push_back(
        sampled[i]);
  }

  // Simulate the SMs that received blocks in parallel, each into its own
  // counters. Every event is an integer-valued double far below 2^53, so
  // the SM-order merge is exact and equals a serial run bit for bit. A
  // failing SM's error (the lowest-index one) is rethrown here.
  std::vector<std::size_t> busy;
  for (std::size_t sm = 0; sm < per_sm.size(); ++sm) {
    if (!per_sm[sm].empty()) busy.push_back(sm);
  }
  std::vector<CounterSet> sm_counters(busy.size());
  std::vector<std::uint64_t> sm_cycles(busy.size(), 0);
  ThreadPool::global().parallel_for(0, busy.size(), [&](std::size_t i) {
    SmSim sim(arch_, kernel, geom, result.occupancy.blocks_per_sm,
              std::move(per_sm[busy[i]]));
    sm_cycles[i] = sim.run(sm_counters[i]);
  });
  std::uint64_t max_cycles = 0;
  for (std::size_t i = 0; i < busy.size(); ++i) {
    result.counters.accumulate(sm_counters[i]);
    max_cycles = std::max(max_cycles, sm_cycles[i]);
  }

  result.counters.set(Event::kElapsedCycles,
                      static_cast<double>(max_cycles));
  result.counters.scale(result.sample_scale);

  // DRAM bandwidth roofline on top of the latency model.
  const double latency_time_s =
      result.counters.get(Event::kElapsedCycles) / (arch_.clock_ghz * 1e9);
  const double dram_bytes =
      (result.counters.get(Event::kDramReadTransactions) +
       result.counters.get(Event::kDramWriteTransactions)) *
      arch_.l2_transaction_bytes;
  const double bw_time_s = dram_bytes / (arch_.mem_bandwidth_gbs * 1e9);
  double time_s = latency_time_s;
  if (bw_time_s > time_s) {
    time_s = bw_time_s;
    result.bandwidth_bound = true;
    result.counters.set(Event::kElapsedCycles,
                        time_s * arch_.clock_ghz * 1e9);
  }
  result.time_ms = time_s * 1e3;
  return result;
}

void AggregateResult::add(const RunResult& r, double weight) {
  CounterSet scaled = r.counters;
  scaled.scale(weight);
  counters.accumulate(scaled);
  time_ms += r.time_ms * weight;
  const double occ =
      r.counters.get(Event::kActiveCycles) > 0
          ? r.counters.get(Event::kActiveWarpCycles) /
                r.counters.get(Event::kActiveCycles)
          : 0.0;
  occupancy_weighted += occ * r.time_ms * weight;
  launches += 1;
}

}  // namespace bf::gpusim
