// Tests for the SM timing engine and Device front end, exercised through
// small hand-built kernels with exactly known counter values.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "gpusim/engine.hpp"
#include "kernels/kernel_base.hpp"

namespace bf::gpusim {
namespace {

using kernels::lane_addrs;

using WarpTrace = std::vector<WarpInstr>;

/// A trivially scriptable kernel: every warp of every block runs the same
/// caller-provided trace.
class ScriptKernel final : public TraceKernel {
 public:
  ScriptKernel(LaunchGeometry geom, WarpTrace trace)
      : geom_(geom), trace_(std::move(trace)) {}

  std::string name() const override { return "script"; }
  LaunchGeometry geometry() const override { return geom_; }
  void emit_warp(int /*block*/, int /*warp*/,
                 TraceSink& sink) const override {
    for (const auto& in : trace_) {
      switch (in.op) {
        case Op::kIAlu:
        case Op::kFAlu:
        case Op::kSfu:
          sink.alu(in.mask, 1, in.op);
          break;
        case Op::kBranch:
          sink.branch(in.mask, in.divergent);
          break;
        case Op::kSync:
          sink.sync();
          break;
        case Op::kLdGlobal:
          sink.global_load(in.mask, in.addr, in.access_bytes);
          break;
        case Op::kStGlobal:
          sink.global_store(in.mask, in.addr, in.access_bytes);
          break;
        case Op::kLdShared:
          sink.shared_load(in.mask, in.addr, in.access_bytes);
          break;
        case Op::kStShared:
          sink.shared_store(in.mask, in.addr, in.access_bytes);
          break;
        case Op::kAtomicShared:
          sink.shared_atomic(in.mask, in.addr, in.access_bytes);
          break;
      }
    }
  }

 private:
  LaunchGeometry geom_;
  WarpTrace trace_;
};

LaunchGeometry one_warp_blocks(int blocks) {
  LaunchGeometry g;
  g.grid_x = blocks;
  g.block_x = 32;
  g.registers_per_thread = 16;
  return g;
}

WarpInstr alu_instr() {
  WarpInstr in;
  in.op = Op::kFAlu;
  return in;
}

WarpInstr load_instr(std::uint32_t base) {
  WarpInstr in;
  in.op = Op::kLdGlobal;
  in.addr = lane_addrs([base](int lane) { return base + 4u * lane; });
  return in;
}

TEST(Engine, ExactCountersForTinyKernel) {
  // 3 blocks x 1 warp, each: 2 FAlu + 1 coalesced load + 1 store.
  WarpTrace trace;
  trace.push_back(alu_instr());
  trace.push_back(alu_instr());
  trace.push_back(load_instr(0));
  WarpInstr store = load_instr(4096);
  store.op = Op::kStGlobal;
  trace.push_back(store);

  const Device device(gtx580());
  const ScriptKernel kernel(one_warp_blocks(3), trace);
  const RunResult r = device.run(kernel);

  EXPECT_EQ(r.blocks_total, 3);
  EXPECT_EQ(r.blocks_simulated, 3);
  EXPECT_DOUBLE_EQ(r.sample_scale, 1.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kInstExecuted), 12.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kGldRequest), 3.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kGstRequest), 3.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kThreadInstExecuted), 12.0 * 32);
  // One 128-byte load per block, all to the same line but on different
  // SMs -> L1 cold miss each.
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kGlobalLoadTransaction), 3.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kFlopCount), 6.0 * 32);
  EXPECT_GT(r.time_ms, 0.0);
}

TEST(Engine, SameBlockLoadsHitL1) {
  // One block loading the same line twice: second access hits.
  WarpTrace trace;
  trace.push_back(load_instr(0));
  trace.push_back(load_instr(0));
  const Device device(gtx580());
  const ScriptKernel kernel(one_warp_blocks(1), trace);
  const RunResult r = device.run(kernel);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kL1GlobalLoadMiss), 1.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kL1GlobalLoadHit), 1.0);
}

TEST(Engine, KeplerBypassesL1ForGlobalLoads) {
  WarpTrace trace;
  trace.push_back(load_instr(0));
  trace.push_back(load_instr(0));
  const Device device(kepler_k20m());
  const ScriptKernel kernel(one_warp_blocks(1), trace);
  const RunResult r = device.run(kernel);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kL1GlobalLoadMiss), 0.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kL1GlobalLoadHit), 0.0);
  // 32 lanes * 4 B = 128 B = 4 x 32 B L2 segments, twice.
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kL2ReadTransactions), 8.0);
}

TEST(Engine, BankConflictReplaysCountedAndCostly) {
  // Shared load at word stride 32: a 32-way conflict -> 31 replays.
  WarpInstr conflict;
  conflict.op = Op::kLdShared;
  conflict.addr = lane_addrs([](int lane) { return 128u * lane; });
  WarpInstr clean;
  clean.op = Op::kLdShared;
  clean.addr = lane_addrs([](int lane) { return 4u * lane; });

  const Device device(gtx580());
  const RunResult bad =
      device.run(ScriptKernel(one_warp_blocks(1), {conflict}));
  const RunResult good =
      device.run(ScriptKernel(one_warp_blocks(1), {clean}));
  EXPECT_DOUBLE_EQ(bad.counters.get(Event::kSharedBankConflict), 31.0);
  EXPECT_DOUBLE_EQ(good.counters.get(Event::kSharedBankConflict), 0.0);
  EXPECT_DOUBLE_EQ(bad.counters.get(Event::kInstIssued), 32.0);
  EXPECT_DOUBLE_EQ(bad.counters.get(Event::kInstExecuted), 1.0);
  EXPECT_GT(bad.counters.get(Event::kElapsedCycles),
            good.counters.get(Event::kElapsedCycles));
}

TEST(Engine, UncoalescedLoadsCostMoreTime) {
  WarpInstr scattered;
  scattered.op = Op::kLdGlobal;
  scattered.addr = lane_addrs([](int lane) { return 4096u * lane; });
  WarpTrace bad_trace(8, scattered);
  WarpTrace good_trace(8, load_instr(0));

  const Device device(gtx580());
  const RunResult bad =
      device.run(ScriptKernel(one_warp_blocks(4), bad_trace));
  const RunResult good =
      device.run(ScriptKernel(one_warp_blocks(4), good_trace));
  EXPECT_GT(bad.counters.get(Event::kGlobalLoadTransaction),
            8.0 * good.counters.get(Event::kGlobalLoadTransaction));
  EXPECT_GT(bad.time_ms, good.time_ms);
}

TEST(Engine, BarrierSynchronisesWarps) {
  // Two warps per block; both must pass the sync. If barrier handling
  // were broken this would deadlock (and BF_CHECK would fire).
  LaunchGeometry g;
  g.grid_x = 2;
  g.block_x = 64;
  g.registers_per_thread = 16;
  WarpTrace trace;
  trace.push_back(alu_instr());
  WarpInstr sync;
  sync.op = Op::kSync;
  trace.push_back(sync);
  trace.push_back(alu_instr());
  const Device device(gtx580());
  const RunResult r = device.run(ScriptKernel(g, trace));
  // 2 blocks x 2 warps x 3 instructions.
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kInstExecuted), 12.0);
}

TEST(Engine, DivergentBranchCounted) {
  WarpInstr br;
  br.op = Op::kBranch;
  br.divergent = true;
  WarpInstr uniform;
  uniform.op = Op::kBranch;
  uniform.divergent = false;
  const Device device(gtx580());
  const RunResult r =
      device.run(ScriptKernel(one_warp_blocks(1), {br, uniform, br}));
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kBranch), 3.0);
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kDivergentBranch), 2.0);
}

TEST(Engine, SamplingScalesCounters) {
  // A large grid gets sampled; extensive counters must be scaled back to
  // the full grid within a small tolerance.
  WarpTrace trace;
  for (int i = 0; i < 4; ++i) trace.push_back(alu_instr());
  const Device device(gtx580());

  RunOptions full;
  full.max_sampled_blocks = 0;
  RunOptions sampled;
  sampled.max_sampled_blocks = 128;

  const ScriptKernel kernel(one_warp_blocks(4096), trace);
  const RunResult rf = device.run(kernel, full);
  const RunResult rs = device.run(kernel, sampled);
  EXPECT_EQ(rf.blocks_simulated, 4096);
  EXPECT_LT(rs.blocks_simulated, 4096);
  EXPECT_GT(rs.sample_scale, 1.0);
  EXPECT_NEAR(rs.counters.get(Event::kInstExecuted),
              rf.counters.get(Event::kInstExecuted),
              0.02 * rf.counters.get(Event::kInstExecuted));
  EXPECT_NEAR(rs.time_ms, rf.time_ms, 0.25 * rf.time_ms);
}

TEST(Engine, OccupancyCounterMatchesResidency) {
  // A single resident warp per SM: achieved occupancy must be ~1/48.
  WarpTrace trace;
  for (int i = 0; i < 50; ++i) trace.push_back(alu_instr());
  const Device device(gtx580());
  const RunResult r = device.run(ScriptKernel(one_warp_blocks(1), trace));
  const double occ = r.counters.get(Event::kActiveWarpCycles) /
                     (r.counters.get(Event::kActiveCycles) *
                      gtx580().max_warps_per_sm);
  EXPECT_NEAR(occ, 1.0 / 48.0, 1e-3);
}

TEST(Engine, MoreWarpsRaiseIpcUntilSaturation) {
  // Latency-bound with 1 warp; throughput-bound with many warps.
  WarpTrace trace;
  for (int i = 0; i < 64; ++i) trace.push_back(alu_instr());
  const Device device(gtx580());

  LaunchGeometry small = one_warp_blocks(1);
  LaunchGeometry big;
  big.grid_x = 16;  // one block per SM
  big.block_x = 512;
  big.registers_per_thread = 16;

  const RunResult r1 = device.run(ScriptKernel(small, trace));
  const RunResult r2 = device.run(ScriptKernel(big, trace));
  const double ipc1 = r1.counters.get(Event::kInstExecuted) /
                      r1.counters.get(Event::kActiveCycles);
  const double ipc2 = r2.counters.get(Event::kInstExecuted) /
                      r2.counters.get(Event::kActiveCycles);
  EXPECT_GT(ipc2, 3.0 * ipc1);
  // Fermi peak: 2 schedulers / 2-cycle issue -> ipc <= 1.
  EXPECT_LE(ipc2, 1.0 + 1e-9);
}

TEST(Engine, BandwidthRooflineEngages) {
  // A pure streaming kernel over a huge range must end bandwidth-bound.
  LaunchGeometry g;
  g.grid_x = 4096;
  g.block_x = 256;
  g.registers_per_thread = 12;
  WarpTrace trace;
  // Each warp loads 4 distinct lines (spread by block via emit: same
  // trace per block hits the same addresses; use big strides to kill
  // locality between segments).
  for (int i = 0; i < 4; ++i) {
    WarpInstr in;
    in.op = Op::kLdGlobal;
    const std::uint32_t base = 1u << 20;
    in.addr = lane_addrs([=](int lane) {
      return base + 131072u * i + 4u * lane;
    });
    trace.push_back(in);
  }
  const Device device(gtx580());
  const RunResult r = device.run(ScriptKernel(g, trace));
  EXPECT_GT(r.counters.get(Event::kDramReadTransactions), 0.0);
}

TEST(Engine, AggregateResultAccumulates) {
  WarpTrace trace{alu_instr()};
  const Device device(gtx580());
  const ScriptKernel kernel(one_warp_blocks(2), trace);
  AggregateResult agg;
  agg.add(device.run(kernel));
  agg.add(device.run(kernel));
  EXPECT_EQ(agg.launches, 2);
  EXPECT_DOUBLE_EQ(agg.counters.get(Event::kInstExecuted), 4.0);
  EXPECT_GT(agg.time_ms, 0.0);
}

/// Every warp runs one coalesced load, except that the warps of the
/// listed blocks fail while emitting their trace.
class FailingBlocksKernel final : public TraceKernel {
 public:
  FailingBlocksKernel(int blocks, std::vector<int> failing)
      : blocks_(blocks), failing_(std::move(failing)) {}

  std::string name() const override { return "failing_blocks"; }
  LaunchGeometry geometry() const override { return one_warp_blocks(blocks_); }
  void emit_warp(int block, int /*warp*/, TraceSink& sink) const override {
    const auto addr = lane_addrs([block](int lane) {
      return 4096u * static_cast<std::uint32_t>(block) + 4u * lane;
    });
    if (block == failing_.front()) {
      sink.global_load(/*mask=*/0, addr);  // rejected: empty mask
    } else if (std::find(failing_.begin(), failing_.end(), block) !=
               failing_.end()) {
      throw Error("block " + std::to_string(block) + " failed");
    }
    sink.global_load(kFullMask, addr);
  }

 private:
  int blocks_;
  std::vector<int> failing_;
};

TEST(Engine, SmFailureSurfacesAsErrorOnCaller) {
  // 64 one-warp blocks over 16 SMs: block b runs on SM b % 16.
  const Device device(gtx580());
  try {
    device.run(FailingBlocksKernel(64, {37}));
    FAIL() << "expected bf::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("memory op with empty mask"),
              std::string::npos)
        << e.what();
  }
  // Two SMs fail: the lower-index SM's error wins, whichever finished
  // first (block 37 is on SM 5, block 50 on SM 2).
  try {
    device.run(FailingBlocksKernel(64, {37, 50}));
    FAIL() << "expected bf::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "block 50 failed");
  }
  // The device and its pool stay usable.
  EXPECT_DOUBLE_EQ(device.run(FailingBlocksKernel(64, {-1}))
                       .counters.get(Event::kGldRequest),
                   64.0);
}

TEST(Engine, ConcurrentRunsMatchASingleRun) {
  // Callers on several threads share the SM pool; each run's counters
  // must equal a lone run's, bit for bit.
  const Device device(kepler_k20m());
  const FailingBlocksKernel kernel(200, {-1});
  const RunResult lone = device.run(kernel);
  std::vector<RunResult> results(4);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < results.size(); ++t) {
    callers.emplace_back([&, t] {
      results[t] = device.run(kernel);
    });
  }
  for (auto& c : callers) c.join();
  for (const RunResult& r : results) {
    for (std::size_t e = 0; e < kNumEvents; ++e) {
      EXPECT_EQ(r.counters.get(static_cast<Event>(e)),
                lone.counters.get(static_cast<Event>(e)))
          << event_name(static_cast<Event>(e));
    }
    EXPECT_EQ(r.time_ms, lone.time_ms);
  }
}

/// Every warp stores and loads one shared pattern several times, either
/// replaying one resolved SharedAccess or passing the lane addresses on
/// every call.
class SharedPatternKernel final : public TraceKernel {
 public:
  SharedPatternKernel(std::uint32_t mask, std::array<std::uint32_t, 32> addr,
                      bool resolved)
      : mask_(mask), addr_(addr), resolved_(resolved) {}

  std::string name() const override { return "shared_pattern"; }
  LaunchGeometry geometry() const override {
    LaunchGeometry g;
    g.grid_x = 40;
    g.block_x = 96;
    g.shared_mem_per_block = 8192;
    g.registers_per_thread = 16;
    return g;
  }
  void emit_warp(int /*block*/, int /*warp*/,
                 TraceSink& sink) const override {
    if (resolved_) {
      const SharedAccess access = sink.resolve(mask_, addr_);
      for (int i = 0; i < 3; ++i) {
        sink.shared_store(access);
        sink.alu(mask_, 2);
        sink.shared_load(access);
        sink.shared_load(access);
      }
    } else {
      for (int i = 0; i < 3; ++i) {
        sink.shared_store(mask_, addr_);
        sink.alu(mask_, 2);
        sink.shared_load(mask_, addr_);
        sink.shared_load(mask_, addr_);
      }
    }
  }

 private:
  std::uint32_t mask_;
  std::array<std::uint32_t, 32> addr_;
  bool resolved_;
};

TEST(Engine, ResolvedSharedAccessMatchesPerCall) {
  struct Pattern {
    const char* name;
    std::uint32_t mask;
    std::array<std::uint32_t, 32> addr;
    double conflicts_per_access;  // bank-conflict replays of one access
  };
  const std::vector<Pattern> patterns = {
      {"conflict-free", kFullMask,
       lane_addrs([](int lane) { return 4u * lane; }), 0},
      {"broadcast", kFullMask, lane_addrs([](int) { return 64u; }), 0},
      {"stride-32", 0x0000ffffu,
       lane_addrs([](int lane) { return 128u * lane; }), 15},
  };
  for (const ArchSpec& arch : arch_registry()) {
    const Device device(arch);
    for (const Pattern& p : patterns) {
      SCOPED_TRACE(arch.name + " " + p.name);
      const RunResult want =
          device.run(SharedPatternKernel(p.mask, p.addr, false));
      const RunResult got =
          device.run(SharedPatternKernel(p.mask, p.addr, true));
      for (std::size_t e = 0; e < kNumEvents; ++e) {
        EXPECT_EQ(got.counters.get(static_cast<Event>(e)),
                  want.counters.get(static_cast<Event>(e)))
            << event_name(static_cast<Event>(e));
      }
      EXPECT_EQ(got.time_ms, want.time_ms);
      // 40 blocks x 3 warps x 3 rounds x 3 shared accesses.
      EXPECT_EQ(got.counters.get(Event::kSharedBankConflict),
                1080.0 * p.conflicts_per_access);
    }
  }

  // An empty mask fails the same way on both paths.
  const auto error_of = [](bool resolved) {
    try {
      Device(gtx580()).run(SharedPatternKernel(0, {}, resolved));
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(error_of(true).find("memory op with empty mask"),
            std::string::npos)
      << error_of(true);
  EXPECT_EQ(error_of(true), error_of(false));
}

TEST(Engine, EmptyGridRejected) {
  LaunchGeometry g;
  g.grid_x = 0;
  g.block_x = 32;
  const Device device(gtx580());
  const ScriptKernel kernel(g, {alu_instr()});
  EXPECT_THROW(device.run(kernel), Error);
}

}  // namespace
}  // namespace bf::gpusim
