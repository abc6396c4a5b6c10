// Tests for the kernel library: reference implementations, trace
// structure, and the bottleneck signatures each kernel is built to show.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/engine.hpp"
#include "kernels/kernel_base.hpp"
#include "kernels/matmul.hpp"
#include "kernels/misc.hpp"
#include "kernels/nw.hpp"
#include "kernels/reduce.hpp"

namespace bf::kernels {
namespace {

using gpusim::Device;
using gpusim::Event;
using gpusim::gtx580;
using gpusim::kepler_k20m;

// ---- functional references ----

TEST(Reference, ReduceSum) {
  EXPECT_DOUBLE_EQ(reduce_reference({1, 2, 3, 4.5}), 10.5);
  EXPECT_DOUBLE_EQ(reduce_reference({}), 0.0);
}

TEST(Reference, MatmulSmallKnown) {
  // 2x2 blocked up to n=2 is just a plain matmul.
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{5, 6, 7, 8};
  const auto c = matmul_reference(a, b, 2);
  EXPECT_DOUBLE_EQ(c[0], 19.0);
  EXPECT_DOUBLE_EQ(c[1], 22.0);
  EXPECT_DOUBLE_EQ(c[2], 43.0);
  EXPECT_DOUBLE_EQ(c[3], 50.0);
}

TEST(Reference, MatmulIdentity) {
  Rng rng(1);
  const int n = 8;
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  std::vector<double> eye(a.size(), 0.0);
  for (int i = 0; i < n; ++i) {
    eye[static_cast<std::size_t>(i) * n + i] = 1.0;
  }
  for (auto& v : a) v = rng.normal();
  const auto c = matmul_reference(a, eye, n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(c[i], a[i], 1e-12);
  }
}

TEST(Reference, NwRecurrenceAgainstHandComputation) {
  // 2x2 problem, zero substitution scores, penalty 1: every interior
  // cell comes from the gap chain.
  const int n = 2;
  const std::vector<int> ref(static_cast<std::size_t>((n + 1) * (n + 1)), 0);
  const auto m = nw_reference(ref, n, 1);
  // Borders: -1, -2 along both axes.
  EXPECT_EQ(m[1], -1);
  EXPECT_EQ(m[2], -2);
  EXPECT_EQ(m[3], -1);  // (1,0)
  // (1,1): max(0+0, -1-1, -1-1) = 0.
  EXPECT_EQ(m[4], 0);
  // (1,2): max(-1+0, 0-1, -2-1) = -1.
  EXPECT_EQ(m[5], -1);
  // (2,2): max(0+0, -1-1, -1-1) = 0.
  EXPECT_EQ(m[8], 0);
}

TEST(Reference, NwMatchRewardPath) {
  // Diagonal of matches (+2 each) dominates: score grows along diagonal.
  const int n = 3;
  std::vector<int> ref(static_cast<std::size_t>((n + 1) * (n + 1)), -1);
  for (int i = 1; i <= n; ++i) {
    ref[static_cast<std::size_t>(i) * (n + 1) + i] = 2;
  }
  const auto m = nw_reference(ref, n, 1);
  EXPECT_EQ(m.back(), 6);  // three matches
}

// ---- reduction ladder ----

TEST(Reduce, ShuffleVariantAvoidsSharedTree) {
  // reduce7 keeps partial sums in registers: compared with reduce6 it
  // needs almost no shared traffic and fewer barriers, and must be at
  // least as fast.
  const Device dev(gtx580());
  const auto r6 = simulate_reduction(dev, 6, 1 << 20);
  const auto r7 = simulate_reduction(dev, 7, 1 << 20);
  EXPECT_LT(r7.counters.get(Event::kSharedLoad),
            0.3 * r6.counters.get(Event::kSharedLoad));
  EXPECT_LT(r7.time_ms, r6.time_ms * 1.05);
  EXPECT_DOUBLE_EQ(r7.counters.get(Event::kSharedBankConflict), 0.0);
}

TEST(Reduce, LaunchGeometryPerVariant) {
  const ReduceKernel r1(1, 1 << 16, 256);
  EXPECT_EQ(r1.geometry().num_blocks(), (1 << 16) / 256);
  const ReduceKernel r3(3, 1 << 16, 256);
  EXPECT_EQ(r3.geometry().num_blocks(), (1 << 16) / 512);
  const ReduceKernel r6(6, 1 << 20, 256);
  EXPECT_EQ(r6.geometry().num_blocks(), 64);  // SDK cap
  EXPECT_THROW(ReduceKernel(8, 1024, 256), Error);
  EXPECT_THROW(ReduceKernel(1, 1024, 100), Error);  // not a power of two
}

TEST(Reduce, MultiLaunchTerminates) {
  const Device dev(gtx580());
  const auto agg = simulate_reduction(dev, 2, 1 << 18);
  // 1<<18 -> 1024 partials -> 4 -> 1: three launches.
  EXPECT_EQ(agg.launches, 3);
  EXPECT_GT(agg.time_ms, 0.0);
}

TEST(Reduce, Reduce1HasBankConflictsReduce2DoesNot) {
  const Device dev(gtx580());
  const auto r1 = simulate_reduction(dev, 1, 1 << 18);
  const auto r2 = simulate_reduction(dev, 2, 1 << 18);
  EXPECT_GT(r1.counters.get(Event::kSharedBankConflict), 1000.0);
  EXPECT_DOUBLE_EQ(r2.counters.get(Event::kSharedBankConflict), 0.0);
}

TEST(Reduce, Reduce0DivergesReduce1DoesNotWithinActiveWarps) {
  const Device dev(gtx580());
  const auto r0 = simulate_reduction(dev, 0, 1 << 18);
  const auto r1 = simulate_reduction(dev, 1, 1 << 18);
  EXPECT_GT(r0.counters.get(Event::kDivergentBranch),
            2.0 * r1.counters.get(Event::kDivergentBranch));
}

TEST(Reduce, OptimisationLadderMonotoneTime) {
  // Each step of the CUDA SDK ladder must not be slower than the last
  // (the educational point of the benchmark).
  const Device dev(gtx580());
  double prev = 1e300;
  for (const int variant : {0, 1, 2, 3, 6}) {
    const auto agg = simulate_reduction(dev, variant, 1 << 20);
    EXPECT_LT(agg.time_ms, prev * 1.05)
        << "reduce" << variant << " regressed over the previous variant";
    prev = agg.time_ms;
  }
}

TEST(Reduce, WorkScalesWithN) {
  const Device dev(gtx580());
  const auto small = simulate_reduction(dev, 2, 1 << 16);
  const auto large = simulate_reduction(dev, 2, 1 << 20);
  const double ratio = large.counters.get(Event::kGldRequest) /
                       small.counters.get(Event::kGldRequest);
  EXPECT_NEAR(ratio, 16.0, 1.0);
  EXPECT_GT(large.time_ms, small.time_ms);
}

TEST(Reduce, LoadsAreCoalesced) {
  const Device dev(gtx580());
  const auto agg = simulate_reduction(dev, 2, 1 << 18);
  // Sequential 4-byte loads: ~1 transaction (128 B) per warp request.
  const double per_request =
      agg.counters.get(Event::kGlobalLoadTransaction) /
      agg.counters.get(Event::kGldRequest);
  EXPECT_NEAR(per_request, 1.0, 0.15);
}

// ---- matrix multiply ----

TEST(MatMul, GeometryAndValidation) {
  const MatMulKernel k(256, 16);
  EXPECT_EQ(k.geometry().num_blocks(), 16 * 16);
  EXPECT_EQ(k.geometry().block_size(), 256);
  EXPECT_THROW(MatMulKernel(100, 16), Error);  // not a multiple
  EXPECT_THROW(MatMulKernel(64, 4), Error);    // tile too small
  // Three n x n float buffers: at n = 16384 they end at 3 GiB + 256 B; at
  // n = 24576 the second would end past 2^32 and wrap onto the first.
  EXPECT_NO_THROW(MatMulKernel(16384, 16));
  EXPECT_THROW(MatMulKernel(24576, 16), Error);
}

TEST(MatMul, SharedAccessesConflictFree) {
  const Device dev(gtx580());
  const auto agg = simulate_matmul(dev, 128);
  EXPECT_DOUBLE_EQ(agg.counters.get(Event::kSharedBankConflict), 0.0);
}

TEST(MatMul, LoadStoreRatioMatchesTiling) {
  // Per warp: 2 loads per tile over n/16 tiles, 1 store at the end.
  const int n = 256;
  const Device dev(gtx580());
  const auto agg = simulate_matmul(dev, n);
  const double ratio = agg.counters.get(Event::kGldRequest) /
                       agg.counters.get(Event::kGstRequest);
  EXPECT_NEAR(ratio, 2.0 * n / 16.0, 1.0);
}

TEST(MatMul, FlopCountMatches2N3) {
  const int n = 128;
  const Device dev(gtx580());
  const auto agg = simulate_matmul(dev, n);
  // One FMA per k-step per thread = n^3 FMAs (counted as lane-ops).
  EXPECT_NEAR(agg.counters.get(Event::kFlopCount),
              static_cast<double>(n) * n * n,
              0.02 * static_cast<double>(n) * n * n);
}

TEST(MatMul, TimeSuperlinearInN) {
  const Device dev(gtx580());
  const double t256 = simulate_matmul(dev, 256).time_ms;
  const double t512 = simulate_matmul(dev, 512).time_ms;
  EXPECT_GT(t512, 4.0 * t256);  // O(n^3) work, allow wide latitude
  EXPECT_LT(t512, 16.0 * t256);
}

TEST(AddressSpace, RegionsEndWithinFourGiB) {
  AddressSpace mem;
  EXPECT_EQ(mem.alloc((1ull << 32) - 512), 256u);
  EXPECT_EQ(mem.alloc(256), 0xffffff00u);  // ends at 2^32
  EXPECT_THROW(mem.alloc(1), Error);
  AddressSpace fresh;
  EXPECT_THROW(fresh.alloc(1ull << 32), Error);
}

/// matrixMul as emitted before its shared accesses were resolved once per
/// warp and its global addresses advanced by a per-tile stride: every
/// memory op builds its 32 lane addresses and passes them to the sink.
class PerLaneMatMul final : public gpusim::TraceKernel {
 public:
  PerLaneMatMul(int n, int tile) : shape_(n, tile), n_(n), tile_(tile) {
    AddressSpace mem;
    const std::uint64_t bytes = static_cast<std::uint64_t>(n) * n * 4;
    a_base_ = mem.alloc(bytes);
    b_base_ = mem.alloc(bytes);
    c_base_ = mem.alloc(bytes);
  }

  std::string name() const override { return shape_.name(); }
  gpusim::LaunchGeometry geometry() const override {
    return shape_.geometry();
  }

  void emit_warp(int block, int warp,
                 gpusim::TraceSink& sink) const override {
    const int blocks_per_dim = n_ / tile_;
    const int bx = block % blocks_per_dim;
    const int by = block / blocks_per_dim;
    const int lanes = std::clamp(tile_ * tile_ - warp * 32, 0, 32);
    if (lanes <= 0) return;
    const std::uint32_t scope = gpusim::mask_first_lanes(lanes);
    const auto tx = [&](int lane) { return (warp * 32 + lane) % tile_; };
    const auto ty = [&](int lane) { return (warp * 32 + lane) / tile_; };
    const std::uint32_t bs_off =
        static_cast<std::uint32_t>(tile_ * tile_) * 4;

    sink.alu(scope, 4, gpusim::Op::kIAlu);
    for (int t = 0; t < n_ / tile_; ++t) {
      sink.global_load(scope, lane_addrs([&](int lane) {
        const std::int64_t row =
            static_cast<std::int64_t>(by) * tile_ + ty(lane);
        const std::int64_t col =
            static_cast<std::int64_t>(t) * tile_ + tx(lane);
        return a_base_ + 4u * static_cast<std::uint32_t>(row * n_ + col);
      }));
      sink.shared_store(scope, lane_addrs([&](int lane) {
        return 4u * static_cast<std::uint32_t>(ty(lane) * tile_ + tx(lane));
      }));
      sink.global_load(scope, lane_addrs([&](int lane) {
        const std::int64_t row =
            static_cast<std::int64_t>(t) * tile_ + ty(lane);
        const std::int64_t col =
            static_cast<std::int64_t>(bx) * tile_ + tx(lane);
        return b_base_ + 4u * static_cast<std::uint32_t>(row * n_ + col);
      }));
      sink.shared_store(scope, lane_addrs([&](int lane) {
        return bs_off +
               4u * static_cast<std::uint32_t>(ty(lane) * tile_ + tx(lane));
      }));
      sink.sync();
      for (int k = 0; k < tile_; ++k) {
        sink.shared_load(scope, lane_addrs([&](int lane) {
          return 4u * static_cast<std::uint32_t>(ty(lane) * tile_ + k);
        }));
        sink.shared_load(scope, lane_addrs([&](int lane) {
          return bs_off +
                 4u * static_cast<std::uint32_t>(k * tile_ + tx(lane));
        }));
        sink.alu(scope, 1, gpusim::Op::kFAlu);
      }
      sink.alu(scope, 1, gpusim::Op::kIAlu);
      sink.sync();
    }
    sink.global_store(scope, lane_addrs([&](int lane) {
      const std::int64_t row =
          static_cast<std::int64_t>(by) * tile_ + ty(lane);
      const std::int64_t col =
          static_cast<std::int64_t>(bx) * tile_ + tx(lane);
      return c_base_ + 4u * static_cast<std::uint32_t>(row * n_ + col);
    }));
  }

 private:
  MatMulKernel shape_;
  int n_;
  int tile_;
  std::uint32_t a_base_ = 0;
  std::uint32_t b_base_ = 0;
  std::uint32_t c_base_ = 0;
};

TEST(MatMul, HoistedEmissionMatchesPerLaneReference) {
  // The golden table pins tile 16 only; this covers every tile width.
  for (const auto& arch : {gtx580(), kepler_k20m()}) {
    const Device dev(arch);
    for (const int tile : {8, 16, 32}) {
      for (const int n : {64, 256}) {
        SCOPED_TRACE(arch.name + " tile " + std::to_string(tile) + " n " +
                     std::to_string(n));
        const auto want = dev.run(PerLaneMatMul(n, tile));
        const auto got = dev.run(MatMulKernel(n, tile));
        for (std::size_t e = 0; e < gpusim::kNumEvents; ++e) {
          const auto ev = static_cast<Event>(e);
          EXPECT_EQ(got.counters.get(ev), want.counters.get(ev))
              << gpusim::event_name(ev);
        }
        EXPECT_EQ(got.time_ms, want.time_ms);
        EXPECT_GT(got.counters.get(Event::kSharedLoad), 0.0);
      }
    }
  }
}

// ---- Needleman-Wunsch ----

TEST(Nw, GeometryAndValidation) {
  const NwDiagonalKernel k(512, 3, 4, 1);
  EXPECT_EQ(k.geometry().num_blocks(), 4);
  EXPECT_EQ(k.geometry().block_size(), kNwBlockSize);
  EXPECT_THROW(NwDiagonalKernel(100, 0, 1, 1), Error);  // not multiple of 16
  EXPECT_THROW(NwDiagonalKernel(512, 0, 1, 3), Error);  // bad traversal
  EXPECT_THROW(NwDiagonalKernel(512, 0, 99, 1), Error);  // too wide
}

TEST(Nw, HasBankConflictsAndUncoalescedLoads) {
  const Device dev(gtx580());
  const auto agg = simulate_nw(dev, 256);
  // The anti-diagonal shared indexing conflicts...
  EXPECT_GT(agg.counters.get(Event::kSharedBankConflict), 100.0);
  // ...and the west-column global loads are uncoalesced: far more
  // transactions than a same-size coalesced pattern would need.
  const double per_request =
      agg.counters.get(Event::kGlobalLoadTransaction) /
      agg.counters.get(Event::kGldRequest);
  EXPECT_GT(per_request, 1.2);
}

TEST(Nw, LaunchCountMatchesRodiniaLoops) {
  const Device dev(gtx580());
  const int len = 256;  // 16 tile rows
  const auto agg = simulate_nw(dev, len);
  // kernel1: 16 strips, kernel2: 15 strips.
  EXPECT_EQ(agg.launches, 31);
}

TEST(Nw, OccupancyIsLow) {
  // 16-thread blocks cap residency at the block-slot limit (paper §6.1.2:
  // "This leads to idling of some threads in the warps").
  const Device dev(gtx580());
  const auto agg = simulate_nw(dev, 512);
  const double avg_warps = agg.counters.get(Event::kActiveWarpCycles) /
                           agg.counters.get(Event::kActiveCycles);
  EXPECT_LT(avg_warps / gtx580().max_warps_per_sm, 0.25);
}

TEST(Nw, KeplerReportsNoL1GlobalLoadMisses) {
  // The Fig. 8 mechanism: l1_global_load_miss is meaningful on Fermi and
  // identically zero on the K20m.
  const Device fermi(gtx580());
  const Device kepler(kepler_k20m());
  const auto f = simulate_nw(fermi, 256);
  const auto k = simulate_nw(kepler, 256);
  EXPECT_GT(f.counters.get(Event::kL1GlobalLoadMiss), 0.0);
  EXPECT_DOUBLE_EQ(k.counters.get(Event::kL1GlobalLoadMiss), 0.0);
}

TEST(Nw, TimeGrowsSuperlinearlyOnceDeviceFills) {
  // Below one full wave of blocks the strips run concurrently and time
  // grows ~linearly in the diagonal count; well past saturation the
  // quadratic block count dominates. 1024 -> 4096 is a 16x cell count.
  const Device dev(gtx580());
  const double t1 = simulate_nw(dev, 1024).time_ms;
  const double t2 = simulate_nw(dev, 4096).time_ms;
  EXPECT_GT(t2, 5.0 * t1);
  EXPECT_LT(t2, 40.0 * t1);
}

// ---- misc kernels ----

TEST(Misc, VecAddPerfectlyCoalesced) {
  const Device dev(gtx580());
  gpusim::AggregateResult agg;
  agg.add(dev.run(VecAddKernel(1 << 18)));
  const double per_request =
      agg.counters.get(Event::kGlobalLoadTransaction) /
      agg.counters.get(Event::kGldRequest);
  EXPECT_NEAR(per_request, 1.0, 0.05);
  EXPECT_DOUBLE_EQ(agg.counters.get(Event::kSharedBankConflict), 0.0);
}

TEST(Misc, VecAddPartialTailMasked) {
  const Device dev(gtx580());
  const VecAddKernel k(1000, 256);  // 24 inactive lanes in the tail
  const auto r = dev.run(k);
  // 1000 elements * 2 loads * 4 B requested.
  EXPECT_DOUBLE_EQ(r.counters.get(Event::kGlobalLoadBytesRequested),
                   8000.0);
}

TEST(Misc, TransposeNaiveUncoalescedStores) {
  const Device dev(gtx580());
  const auto naive = dev.run(TransposeKernel(256, TransposeVariant::kNaive));
  // Column-major stores: 32 transactions per store request.
  const double per_store =
      naive.counters.get(Event::kGlobalStoreTransaction) /
      naive.counters.get(Event::kGstRequest);
  EXPECT_GT(per_store, 16.0);
}

TEST(Misc, TransposeTiledConflictsPaddedClean) {
  const Device dev(gtx580());
  const auto tiled = dev.run(TransposeKernel(256, TransposeVariant::kTiled));
  const auto padded =
      dev.run(TransposeKernel(256, TransposeVariant::kTiledPadded));
  EXPECT_GT(tiled.counters.get(Event::kSharedBankConflict), 1000.0);
  EXPECT_DOUBLE_EQ(padded.counters.get(Event::kSharedBankConflict), 0.0);
  EXPECT_LT(padded.time_ms, tiled.time_ms);
}

TEST(Misc, TransposeOptimisationLadder) {
  const Device dev(gtx580());
  const double naive =
      dev.run(TransposeKernel(512, TransposeVariant::kNaive)).time_ms;
  const double padded =
      dev.run(TransposeKernel(512, TransposeVariant::kTiledPadded)).time_ms;
  EXPECT_LT(padded, naive);
}

TEST(Misc, StencilReusesCache) {
  const Device dev(gtx580());
  const auto r = dev.run(Stencil5Kernel(512));
  // 5 loads per cell but neighbours share lines: L1 must hit a lot.
  // West/east neighbours share the centre's cache line; north/south rows
  // live on distinct lines, so roughly 2 of 5 accesses hit.
  const double hits = r.counters.get(Event::kL1GlobalLoadHit);
  const double misses = r.counters.get(Event::kL1GlobalLoadMiss);
  EXPECT_GT(hits, 0.5 * misses);
  EXPECT_GT(hits, 0.0);
}

class ReduceVariantSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReduceVariantSweep, CountersInternallyConsistent) {
  const Device dev(gtx580());
  const auto agg = simulate_reduction(dev, GetParam(), 1 << 16);
  const auto& c = agg.counters;
  EXPECT_GE(c.get(Event::kInstIssued), c.get(Event::kInstExecuted));
  EXPECT_GE(c.get(Event::kBranch), c.get(Event::kDivergentBranch));
  EXPECT_GT(c.get(Event::kSharedLoad), 0.0);
  EXPECT_GT(c.get(Event::kSharedStore), 0.0);
  EXPECT_GT(c.get(Event::kGldRequest), 0.0);
  // Every executed warp instruction has at least one active lane.
  EXPECT_GE(c.get(Event::kThreadInstExecuted), c.get(Event::kInstExecuted));
}

INSTANTIATE_TEST_SUITE_P(Variants, ReduceVariantSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

}  // namespace
}  // namespace bf::kernels
