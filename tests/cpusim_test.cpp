// Tests for the CPU substrate of the §7 heterogeneous extension.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/model.hpp"
#include "cpusim/cpu_workloads.hpp"
#include "profiling/cpu_sweep.hpp"

namespace bf::cpusim {
namespace {

TEST(CpuArch, SpecsAndCharacteristics) {
  const CpuSpec xeon = xeon_e5_2620();
  EXPECT_EQ(xeon.cores, 6);
  EXPECT_EQ(xeon.simd_width, 8);
  const CpuSpec i7 = core_i7_4770k();
  EXPECT_GT(i7.clock_ghz, xeon.clock_ghz);
  const auto chars = cpu_machine_characteristics(xeon);
  ASSERT_EQ(chars.size(), 5u);
  EXPECT_EQ(chars[0].first, "cores");
  EXPECT_DOUBLE_EQ(chars[0].second, 6.0);
}

TEST(CpuEngine, TriadCountersMatchClosedForm) {
  const CpuDevice dev(xeon_e5_2620());
  const std::int64_t n = 1 << 20;
  const CpuTriadKernel kernel(n, dev.spec());
  CpuRunOptions opts;
  opts.max_sampled_chunks = 0;  // exact
  const auto r = dev.run(kernel, opts);
  // Per 16-float line: 2 loads; n/16 lines.
  EXPECT_NEAR(r.counters.at("l1d_loads"), 2.0 * n / 16.0, 1.0);
  // Streaming working set >> LLC: every line misses to DRAM.
  EXPECT_GT(r.counters.at("llc_misses"),
            0.9 * r.counters.at("l1d_load_misses"));
  // DRAM traffic ~ 3 arrays * 4 B * n (2 read + 1 write-back stream).
  const double dram = r.counters.at("dram_read_bytes") +
                      r.counters.at("dram_write_bytes");
  EXPECT_NEAR(dram, 3.0 * 4.0 * static_cast<double>(n),
              0.25 * 3.0 * 4.0 * static_cast<double>(n));
  EXPECT_TRUE(r.bandwidth_bound);
}

TEST(CpuEngine, MatMulComputeBoundAndCacheFriendly) {
  const CpuDevice dev(xeon_e5_2620());
  const CpuMatMulKernel kernel(256, dev.spec());
  const auto r = dev.run(kernel);
  // Blocked matmul reuses B/C lines: L1 miss ratio well under 50%.
  EXPECT_LT(r.counters.at("l1d_load_misses"),
            0.5 * r.counters.at("l1d_loads"));
  EXPECT_GT(r.counters.at("simd_ops"), 0.0);
  EXPECT_GT(r.counters.at("ipc"), 0.1);
}

TEST(CpuEngine, SamplingApproximatesFullRun) {
  const CpuDevice dev(xeon_e5_2620());
  const CpuMatMulKernel kernel(192, dev.spec());
  CpuRunOptions full;
  full.max_sampled_chunks = 0;
  CpuRunOptions sampled;
  sampled.max_sampled_chunks = 48;
  const auto rf = dev.run(kernel, full);
  const auto rs = dev.run(kernel, sampled);
  EXPECT_LT(rs.chunks_simulated, rf.chunks_simulated);
  EXPECT_NEAR(rs.counters.at("instructions"),
              rf.counters.at("instructions"),
              0.05 * rf.counters.at("instructions"));
  EXPECT_NEAR(rs.time_ms, rf.time_ms, 0.3 * rf.time_ms);
}

TEST(CpuEngine, NwIsBranchyAndScalar) {
  const CpuDevice dev(xeon_e5_2620());
  const CpuNwKernel kernel(512);
  const auto r = dev.run(kernel);
  EXPECT_GT(r.counters.at("branch_misses"), 0.0);
  EXPECT_DOUBLE_EQ(r.counters.at("simd_ops"), 0.0);
  EXPECT_GT(r.counters.at("branches"),
            5.0 * r.counters.at("branch_misses"));
}

TEST(CpuEngine, TimeScalesWithProblem) {
  const CpuDevice dev(xeon_e5_2620());
  const auto t1 = dev.run(CpuMatMulKernel(128, dev.spec())).time_ms;
  const auto t2 = dev.run(CpuMatMulKernel(512, dev.spec())).time_ms;
  EXPECT_GT(t2, 10.0 * t1);  // O(n^3)
}

TEST(CpuEngine, FasterChipIsFaster) {
  // Same silicon generation, higher clock: i7 wins on a compute-bound
  // kernel despite fewer cores (4*3.5 vs 6*2.0 GHz-cores).
  const CpuDevice xeon(xeon_e5_2620());
  const CpuDevice i7(core_i7_4770k());
  const auto tx = xeon.run(CpuMatMulKernel(256, xeon.spec())).time_ms;
  const auto ti = i7.run(CpuMatMulKernel(256, i7.spec())).time_ms;
  EXPECT_LT(ti, tx);
}

TEST(CpuSweep, ProducesBlackForestReadyDataset) {
  const CpuDevice dev(xeon_e5_2620());
  const auto ds =
      profiling::cpu_sweep(cpu_matmul_workload(), dev, {64, 128, 192, 256});
  EXPECT_EQ(ds.num_rows(), 4u);
  EXPECT_TRUE(ds.has_column("size"));
  EXPECT_TRUE(ds.has_column("time_ms"));
  EXPECT_TRUE(ds.has_column("llc_misses"));
  EXPECT_TRUE(ds.has_column("ipc"));
  // Time grows with size.
  const auto& t = ds.column("time_ms");
  EXPECT_LT(t.front(), t.back());
}

TEST(CpuSweep, MachineCharacteristicsInjected) {
  const CpuDevice dev(core_i7_4770k());
  profiling::CpuSweepOptions opt;
  opt.machine_characteristics = true;
  const auto ds = profiling::cpu_sweep(cpu_triad_workload(), dev,
                                       {1 << 16, 1 << 18}, opt);
  EXPECT_TRUE(ds.has_column("cores"));
  EXPECT_DOUBLE_EQ(ds.at(0, "cores"), 4.0);
}

TEST(CpuPipeline, BlackForestCoreRunsUnchangedOnCpuData) {
  // The unified-modelling claim: the same BlackForestModel consumes CPU
  // counter datasets with no changes.
  const CpuDevice dev(xeon_e5_2620());
  std::vector<double> sizes;
  for (int n = 64; n <= 512; n += 32) sizes.push_back(n);
  const auto ds = profiling::cpu_sweep(cpu_matmul_workload(), dev, sizes);

  core::ModelOptions opt;
  opt.forest.n_trees = 150;
  const auto model = core::BlackForestModel::fit(ds, opt);
  EXPECT_GT(model.pct_var_explained(), 60.0);
  EXPECT_FALSE(model.top_variables(3).empty());
}

TEST(CpuEngine, DegenerateKernelRejected) {
  class EmptyKernel final : public CpuKernel {
   public:
    std::string name() const override { return "empty"; }
    std::int64_t num_chunks() const override { return 0; }
    void emit_chunk(std::int64_t, CpuTraceSink&) const override {}
  };
  const CpuDevice dev(xeon_e5_2620());
  EXPECT_THROW(dev.run(EmptyKernel{}), Error);
}

}  // namespace
}  // namespace bf::cpusim
