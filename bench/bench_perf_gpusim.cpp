// P2: google-benchmark microbenchmarks of the GPU simulator — the cost
// of one profiled run per workload, of whole sweeps, and the hot
// primitives (coalescer, bank-conflict detection, cache).
#include <benchmark/benchmark.h>

#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/sharedmem.hpp"
#include "kernels/kernel_base.hpp"
#include "kernels/matmul.hpp"
#include "kernels/nw.hpp"
#include "kernels/reduce.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"

namespace {

using namespace bf;
using namespace bf::gpusim;

void BM_SimReduce(benchmark::State& state) {
  const Device device(gtx580());
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::simulate_reduction(device, 2, n).time_ms);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimReduce)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 24)
    ->Unit(benchmark::kMillisecond);

void BM_SimMatMul(benchmark::State& state) {
  const Device device(gtx580());
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::simulate_matmul(device, n).time_ms);
  }
}
BENCHMARK(BM_SimMatMul)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_SimNw(benchmark::State& state) {
  const Device device(gtx580());
  const int len = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::simulate_nw(device, len).time_ms);
  }
}
BENCHMARK(BM_SimNw)->Arg(512)->Arg(2048)->Unit(benchmark::kMillisecond);

// A whole sweep as perfbench's analyses collect it: its sizes run at once
// on the shared pool, so wall time is the measure.
void BM_Sweep(benchmark::State& state, const char* workload,
              const std::vector<double>& sizes) {
  const Device device(gtx580());
  const profiling::Workload w = profiling::workload_by_name(workload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiling::sweep(w, device, sizes).num_rows());
  }
}
BENCHMARK_CAPTURE(BM_Sweep, needle, "needle",
                  profiling::log2_sizes(64, 8192, 25, 16))
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_Sweep, matrixMul, "matrixMul",
                  profiling::log2_sizes(32, 1024, 17, 16))
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Coalescer(benchmark::State& state) {
  WarpInstr in;
  in.op = Op::kLdGlobal;
  in.addr = kernels::lane_addrs([&](int lane) {
    return static_cast<std::uint32_t>(lane) *
           static_cast<std::uint32_t>(state.range(0));
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(coalesced_transaction_count(in, 128));
  }
}
BENCHMARK(BM_Coalescer)->Arg(4)->Arg(128)->Arg(4096);

// The overload the trace sink calls: bank geometry built once, as the
// engine builds it once per SM.
void BM_BankConflictCheck(benchmark::State& state) {
  const SharedBanks banks(gtx580());
  const auto addr = kernels::lane_addrs([&](int lane) {
    return static_cast<std::uint32_t>(lane) *
           static_cast<std::uint32_t>(state.range(0));
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(shared_access_passes(kFullMask, addr, banks));
  }
}
BENCHMARK(BM_BankConflictCheck)->Arg(4)->Arg(128);

void BM_CacheAccess(benchmark::State& state) {
  Cache cache(48 * 1024, 128, 8);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr, false).hit);
    addr += 128;
    if (addr > (1u << 22)) addr = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

}  // namespace

BENCHMARK_MAIN();
