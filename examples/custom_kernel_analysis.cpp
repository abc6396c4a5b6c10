// Analysing your own kernel with BlackForest.
//
// This example defines a new workload in user code — a batched AXPY-like
// kernel whose stride is deliberately configurable — registers it as a
// profiling::Workload, and lets the pipeline find the (injected)
// coalescing bottleneck. It demonstrates everything a downstream user
// needs: implement gpusim::TraceKernel, wrap it in a Workload, analyse.
//
// Build & run:  ./build/examples/custom_kernel_analysis
#include <cstdio>

#include "core/pipeline.hpp"
#include "gpusim/engine.hpp"
#include "kernels/kernel_base.hpp"
#include "profiling/workloads.hpp"

namespace {

using namespace bf;

/// y[i*stride] += a * x[i*stride]: stride > 1 wrecks coalescing.
class StridedAxpyKernel final : public gpusim::TraceKernel {
 public:
  StridedAxpyKernel(std::int64_t n, int stride)
      : n_(n), stride_(stride) {
    kernels::AddressSpace mem;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(n) * stride * 4;
    x_base_ = mem.alloc(bytes);
    y_base_ = mem.alloc(bytes);
  }

  std::string name() const override { return "stridedAxpy"; }

  gpusim::LaunchGeometry geometry() const override {
    gpusim::LaunchGeometry g;
    g.grid_x = static_cast<int>((n_ + 255) / 256);
    g.block_x = 256;
    g.registers_per_thread = 12;
    return g;
  }

  // The engine simulates a launch's SMs in parallel, so emit_warp may be
  // called concurrently for different warps: derive everything from the
  // arguments and const members, and mutate no shared state.
  void emit_warp(int block, int warp,
                 gpusim::TraceSink& sink) const override {
    const auto idx = [&](int lane) {
      return (static_cast<std::int64_t>(block) * 256 + warp * 32 + lane) *
             stride_;
    };
    const std::uint32_t active = kernels::mask_where(
        [&](int lane) { return idx(lane) < n_ * stride_; });
    if (active == 0) return;
    sink.alu(gpusim::kFullMask, 2, gpusim::Op::kIAlu);
    sink.global_load(active, kernels::lane_addrs([&](int lane) {
      return x_base_ + 4u * static_cast<std::uint32_t>(idx(lane));
    }));
    sink.alu(active, 1, gpusim::Op::kFAlu);
    sink.global_store(active, kernels::lane_addrs([&](int lane) {
      return y_base_ + 4u * static_cast<std::uint32_t>(idx(lane));
    }));
  }

 private:
  std::int64_t n_;
  int stride_;
  std::uint32_t x_base_ = 0;
  std::uint32_t y_base_ = 0;
};

profiling::Workload strided_axpy_workload(int stride) {
  profiling::Workload w;
  w.name = "stridedAxpy_s" + std::to_string(stride);
  w.run = [stride](const gpusim::Device& device, double problem_size) {
    gpusim::AggregateResult agg;
    const StridedAxpyKernel kernel(
        static_cast<std::int64_t>(problem_size), stride);
    agg.add(device.run(kernel));
    return agg;
  };
  return w;
}

}  // namespace

int main() {
  using namespace bf;
  for (const int stride : {1, 8}) {
    core::PipelineConfig config;
    config.workload = strided_axpy_workload(stride);
    config.arch = gpusim::gtx580();
    config.sizes = profiling::log2_sizes(1 << 14, 1 << 22, 30, 256);
    config.model.exclude = {"power_avg_w", "flop_sp_efficiency"};

    const auto outcome = core::run_analysis(config);
    std::printf("---- stride %d ----\n", stride);
    std::printf("time at n=2^22: %.3f ms\n",
                outcome.data.at(outcome.data.num_rows() - 1, "time_ms"));
    std::printf("gld_efficiency: %.2f\n",
                outcome.data.at(outcome.data.num_rows() - 1,
                                "gld_efficiency"));
    std::printf("%s\n", core::to_text(outcome.report).c_str());
  }
  std::printf("note how the stride-8 variant surfaces uncoalesced-access/"
              "bandwidth patterns that the unit-stride variant lacks.\n");
  return 0;
}
