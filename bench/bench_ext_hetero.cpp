// Extension A8 (paper §7): heterogeneous workload partitioning.
//
// "we believe our approach is very useful in the context of emerging
// CPU+GPUs heterogeneous systems, where performance modeling is key to
// determine workload partitioning [Glinda, StarPU, OmpSs]". With a
// BlackForest time predictor per processor, the optimal static row split
// of a matmul between CPU and GPU falls out directly: give the CPU the
// fraction f* that equalises both sides' predicted times.
#include <cstdio>

#include <algorithm>

#include "bench_util.hpp"
#include "core/predictor.hpp"
#include "cpusim/cpu_workloads.hpp"
#include "profiling/cpu_sweep.hpp"
#include "profiling/workloads.hpp"

int main() {
  using namespace bf;
  bench::print_header("Extension A8",
                      "heterogeneous CPU+GPU workload partitioning (MM)");

  // Train one predictor per processor.
  const gpusim::Device gpu(gpusim::gtx580());
  const auto gpu_sweep = profiling::sweep(
      profiling::matmul_workload(), gpu,
      profiling::log2_sizes(32, 1024, 20, 16));
  core::ProblemScalingOptions opt;
  opt.model.exclude = bench::paper_excludes();
  const auto gpu_pred = core::ProblemScalingPredictor::build(gpu_sweep, opt);

  const cpusim::CpuDevice cpu(cpusim::xeon_e5_2620());
  std::vector<double> cpu_sizes;
  for (int n = 64; n <= 1024; n += 48) cpu_sizes.push_back(n);
  const auto cpu_sweep_ds = profiling::cpu_sweep(
      cpusim::cpu_matmul_workload(), cpu, cpu_sizes);
  core::ProblemScalingOptions cpu_opt;
  const auto cpu_pred =
      core::ProblemScalingPredictor::build(cpu_sweep_ds, cpu_opt);

  // For a row split, each side's time scales ~linearly with its share of
  // rows at fixed n: t_side(f) ~ f * t_side(1). Equalising gives
  // f*_cpu = t_gpu / (t_cpu + t_gpu).
  std::printf("%-8s %-12s %-12s %-10s %-12s %s\n", "n", "t_cpu(ms)",
              "t_gpu(ms)", "cpu share", "t_split(ms)", "speedup vs GPU");
  for (const double n : {128.0, 256.0, 512.0, 768.0, 1024.0}) {
    const double t_cpu = cpu_pred.predict_guarded(n).value;
    const double t_gpu = gpu_pred.predict_guarded(n).value;
    const double f_cpu = t_gpu / (t_cpu + t_gpu);
    const double t_split = std::max(f_cpu * t_cpu, (1.0 - f_cpu) * t_gpu);
    std::printf("%-8.0f %-12.4f %-12.4f %-10.3f %-12.4f %.2fx\n", n, t_cpu,
                t_gpu, f_cpu, t_split, t_gpu / t_split);
  }
  std::printf(
      "\nreading: the GPU dominates at large n (tiny optimal CPU share);\n"
      "at small n the CPU is competitive and co-scheduling pays — the\n"
      "imbalance profile Glinda-style partitioners exploit.\n");
  return 0;
}
