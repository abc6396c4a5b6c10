// CPU kernels for the heterogeneous extension.
//
// Kernels are the CPU-side analogues of the paper's workloads: blocked
// SIMD matrix multiply, STREAM triad, and a row-parallel Needleman-
// Wunsch. profiling::cpu_sweep (profiling/cpu_sweep.hpp) turns them into
// the same kind of ml::Dataset the GPU profiler produces.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpusim/cpu_engine.hpp"

namespace bf::cpusim {

/// Blocked single-precision matmul with SIMD inner loops (row-block x
/// k-block chunks).
class CpuMatMulKernel final : public CpuKernel {
 public:
  explicit CpuMatMulKernel(int n, const CpuSpec& spec);
  std::string name() const override { return "cpu_matmul"; }
  std::int64_t num_chunks() const override;
  void emit_chunk(std::int64_t chunk, CpuTraceSink& sink) const override;

 private:
  int n_;
  int simd_;
  int line_bytes_;
  std::uint64_t a_base_, b_base_, c_base_;
};

/// STREAM triad a[i] = b[i] + s*c[i] over n floats.
class CpuTriadKernel final : public CpuKernel {
 public:
  explicit CpuTriadKernel(std::int64_t n, const CpuSpec& spec);
  std::string name() const override { return "cpu_triad"; }
  std::int64_t num_chunks() const override;
  void emit_chunk(std::int64_t chunk, CpuTraceSink& sink) const override;

 private:
  std::int64_t n_;
  int simd_;
  int line_bytes_;
  std::uint64_t a_base_, b_base_, c_base_;
};

/// Row-parallel Needleman-Wunsch score-matrix fill (scalar, branchy).
class CpuNwKernel final : public CpuKernel {
 public:
  explicit CpuNwKernel(int len);
  std::string name() const override { return "cpu_nw"; }
  std::int64_t num_chunks() const override;
  void emit_chunk(std::int64_t chunk, CpuTraceSink& sink) const override;

 private:
  int len_;
  std::uint64_t ref_base_, mat_base_;
};

/// A CPU workload: named factory from problem size to kernel.
struct CpuWorkload {
  std::string name;
  std::function<std::unique_ptr<CpuKernel>(double size,
                                           const CpuSpec& spec)>
      make;
};

CpuWorkload cpu_matmul_workload();
CpuWorkload cpu_triad_workload();
CpuWorkload cpu_nw_workload();

}  // namespace bf::cpusim
