#include "cpusim/cpu_workloads.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace bf::cpusim {
namespace {

constexpr int kRowBlock = 8;   // rows per matmul chunk
constexpr int kKBlock = 64;    // k-iterations per matmul chunk
constexpr std::int64_t kTriadChunk = 4096;  // elements per triad chunk

std::uint64_t align_up(std::uint64_t v) { return (v + 255) & ~255ull; }

}  // namespace

// ---- blocked matmul ----

CpuMatMulKernel::CpuMatMulKernel(int n, const CpuSpec& spec)
    : n_(n), simd_(spec.simd_width), line_bytes_(spec.l1_line_bytes) {
  BF_CHECK_MSG(n >= kRowBlock && n % kRowBlock == 0,
               "n must be a positive multiple of " << kRowBlock);
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * n * 4;
  a_base_ = 256;
  b_base_ = align_up(a_base_ + bytes);
  c_base_ = align_up(b_base_ + bytes);
}

std::int64_t CpuMatMulKernel::num_chunks() const {
  const std::int64_t kblocks = (n_ + kKBlock - 1) / kKBlock;
  return static_cast<std::int64_t>(n_ / kRowBlock) * kblocks;
}

void CpuMatMulKernel::emit_chunk(std::int64_t chunk,
                                 CpuTraceSink& sink) const {
  const std::int64_t kblocks = (n_ + kKBlock - 1) / kKBlock;
  const int ib = static_cast<int>(chunk / kblocks) * kRowBlock;
  const int kb = static_cast<int>(chunk % kblocks) * kKBlock;
  const int k_end = std::min(n_, kb + kKBlock);
  const int floats_per_line = line_bytes_ / 4;

  for (int i = ib; i < ib + kRowBlock; ++i) {
    for (int k = kb; k < k_end; ++k) {
      // Load A[i][k] (scalar, reused across the j loop).
      sink.load(a_base_ + 4ull * (static_cast<std::uint64_t>(i) * n_ + k));
      sink.scalar();  // broadcast
      // SIMD j-loop over the B row / C row, touched at line granularity.
      for (int j = 0; j < n_; j += floats_per_line) {
        sink.load(b_base_ +
                  4ull * (static_cast<std::uint64_t>(k) * n_ + j));
        sink.load(c_base_ +
                  4ull * (static_cast<std::uint64_t>(i) * n_ + j));
        // floats_per_line / simd fused multiply-adds per line.
        sink.simd(std::max(1, floats_per_line / simd_));
        sink.store(c_base_ +
                   4ull * (static_cast<std::uint64_t>(i) * n_ + j));
      }
      sink.branch(false);  // k-loop back edge, well predicted
    }
  }
}

// ---- STREAM triad ----

CpuTriadKernel::CpuTriadKernel(std::int64_t n, const CpuSpec& spec)
    : n_(n), simd_(spec.simd_width), line_bytes_(spec.l1_line_bytes) {
  BF_CHECK_MSG(n >= kTriadChunk, "triad needs at least "
                                     << kTriadChunk << " elements");
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * 4;
  a_base_ = 256;
  b_base_ = align_up(a_base_ + bytes);
  c_base_ = align_up(b_base_ + bytes);
}

std::int64_t CpuTriadKernel::num_chunks() const {
  return (n_ + kTriadChunk - 1) / kTriadChunk;
}

void CpuTriadKernel::emit_chunk(std::int64_t chunk,
                                CpuTraceSink& sink) const {
  const std::int64_t lo = chunk * kTriadChunk;
  const std::int64_t hi = std::min(n_, lo + kTriadChunk);
  const int floats_per_line = line_bytes_ / 4;
  for (std::int64_t e = lo; e < hi; e += floats_per_line) {
    sink.load(b_base_ + 4ull * static_cast<std::uint64_t>(e));
    sink.load(c_base_ + 4ull * static_cast<std::uint64_t>(e));
    sink.simd(std::max(1, floats_per_line / simd_));
    sink.store(a_base_ + 4ull * static_cast<std::uint64_t>(e));
  }
  sink.branch(false);
}

// ---- Needleman-Wunsch ----

CpuNwKernel::CpuNwKernel(int len) : len_(len) {
  BF_CHECK_MSG(len >= 16, "sequence too short");
  const std::uint64_t cells =
      static_cast<std::uint64_t>(len + 1) * (len + 1) * 4;
  ref_base_ = 256;
  mat_base_ = align_up(ref_base_ + cells);
}

std::int64_t CpuNwKernel::num_chunks() const { return len_; }

void CpuNwKernel::emit_chunk(std::int64_t chunk, CpuTraceSink& sink) const {
  // One matrix row: north/west/northwest loads + max chain + store. The
  // two max() branches are data-dependent and mispredict often (~20%).
  const std::int64_t cols = len_ + 1;
  const std::int64_t row = chunk + 1;
  for (std::int64_t j = 1; j <= len_; ++j) {
    const std::uint64_t idx =
        static_cast<std::uint64_t>(row) * cols + static_cast<std::uint64_t>(j);
    sink.load(mat_base_ + 4ull * (idx - cols - 1));  // northwest
    sink.load(mat_base_ + 4ull * (idx - cols));      // north
    sink.load(mat_base_ + 4ull * (idx - 1));         // west (L1 hit)
    sink.load(ref_base_ + 4ull * idx);               // substitution score
    sink.scalar(3);                                  // adds + compare
    sink.branch(j % 5 == 0);                         // ~20% mispredicts
    sink.branch(j % 7 == 0);
    sink.store(mat_base_ + 4ull * idx);
  }
}

// ---- workload registry & sweep ----

CpuWorkload cpu_matmul_workload() {
  CpuWorkload w;
  w.name = "cpu_matmul";
  w.make = [](double size, const CpuSpec& spec) {
    return std::make_unique<CpuMatMulKernel>(
        static_cast<int>(std::llround(size)), spec);
  };
  return w;
}

CpuWorkload cpu_triad_workload() {
  CpuWorkload w;
  w.name = "cpu_triad";
  w.make = [](double size, const CpuSpec& spec) {
    return std::make_unique<CpuTriadKernel>(
        static_cast<std::int64_t>(std::llround(size)), spec);
  };
  return w;
}

CpuWorkload cpu_nw_workload() {
  CpuWorkload w;
  w.name = "cpu_nw";
  w.make = [](double size, const CpuSpec&) {
    return std::make_unique<CpuNwKernel>(
        static_cast<int>(std::llround(size)));
  };
  return w;
}

}  // namespace bf::cpusim
