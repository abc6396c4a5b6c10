// Warp-level instruction traces: the contract between kernels and the
// timing engine.
//
// A kernel describes, for each warp of each thread block, the sequence of
// warp-wide instructions it executes, including per-lane byte addresses for
// memory operations and the active-thread mask (divergent branches appear
// as instructions with partial masks, exactly as a real SIMT pipeline
// serialises them).
//
// WarpInstr is the kernel-facing record only. The engine lowers each
// warp's trace when it admits the warp (coalesced segments, bank passes)
// and keeps none of the per-lane addresses past that point.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace bf::gpusim {

enum class Op : std::uint8_t {
  kIAlu,      ///< integer add/mul/shift/compare
  kFAlu,      ///< single-precision add/mul/fma
  kSfu,       ///< special-function (rsqrt, exp, ...)
  kLdGlobal,  ///< global memory load
  kStGlobal,  ///< global memory store
  kLdShared,  ///< shared memory load
  kStShared,  ///< shared memory store
  kAtomicShared,  ///< atomic read-modify-write on shared memory
  kBranch,    ///< branch instruction
  kSync,      ///< __syncthreads() barrier
};

inline bool is_memory_op(Op op) {
  return op == Op::kLdGlobal || op == Op::kStGlobal || op == Op::kLdShared ||
         op == Op::kStShared || op == Op::kAtomicShared;
}

inline constexpr std::uint32_t kFullMask = 0xffffffffu;

/// One warp-wide instruction. For memory ops, addr[lane] holds the byte
/// address accessed by each active lane (inactive lanes are ignored).
struct WarpInstr {
  Op op = Op::kIAlu;
  std::uint32_t mask = kFullMask;
  std::uint8_t access_bytes = 4;  ///< per-lane access width for memory ops
  bool divergent = false;         ///< for kBranch: did the warp diverge?
  std::array<std::uint32_t, 32> addr{};
};

using WarpTrace = std::vector<WarpInstr>;

/// Builder through which kernels emit a warp's instructions.
class TraceSink {
 public:
  explicit TraceSink(WarpTrace& out) : out_(out) {}

  /// `count` back-to-back arithmetic instructions under `mask`.
  void alu(std::uint32_t mask, int count = 1, Op op = Op::kFAlu) {
    BF_CHECK(op == Op::kIAlu || op == Op::kFAlu || op == Op::kSfu);
    WarpInstr in;
    in.op = op;
    in.mask = mask;
    for (int i = 0; i < count; ++i) out_.push_back(in);
  }

  void global_load(std::uint32_t mask, const std::array<std::uint32_t, 32>& addr,
                   std::uint8_t access_bytes = 4) {
    push_mem(Op::kLdGlobal, mask, addr, access_bytes);
  }
  void global_store(std::uint32_t mask,
                    const std::array<std::uint32_t, 32>& addr,
                    std::uint8_t access_bytes = 4) {
    push_mem(Op::kStGlobal, mask, addr, access_bytes);
  }
  void shared_load(std::uint32_t mask,
                   const std::array<std::uint32_t, 32>& addr,
                   std::uint8_t access_bytes = 4) {
    push_mem(Op::kLdShared, mask, addr, access_bytes);
  }
  void shared_store(std::uint32_t mask,
                    const std::array<std::uint32_t, 32>& addr,
                    std::uint8_t access_bytes = 4) {
    push_mem(Op::kStShared, mask, addr, access_bytes);
  }

  /// Atomic read-modify-write on shared memory (atomicAdd & friends).
  /// Unlike plain accesses, lanes hitting the SAME address serialise.
  void shared_atomic(std::uint32_t mask,
                     const std::array<std::uint32_t, 32>& addr,
                     std::uint8_t access_bytes = 4) {
    push_mem(Op::kAtomicShared, mask, addr, access_bytes);
  }

  void branch(std::uint32_t mask, bool divergent) {
    WarpInstr in;
    in.op = Op::kBranch;
    in.mask = mask;
    in.divergent = divergent;
    out_.push_back(in);
  }

  void sync() {
    WarpInstr in;
    in.op = Op::kSync;
    out_.push_back(in);
  }

 private:
  void push_mem(Op op, std::uint32_t mask,
                const std::array<std::uint32_t, 32>& addr,
                std::uint8_t access_bytes) {
    BF_CHECK_MSG(mask != 0, "memory op with empty mask");
    WarpInstr in;
    in.op = op;
    in.mask = mask;
    in.access_bytes = access_bytes;
    in.addr = addr;
    out_.push_back(in);
  }

  WarpTrace& out_;
};

/// Kernel launch shape (2D grid of 2D blocks, flattened internally).
struct LaunchGeometry {
  int grid_x = 1;
  int grid_y = 1;
  int block_x = 1;
  int block_y = 1;
  int shared_mem_per_block = 0;   ///< bytes of static+dynamic shared memory
  int registers_per_thread = 20;

  int num_blocks() const { return grid_x * grid_y; }
  int block_size() const { return block_x * block_y; }
  int warps_per_block(int warp_size = 32) const {
    return (block_size() + warp_size - 1) / warp_size;
  }
};

/// The interface kernels implement: given a flat block index and a warp
/// index within the block, emit that warp's trace.
///
/// The engine simulates a launch's SMs in parallel, so emit_warp (like
/// name and geometry) may be called concurrently from several threads on
/// one kernel object. It must be a pure function of its arguments and the
/// kernel's immutable state: no caches, counters or RNGs shared between
/// calls.
class TraceKernel {
 public:
  virtual ~TraceKernel() = default;
  virtual std::string name() const = 0;
  virtual LaunchGeometry geometry() const = 0;
  virtual void emit_warp(int block, int warp, TraceSink& sink) const = 0;
};

/// Lane mask helpers.
inline std::uint32_t mask_first_lanes(int n) {
  BF_CHECK(n >= 0 && n <= 32);
  return n == 32 ? kFullMask : ((1u << n) - 1u);
}

inline int popcount_mask(std::uint32_t mask) {
  return __builtin_popcount(mask);
}

}  // namespace bf::gpusim
