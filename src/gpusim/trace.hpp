// Warp-level instruction traces: the contract between kernels and the
// timing engine.
//
// A kernel describes, for each warp of each thread block, the sequence of
// warp-wide instructions it executes, including per-lane byte addresses for
// memory operations and the active-thread mask (divergent branches appear
// as instructions with partial masks, exactly as a real SIMT pipeline
// serialises them).
//
// The kernel emits through a TraceSink, which lowers each instruction as
// it arrives: it writes a 12-byte TraceRecord, coalesces a global access
// into the warp's segment slab and resolves a shared access to its bank
// passes. No per-lane address outlives the call that passed it. A shared
// access that a kernel repeats (the same mask and addresses, e.g. every
// iteration of a tile loop) can be resolved once and replayed.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace bf::gpusim {

struct SharedBanks;  // gpusim/sharedmem.hpp

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

/// One warp-wide instruction with its lane addresses: the input of the
/// per-instruction coalescing and bank-conflict helpers (coalescer.hpp,
/// sharedmem.hpp). For memory ops, addr[lane] holds the byte address
/// accessed by each active lane (inactive lanes are ignored).
struct WarpInstr {
  Op op = Op::kIAlu;
  std::uint32_t mask = kFullMask;
  std::uint8_t access_bytes = 4;  ///< per-lane access width for memory ops
  bool divergent = false;         ///< for kBranch: did the warp diverge?
  std::array<std::uint32_t, 32> addr{};
};

/// One warp instruction as the engine executes it. A shared access keeps
/// its bank-conflict passes, a global access its transaction count and the
/// offset of its coalesced segments in the warp's slab. 12 bytes where a
/// WarpInstr takes 140.
struct TraceRecord {
  std::uint32_t mask = 0;
  std::uint32_t seg_begin = 0;  ///< global ops: first segment in the slab
  Op op = Op::kIAlu;
  std::uint8_t access_bytes = 0;
  bool divergent = false;
  std::uint8_t count = 0;  ///< shared: bank passes; global: transactions
};
static_assert(sizeof(TraceRecord) == 12);

/// A shared-memory access resolved by TraceSink::resolve: its mask, width
/// and bank-conflict passes, without the lane addresses. Only a sink makes
/// one, and it is valid only inside the emit_warp call that made it: the
/// passes depend on the sink's architecture.
class SharedAccess {
 private:
  friend class TraceSink;
  SharedAccess(std::uint32_t mask, std::uint8_t access_bytes,
               std::uint8_t passes)
      : mask_(mask), access_bytes_(access_bytes), passes_(passes) {}

  std::uint32_t mask_;
  std::uint8_t access_bytes_;
  std::uint8_t passes_;
};

/// Builder through which kernels emit a warp's instructions. The engine
/// makes one per warp; every call appends one record per instruction to
/// the warp's trace, lowered for the engine's architecture.
class TraceSink {
 public:
  /// Lower into `records` and `segments`: bank passes by `banks`, global
  /// loads and stores coalesced into segments of the given sizes.
  TraceSink(const SharedBanks& banks, int load_segment_bytes,
            int store_segment_bytes, std::vector<TraceRecord>& records,
            std::vector<std::uint64_t>& segments)
      : banks_(banks),
        load_segment_bytes_(load_segment_bytes),
        store_segment_bytes_(store_segment_bytes),
        records_(records),
        segments_(segments) {}

  /// `count` back-to-back arithmetic instructions under `mask`.
  void alu(std::uint32_t mask, int count = 1, Op op = Op::kFAlu) {
    BF_CHECK(op == Op::kIAlu || op == Op::kFAlu || op == Op::kSfu);
    for (int i = 0; i < count; ++i) push(op, mask);
  }

  void global_load(std::uint32_t mask, const std::array<std::uint32_t, 32>& addr,
                   std::uint8_t access_bytes = 4) {
    push_global(Op::kLdGlobal, mask, addr, access_bytes, load_segment_bytes_);
  }
  void global_store(std::uint32_t mask,
                    const std::array<std::uint32_t, 32>& addr,
                    std::uint8_t access_bytes = 4) {
    push_global(Op::kStGlobal, mask, addr, access_bytes, store_segment_bytes_);
  }

  /// Resolve a shared access to its bank passes once, for any number of
  /// shared_load / shared_store replays in this emit_warp call.
  SharedAccess resolve(std::uint32_t mask,
                       const std::array<std::uint32_t, 32>& addr,
                       std::uint8_t access_bytes = 4) const;

  void shared_load(const SharedAccess& access) {
    push(Op::kLdShared, access.mask_, access.access_bytes_, access.passes_);
  }
  void shared_store(const SharedAccess& access) {
    push(Op::kStShared, access.mask_, access.access_bytes_, access.passes_);
  }
  void shared_load(std::uint32_t mask,
                   const std::array<std::uint32_t, 32>& addr,
                   std::uint8_t access_bytes = 4) {
    shared_load(resolve(mask, addr, access_bytes));
  }
  void shared_store(std::uint32_t mask,
                    const std::array<std::uint32_t, 32>& addr,
                    std::uint8_t access_bytes = 4) {
    shared_store(resolve(mask, addr, access_bytes));
  }

  /// Atomic read-modify-write on shared memory (atomicAdd & friends).
  /// Unlike plain accesses, lanes hitting the SAME address serialise.
  void shared_atomic(std::uint32_t mask,
                     const std::array<std::uint32_t, 32>& addr,
                     std::uint8_t access_bytes = 4);

  void branch(std::uint32_t mask, bool divergent) {
    push(Op::kBranch, mask).divergent = divergent;
  }

  void sync() { push(Op::kSync, kFullMask); }

 private:
  TraceRecord& push(Op op, std::uint32_t mask, std::uint8_t access_bytes = 4,
                    std::uint8_t count = 0) {
    TraceRecord& r = records_.emplace_back();
    r.mask = mask;
    r.op = op;
    r.access_bytes = access_bytes;
    r.count = count;
    return r;
  }

  void push_global(Op op, std::uint32_t mask,
                   const std::array<std::uint32_t, 32>& addr,
                   std::uint8_t access_bytes, int segment_bytes);

  const SharedBanks& banks_;
  const int load_segment_bytes_;
  const int store_segment_bytes_;
  std::vector<TraceRecord>& records_;
  std::vector<std::uint64_t>& segments_;
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
/// index within the block, emit that warp's trace into the sink.
///
/// The engine simulates a launch's SMs in parallel, so emit_warp (like
/// name and geometry) may be called concurrently from several threads on
/// one kernel object. It must be a pure function of its arguments and the
/// kernel's immutable state: no caches, counters or RNGs shared between
/// calls. SharedAccess values belong to the sink that resolved them: keep
/// them local to the call, never in the kernel object.
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
