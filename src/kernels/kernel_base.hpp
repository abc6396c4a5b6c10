// Helpers shared by the kernel library.
//
// Kernels in bf::kernels mirror real CUDA SDK / Rodinia sources: the warp
// traces they emit reproduce the exact per-lane address arithmetic of the
// original kernels, so coalescing, cache behaviour, bank conflicts and
// divergence arise from the same mechanisms as on hardware.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "common/error.hpp"
#include "gpusim/trace.hpp"

namespace bf::kernels {

/// Build a 32-lane address array from a lambda lane -> byte address.
/// Lanes outside the accompanying mask may hold anything; keep them 0.
template <typename F>
std::array<std::uint32_t, 32> lane_addrs(F&& f) {
  std::array<std::uint32_t, 32> a{};
  for (int lane = 0; lane < 32; ++lane) {
    a[static_cast<std::size_t>(lane)] =
        static_cast<std::uint32_t>(f(lane));
  }
  return a;
}

/// Build a lane mask from a predicate lane -> bool.
template <typename F>
std::uint32_t mask_where(F&& pred) {
  std::uint32_t m = 0;
  for (int lane = 0; lane < 32; ++lane) {
    if (pred(lane)) m |= (1u << lane);
  }
  return m;
}

/// True when `mask` is a strict, non-empty subset of `scope` — i.e. the
/// branch guarding it diverged within the warp.
inline bool diverges(std::uint32_t mask, std::uint32_t scope) {
  return mask != 0 && mask != scope;
}

/// Trivial bump allocator handing out disjoint global-memory regions, so
/// different buffers of one kernel never alias in the cache models.
/// Addresses are 32-bit: a region that would end past 2^32 throws
/// bf::Error instead of wrapping onto another.
class AddressSpace {
 public:
  /// Reserve `bytes`, aligned to 256 B; returns the base address.
  std::uint32_t alloc(std::uint64_t bytes) {
    constexpr std::uint64_t kEnd = 1ull << 32;
    BF_CHECK_MSG(next_ < kEnd && bytes <= kEnd - next_,
                 "a " << bytes << "-byte buffer at " << next_
                      << " ends past the 4 GiB address space");
    const auto base = static_cast<std::uint32_t>(next_);
    next_ += (bytes + 255ull) & ~255ull;
    return base;
  }

 private:
  std::uint64_t next_ = 256;  // keep address 0 unused
};

}  // namespace bf::kernels
