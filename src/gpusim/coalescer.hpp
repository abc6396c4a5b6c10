// Global-memory coalescing: map a warp's per-lane addresses onto memory
// transactions of a fixed segment size (128 B when served by L1 on Fermi,
// 32 B segments when served by L2 on Kepler).
//
// The transaction count per request is exactly the signal the paper's §3.2
// reads from counters: "if the number of memory requests … is significantly
// lower than the number of actual memory transactions … this may indicate
// issues about memory access patterns."
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "gpusim/trace.hpp"

namespace bf::gpusim {

/// Append the distinct aligned segments touched by the active lanes of
/// `mask`, each accessing `access_bytes` from its `addr`, to `out` in
/// ascending order; returns how many were appended. It allocates nothing
/// once `out` has capacity: the trace sink coalesces every global access
/// of a warp into one segment slab this way.
int append_segments(std::uint32_t mask,
                    const std::array<std::uint32_t, 32>& addr,
                    int access_bytes, int segment_bytes,
                    std::vector<std::uint64_t>& out);

/// Distinct aligned segments touched by the active lanes of one access.
/// Returns the segment base addresses (each aligned to segment_bytes).
/// A fully-coalesced 4-byte access of 32 consecutive lanes yields one
/// 128-byte segment or four 32-byte segments.
std::vector<std::uint64_t> coalesce(const WarpInstr& instr,
                                    int segment_bytes);

/// Just the transaction count (cheaper when the addresses are not needed).
int coalesced_transaction_count(const WarpInstr& instr, int segment_bytes);

}  // namespace bf::gpusim
