// Shared-memory bank-conflict model.
//
// Shared memory is divided into `banks` word-wide banks (32 x 4 B on both
// Fermi and Kepler in 4-byte mode). A warp access that maps two or more
// *distinct* words to the same bank is serialised into that many passes;
// lanes reading the same word broadcast and do not conflict. The extra
// passes are instruction replays — the very events behind the paper's
// shared_replay_overhead / l1_shared_bank_conflict counters that dominate
// reduce1's bottleneck analysis (§5.2).
#pragma once

#include <array>
#include <cstdint>

#include "gpusim/arch.hpp"
#include "gpusim/trace.hpp"

namespace bf::gpusim {

/// An architecture's bank geometry as shift and mask. Bank count (at most
/// 64) and bank width must be powers of two; the constructor checks both.
struct SharedBanks {
  explicit SharedBanks(const ArchSpec& arch);
  int word_shift = 2;            ///< log2(bank width in bytes)
  std::uint32_t bank_mask = 31;  ///< bank count - 1
};

/// Number of serialised passes (>= 1) needed for one shared-memory warp
/// access of the active lanes of `mask`. Replays = passes - 1.
int shared_access_passes(std::uint32_t mask,
                         const std::array<std::uint32_t, 32>& addr,
                         const SharedBanks& banks);

/// Serialised passes for a shared-memory ATOMIC: lanes mapping to the
/// same bank conflict as usual, and lanes hitting the same address also
/// serialise (the read-modify-write cannot broadcast). A warp-wide
/// atomicAdd to a single histogram bin therefore takes 32 passes.
int shared_atomic_passes(std::uint32_t mask,
                         const std::array<std::uint32_t, 32>& addr,
                         const SharedBanks& banks);

/// The same, for one recorded instruction (checked to be of the matching
/// shared op).
int shared_access_passes(const WarpInstr& instr, const ArchSpec& arch);
int shared_atomic_passes(const WarpInstr& instr, const ArchSpec& arch);

/// Convenience: replays only.
inline int shared_conflict_replays(const WarpInstr& instr,
                                   const ArchSpec& arch) {
  return shared_access_passes(instr, arch) - 1;
}

}  // namespace bf::gpusim
