#include "gpusim/sharedmem.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bf::gpusim {
namespace {

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

}  // namespace

SharedBanks::SharedBanks(const ArchSpec& arch) {
  BF_CHECK_MSG(is_pow2(arch.shared_banks) && arch.shared_banks <= 64,
               "shared bank count must be a power of two <= 64, got "
                   << arch.shared_banks);
  BF_CHECK_MSG(is_pow2(arch.shared_bank_width_bytes),
               "shared bank width must be a power of two, got "
                   << arch.shared_bank_width_bytes);
  word_shift =
      __builtin_ctz(static_cast<unsigned>(arch.shared_bank_width_bytes));
  bank_mask = static_cast<std::uint32_t>(arch.shared_banks - 1);
}

int shared_access_passes(std::uint32_t mask,
                         const std::array<std::uint32_t, 32>& addr,
                         const SharedBanks& banks) {
  // Passes = the most distinct words any one bank is asked for. Each bank
  // chains the lanes that brought it a new word, so a lane compares only
  // against the distinct words already in its own bank; finding its word
  // there is a broadcast.
  std::array<std::int8_t, 64> head;  // last lane with a new word, per bank
  head.fill(-1);
  std::array<std::int8_t, 32> prev{};  // the bank's previous such lane
  std::array<std::uint32_t, 32> words{};
  std::array<std::uint8_t, 64> distinct{};
  int passes = 1;
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    const int lane = __builtin_ctz(m);
    const std::uint32_t word =
        addr[static_cast<std::size_t>(lane)] >> banks.word_shift;
    const std::uint32_t bank = word & banks.bank_mask;
    int j = head[bank];
    while (j >= 0 && words[static_cast<std::size_t>(j)] != word) {
      j = prev[static_cast<std::size_t>(j)];
    }
    if (j >= 0) continue;
    words[static_cast<std::size_t>(lane)] = word;
    prev[static_cast<std::size_t>(lane)] = head[bank];
    head[bank] = static_cast<std::int8_t>(lane);
    passes = std::max(passes, static_cast<int>(++distinct[bank]));
  }
  return passes;
}

int shared_atomic_passes(std::uint32_t mask,
                         const std::array<std::uint32_t, 32>& addr,
                         const SharedBanks& banks) {
  // Per bank, count ALL active lanes (duplicated addresses serialise too).
  std::array<std::uint8_t, 64> lanes{};
  int passes = 1;
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    const std::uint32_t word =
        addr[static_cast<std::size_t>(__builtin_ctz(m))] >> banks.word_shift;
    const int in_bank = ++lanes[word & banks.bank_mask];
    passes = std::max(passes, in_bank);
  }
  return passes;
}

int shared_access_passes(const WarpInstr& instr, const ArchSpec& arch) {
  BF_CHECK_MSG(instr.op == Op::kLdShared || instr.op == Op::kStShared,
               "shared_access_passes on non-shared instruction");
  return shared_access_passes(instr.mask, instr.addr, SharedBanks(arch));
}

int shared_atomic_passes(const WarpInstr& instr, const ArchSpec& arch) {
  BF_CHECK_MSG(instr.op == Op::kAtomicShared,
               "shared_atomic_passes on non-atomic instruction");
  return shared_atomic_passes(instr.mask, instr.addr, SharedBanks(arch));
}

}  // namespace bf::gpusim
