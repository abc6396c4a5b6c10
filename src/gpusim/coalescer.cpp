#include "gpusim/coalescer.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bf::gpusim {

int append_segments(std::uint32_t mask,
                    const std::array<std::uint32_t, 32>& addr,
                    int access_bytes, int segment_bytes,
                    std::vector<std::uint64_t>& out) {
  BF_CHECK_MSG(segment_bytes > 0 && (segment_bytes & (segment_bytes - 1)) == 0,
               "segment size must be a power of two");
  const std::uint64_t seg_mask = ~static_cast<std::uint64_t>(segment_bytes - 1);

  // A lane access of `access_bytes` may straddle a segment boundary; cover
  // both ends. Neighbouring lanes mostly share a segment, so skip repeats
  // of the last one appended, then sort-unique the rest (warp width is 32,
  // so this beats a hash set).
  const std::size_t start = out.size();
  const auto push = [&](std::uint64_t seg) {
    if (out.size() == start || out.back() != seg) out.push_back(seg);
  };
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    const std::uint64_t first =
        addr[static_cast<std::size_t>(__builtin_ctz(m))];
    const std::uint64_t last =
        first + static_cast<std::uint64_t>(access_bytes) - 1;
    push(first & seg_mask);
    push(last & seg_mask);
  }
  const auto begin = out.begin() + static_cast<std::ptrdiff_t>(start);
  if (!std::is_sorted(begin, out.end())) std::sort(begin, out.end());
  out.erase(std::unique(begin, out.end()), out.end());
  return static_cast<int>(out.size() - start);
}

std::vector<std::uint64_t> coalesce(const WarpInstr& instr,
                                    int segment_bytes) {
  BF_CHECK_MSG(is_memory_op(instr.op), "coalesce on non-memory instruction");
  std::vector<std::uint64_t> segs;
  segs.reserve(32);
  append_segments(instr.mask, instr.addr, instr.access_bytes, segment_bytes,
                  segs);
  return segs;
}

int coalesced_transaction_count(const WarpInstr& instr, int segment_bytes) {
  return static_cast<int>(coalesce(instr, segment_bytes).size());
}

}  // namespace bf::gpusim
