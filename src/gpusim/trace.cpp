#include "gpusim/trace.hpp"

#include <limits>

#include "gpusim/coalescer.hpp"
#include "gpusim/sharedmem.hpp"

namespace bf::gpusim {
namespace {

void check_memory_mask(std::uint32_t mask) {
  BF_CHECK_MSG(mask != 0, "memory op with empty mask");
}

}  // namespace

SharedAccess TraceSink::resolve(std::uint32_t mask,
                                const std::array<std::uint32_t, 32>& addr,
                                std::uint8_t access_bytes) const {
  check_memory_mask(mask);
  return SharedAccess(mask, access_bytes,
                      static_cast<std::uint8_t>(
                          shared_access_passes(mask, addr, banks_)));
}

void TraceSink::shared_atomic(std::uint32_t mask,
                              const std::array<std::uint32_t, 32>& addr,
                              std::uint8_t access_bytes) {
  check_memory_mask(mask);
  push(Op::kAtomicShared, mask, access_bytes,
       static_cast<std::uint8_t>(shared_atomic_passes(mask, addr, banks_)));
}

void TraceSink::push_global(Op op, std::uint32_t mask,
                            const std::array<std::uint32_t, 32>& addr,
                            std::uint8_t access_bytes, int segment_bytes) {
  check_memory_mask(mask);
  BF_CHECK(segments_.size() <= std::numeric_limits<std::uint32_t>::max());
  const auto seg_begin = static_cast<std::uint32_t>(segments_.size());
  const int count =
      append_segments(mask, addr, access_bytes, segment_bytes, segments_);
  push(op, mask, access_bytes, static_cast<std::uint8_t>(count)).seg_begin =
      seg_begin;
}

}  // namespace bf::gpusim
