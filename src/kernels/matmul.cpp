#include "kernels/matmul.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "common/error.hpp"
#include "kernels/kernel_base.hpp"

namespace bf::kernels {

using gpusim::LaunchGeometry;
using gpusim::Op;
using gpusim::SharedAccess;
using gpusim::TraceSink;

MatMulKernel::MatMulKernel(int n, int tile) : n_(n), tile_(tile) {
  BF_CHECK_MSG(tile >= 8 && tile <= 32, "tile must be in [8,32]");
  BF_CHECK_MSG(n >= tile && n % tile == 0,
               "n (" << n << ") must be a positive multiple of tile ("
                     << tile << ")");
  AddressSpace mem;
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * n * 4;
  a_base_ = mem.alloc(bytes);
  b_base_ = mem.alloc(bytes);
  c_base_ = mem.alloc(bytes);
}

LaunchGeometry MatMulKernel::geometry() const {
  LaunchGeometry g;
  const int blocks_per_dim = n_ / tile_;
  g.grid_x = blocks_per_dim;
  g.grid_y = blocks_per_dim;
  g.block_x = tile_;
  g.block_y = tile_;
  g.shared_mem_per_block = 2 * tile_ * tile_ * 4;  // As + Bs
  g.registers_per_thread = 22;
  return g;
}

void MatMulKernel::emit_warp(int block, int warp, TraceSink& sink) const {
  const int blocks_per_dim = n_ / tile_;
  const int bx = block % blocks_per_dim;
  const int by = block / blocks_per_dim;
  const int threads = tile_ * tile_;
  const int lanes = std::clamp(threads - warp * 32, 0, 32);
  if (lanes <= 0) return;
  const std::uint32_t scope = gpusim::mask_first_lanes(lanes);

  // Flat thread id -> (tx, ty) within the tile.
  const auto tx = [&](int lane) { return (warp * 32 + lane) % tile_; };
  const auto ty = [&](int lane) { return (warp * 32 + lane) / tile_; };

  // Shared layout: As at word offset 0, Bs right after. Every tile
  // iteration makes the same shared accesses, so each is resolved to its
  // bank passes once per warp and replayed.
  const std::uint32_t bs_off = static_cast<std::uint32_t>(tile_ * tile_) * 4;
  const SharedAccess as_store = sink.resolve(scope, lane_addrs([&](int lane) {
    return 4u * static_cast<std::uint32_t>(ty(lane) * tile_ + tx(lane));
  }));
  const SharedAccess bs_store = sink.resolve(scope, lane_addrs([&](int lane) {
    return bs_off +
           4u * static_cast<std::uint32_t>(ty(lane) * tile_ + tx(lane));
  }));
  std::vector<SharedAccess> as_row;  // As[ty][k]
  std::vector<SharedAccess> bs_col;  // Bs[k][tx]
  as_row.reserve(static_cast<std::size_t>(tile_));
  bs_col.reserve(static_cast<std::size_t>(tile_));
  for (int k = 0; k < tile_; ++k) {
    as_row.push_back(sink.resolve(scope, lane_addrs([&](int lane) {
      return 4u * static_cast<std::uint32_t>(ty(lane) * tile_ + k);
    })));
    bs_col.push_back(sink.resolve(scope, lane_addrs([&](int lane) {
      return bs_off + 4u * static_cast<std::uint32_t>(k * tile_ + tx(lane));
    })));
  }

  // The global addresses of tile t = 0. Each iteration moves A's right by
  // `tile` columns and B's down by `tile` rows, advancing in the same
  // 32-bit arithmetic the addresses are formed in.
  auto a_addr = lane_addrs([&](int lane) {
    const std::int64_t row = static_cast<std::int64_t>(by) * tile_ + ty(lane);
    return a_base_ + 4u * static_cast<std::uint32_t>(row * n_ + tx(lane));
  });
  auto b_addr = lane_addrs([&](int lane) {
    const std::int64_t col = static_cast<std::int64_t>(bx) * tile_ + tx(lane);
    return b_base_ +
           4u * static_cast<std::uint32_t>(
                    static_cast<std::int64_t>(ty(lane)) * n_ + col);
  });
  const std::uint32_t a_step = 4u * static_cast<std::uint32_t>(tile_);
  const std::uint32_t b_step = a_step * static_cast<std::uint32_t>(n_);

  sink.alu(scope, 4, Op::kIAlu);  // aBegin/aEnd/bBegin/Csub setup

  const int num_tiles = n_ / tile_;
  for (int t = 0; t < num_tiles; ++t) {
    // As[ty][tx] = A[(by*tile + ty) * n + t*tile + tx];
    sink.global_load(scope, a_addr);
    sink.shared_store(as_store);
    // Bs[ty][tx] = B[(t*tile + ty) * n + bx*tile + tx];
    sink.global_load(scope, b_addr);
    sink.shared_store(bs_store);
    sink.sync();

    // for (k = 0; k < tile; ++k) Csub += As[ty][k] * Bs[k][tx];
    for (int k = 0; k < tile_; ++k) {
      sink.shared_load(as_row[static_cast<std::size_t>(k)]);
      sink.shared_load(bs_col[static_cast<std::size_t>(k)]);
      sink.alu(scope, 1, Op::kFAlu);  // fused multiply-add
    }
    sink.alu(scope, 1, Op::kIAlu);  // advance tile pointers
    sink.sync();

    for (std::size_t lane = 0; lane < 32; ++lane) {
      a_addr[lane] += a_step;
      b_addr[lane] += b_step;
    }
  }

  // C[(by*tile + ty) * n + bx*tile + tx] = Csub;
  sink.global_store(scope, lane_addrs([&](int lane) {
    const std::int64_t row = static_cast<std::int64_t>(by) * tile_ + ty(lane);
    const std::int64_t col = static_cast<std::int64_t>(bx) * tile_ + tx(lane);
    return c_base_ + 4u * static_cast<std::uint32_t>(row * n_ + col);
  }));
}

std::vector<double> matmul_reference(const std::vector<double>& a,
                                     const std::vector<double>& b, int n) {
  BF_CHECK_MSG(a.size() == static_cast<std::size_t>(n) * n &&
                   b.size() == a.size(),
               "matmul_reference: size mismatch");
  std::vector<double> c(a.size(), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < n; ++k) {
      const double av = a[static_cast<std::size_t>(i) * n + k];
      if (av == 0.0) continue;
      for (int j = 0; j < n; ++j) {
        c[static_cast<std::size_t>(i) * n + j] +=
            av * b[static_cast<std::size_t>(k) * n + j];
      }
    }
  }
  return c;
}

gpusim::AggregateResult simulate_matmul(const gpusim::Device& device, int n,
                                        int tile,
                                        const gpusim::RunOptions& opts) {
  gpusim::AggregateResult agg;
  const MatMulKernel kernel(n, tile);
  agg.add(device.run(kernel, opts));
  return agg;
}

}  // namespace bf::kernels
