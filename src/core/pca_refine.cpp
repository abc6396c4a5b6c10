#include "core/pca_refine.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "profiling/sweep.hpp"

namespace bf::core {
namespace {

/// A rotated loading at least this large ties a counter to its component.
constexpr double kLoadingCutoff = 0.3;

}  // namespace

const char* facet_name(Facet facet) {
  switch (facet) {
    case Facet::kMemoryIntensity: return "memory intensity";
    case Facet::kParallelism: return "MIMD/ILP parallelism";
    case Facet::kSimdEfficiency: return "SIMD efficiency";
    case Facet::kMemoryThroughput: return "memory subsystem throughput";
    case Facet::kProblem: return "problem/machine characteristics";
    case Facet::kOther: return "other";
  }
  return "?";
}

Facet counter_facet(const std::string& counter) {
  static const std::vector<std::pair<std::string, Facet>> exact = {
      {"gld_request", Facet::kMemoryIntensity},
      {"gst_request", Facet::kMemoryIntensity},
      {"l1_global_load_hit", Facet::kMemoryIntensity},
      {"l1_global_load_miss", Facet::kMemoryIntensity},
      {"global_store_transaction", Facet::kMemoryIntensity},
      {"l2_read_transactions", Facet::kMemoryIntensity},
      {"l2_write_transactions", Facet::kMemoryIntensity},
      {"dram_read_transactions", Facet::kMemoryIntensity},
      {"dram_write_transactions", Facet::kMemoryIntensity},
      {"shared_load", Facet::kMemoryIntensity},
      {"shared_store", Facet::kMemoryIntensity},
      {"ipc", Facet::kParallelism},
      {"inst_executed", Facet::kParallelism},
      {"inst_issued", Facet::kParallelism},
      {"issue_slot_utilization", Facet::kParallelism},
      {"achieved_occupancy", Facet::kParallelism},
      {"inst_replay_overhead", Facet::kParallelism},
      {"shared_replay_overhead", Facet::kParallelism},
      {"l1_shared_bank_conflict", Facet::kParallelism},
      {"shared_load_replay", Facet::kParallelism},
      {"shared_store_replay", Facet::kParallelism},
      {"warp_execution_efficiency", Facet::kSimdEfficiency},
      {"branch", Facet::kSimdEfficiency},
      {"divergent_branch", Facet::kSimdEfficiency},
      {"flop_sp_efficiency", Facet::kParallelism},
      {"power_avg_w", Facet::kOther},
      {"size", Facet::kProblem},
      {"wsched", Facet::kProblem},
      {"freq", Facet::kProblem},
      {"smp", Facet::kProblem},
      {"rco", Facet::kProblem},
      {"mbw", Facet::kProblem},
      {"regs", Facet::kProblem},
      {"l2c", Facet::kProblem},
  };
  for (const auto& [name, facet] : exact) {
    if (name == counter) return facet;
  }
  if (counter.find("throughput") != std::string::npos ||
      counter.find("efficiency") != std::string::npos) {
    return Facet::kMemoryThroughput;
  }
  return Facet::kOther;
}

PcaRefinement pca_refine(const ml::Dataset& ds,
                         const PcaRefineOptions& options) {
  // Assemble the variable set: all columns except the response and the
  // exclusions, with constants removed (they break standardisation).
  ml::Dataset vars = ds.drop_columns({profiling::kTimeColumn});
  vars = vars.drop_columns(options.exclude);
  vars.drop_constant_columns();
  BF_CHECK_MSG(vars.num_cols() >= 2, "PCA needs at least 2 varying counters");

  PcaRefinement out;
  ml::PcaParams params;
  params.scale = true;
  params.variance_target = options.variance_target;
  params.max_components = options.max_components;
  out.pca.fit(vars.to_matrix(vars.column_names()), vars.column_names(),
              params);
  out.pca.varimax();

  const auto proportions = out.pca.variance_proportion();
  const auto strong = out.pca.strong_loadings(kLoadingCutoff);
  const std::size_t k = out.pca.num_retained();

  for (std::size_t c = 0; c < k; ++c) {
    InterpretedComponent comp;
    comp.index = static_cast<int>(c);
    comp.variance_share = proportions[c];
    comp.loadings = strong[c];

    // Dominant facet by |loading| mass.
    std::array<double, 6> mass{};
    for (const auto& [name, loading] : comp.loadings) {
      mass[static_cast<std::size_t>(counter_facet(name))] +=
          std::fabs(loading);
    }
    std::size_t best = 5;  // kOther
    for (std::size_t f = 0; f < mass.size(); ++f) {
      if (mass[f] > mass[best]) best = f;
    }
    comp.facet = static_cast<Facet>(best);
    comp.label = "PC" + std::to_string(c + 1) + ": " +
                 facet_name(comp.facet) + " (" +
                 format_double(100.0 * comp.variance_share, 1) + "% var)";
    out.components.push_back(std::move(comp));
    out.variance_covered += proportions[c];
  }
  return out;
}

}  // namespace bf::core
