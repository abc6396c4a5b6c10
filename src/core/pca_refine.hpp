// Stage 4 (refinement with PCA): run PCA + varimax over the counter data
// and interpret the retained components as performance facets.
//
// The paper reads the factor loadings as facets of GPU behaviour — for
// reduce1: "PC1 is related to memory intensity of reduce1, PC2 to MIMD and
// ILP parallelism, PC3 to SIMD efficiency, and PC4 to memory subsystem
// throughput" (§5.2). We reproduce that interpretation mechanically: each
// counter belongs to a facet category, and a component is labelled by the
// category carrying the largest share of its absolute loading mass.
#pragma once

#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/pca.hpp"

namespace bf::core {

/// Performance facets used for component interpretation.
enum class Facet {
  kMemoryIntensity,      ///< request/transaction counts
  kParallelism,          ///< MIMD/ILP: ipc, issue slots, replays, occupancy
  kSimdEfficiency,       ///< warp efficiency, divergence
  kMemoryThroughput,     ///< achieved throughputs
  kProblem,              ///< problem/machine characteristics
  kOther,
};

const char* facet_name(Facet facet);

/// Facet of a single counter name.
Facet counter_facet(const std::string& counter);

struct InterpretedComponent {
  int index = 0;                 ///< 0-based component number (PC1 = 0)
  double variance_share = 0.0;   ///< fraction of total variance
  Facet facet = Facet::kOther;   ///< dominant facet
  /// Strong varimax loadings, sorted by magnitude.
  std::vector<std::pair<std::string, double>> loadings;
  std::string label;             ///< e.g. "PC2: MIMD/ILP parallelism"
};

struct PcaRefinement {
  ml::Pca pca;
  std::vector<InterpretedComponent> components;
  double variance_covered = 0.0;  ///< cumulative share of retained PCs
};

struct PcaRefineOptions {
  double variance_target = 0.97;
  std::size_t max_components = 6;
  /// Columns to leave out of the PCA (the response is always excluded).
  std::vector<std::string> exclude;
};

/// Run the refinement over every counter column of `ds`.
PcaRefinement pca_refine(const ml::Dataset& ds,
                         const PcaRefineOptions& options = {});

}  // namespace bf::core
