// One-call front end over the five-stage methodology (Fig. 1 of the
// paper): data collection -> random forest construction & validation ->
// variable importance analysis -> PCA refinement -> interpretation
// (bottleneck report / predictors).
//
// Collection is the flaky stage on real machines, so the pipeline
// degrades gracefully instead of aborting: sweeps retry and tolerate
// partial results (profiling::SweepOptions policy), corrupt repository
// entries are quarantined and recollected, and missing counter cells are
// dropped/imputed under the DegradeOptions coverage thresholds. Every
// degradation is recorded in the AnalysisOutcome.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/bottleneck.hpp"
#include "core/model.hpp"
#include "core/pca_refine.hpp"
#include "gpusim/arch.hpp"
#include "ml/dataset.hpp"
#include "profiling/profiler.hpp"
#include "profiling/sweep.hpp"

namespace bf::core {

/// How far the statistical stages may degrade a faulty collection before
/// the pipeline gives up (see ml::Dataset::resolve_missing).
struct DegradeOptions {
  /// Counter columns observed in fewer than this fraction of rows are
  /// dropped from the model instead of imputed.
  double min_column_coverage = 0.5;
  /// Rows with fewer than this fraction of surviving counters are
  /// dropped instead of imputed.
  double min_row_coverage = 0.5;
};

struct PipelineConfig {
  profiling::Workload workload;
  gpusim::ArchSpec arch;
  std::vector<double> sizes;
  profiling::SweepOptions sweep;
  DegradeOptions degrade;
  ModelOptions model;
  PcaRefineOptions pca;
  BottleneckOptions bottleneck;
  /// Optional repository root: when set, sweeps are cached on disk.
  std::optional<std::string> repository_root;
};

struct AnalysisOutcome {
  /// The modelled dataset (after missing-value resolution). The raw
  /// degraded sweep — NaN cells included — is what the repository caches.
  ml::Dataset data;
  BlackForestModel model;
  PcaRefinement pca;
  BottleneckReport report;
  /// Collection diary; default-empty when the sweep came from the
  /// repository cache instead of a fresh collection.
  profiling::SweepReport sweep_report;
  /// What missing-value resolution dropped/imputed (empty when the
  /// collection was fully observed).
  ml::MissingValueReport missing;
  /// Human-readable degradation warnings accumulated across stages.
  std::vector<std::string> warnings;
};

/// Run collection + modelling + importance + PCA + bottleneck analysis.
AnalysisOutcome run_analysis(const PipelineConfig& config);

}  // namespace bf::core
