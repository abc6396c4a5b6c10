// Problem-scaling and hardware-scaling predictors (paper §6).
//
// Problem scaling: retain the forest's top-k variables, validate that the
// reduced forest keeps the full forest's predictive power, model the
// retained counters in terms of the problem size (GLM/MARS), and predict
// execution times for unseen sizes by feeding modelled counter values into
// the reduced forest.
//
// Hardware scaling: inject the Table 2 machine characteristics into the
// training data of the source GPU, add a calibration subset from the
// target GPU, and predict the target's test rows. When the importance
// rankings of the two architectures diverge (the paper's NW case), the
// predictor falls back to the paper's workaround: train on the union of
// the top variables of *both* architectures, restricted to counters that
// exist on both.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/counter_models.hpp"
#include "core/model.hpp"
#include "gpusim/arch.hpp"
#include "guard/guard.hpp"
#include "guard/physical.hpp"
#include "ml/dataset.hpp"

namespace bf::core {

struct PredictionSeries {
  std::vector<double> sizes;
  std::vector<double> measured_ms;
  std::vector<double> predicted_ms;
  double mse = 0.0;
  double explained_variance = 0.0;  ///< 1 - mse / var(measured)
  double median_abs_pct_error = 0.0;
  /// Model-health self-description of the predictions.
  bf::guard::GuardReport guard;
  /// Second-response rows filled by bf::power when power analysis is on:
  /// predicted average board power and derived energy per size (empty
  /// otherwise, so the time-only rendering is unchanged).
  std::vector<double> power_w;
  std::vector<double> energy_j;
  /// Per-size power guard records (grades, TDP clamps); parallel to
  /// power_w when present.
  std::vector<bf::guard::PredictionGuardRecord> power_guard;
};

// ---- Problem scaling ----

struct ProblemScalingOptions {
  ModelOptions model;
  CounterModelOptions counter_models;
  /// Training-hull margin; the other guard thresholds are the constants
  /// in guard/guard.hpp.
  bf::guard::GuardOptions guard;
  /// Architecture whose physical limits cap predicted counters; without
  /// it only architecture-independent caps (ratio metrics <= 1) apply.
  std::optional<gpusim::ArchSpec> arch;

  ProblemScalingOptions() {
    // Problem-scaling sweeps are small (tens of rows) with responses
    // spanning decades; finer leaves let the forest resolve individual
    // problem sizes instead of averaging across them.
    model.forest.min_node_size = 2;
  }
};

class ProblemScalingPredictor {
 public:
  /// Build from a single-architecture sweep dataset.
  static ProblemScalingPredictor build(const ml::Dataset& sweep,
                                       const ProblemScalingOptions& options =
                                           {});

  /// Response column this predictor models ("time_ms" by default).
  const std::string& response() const { return response_; }

  /// Predict the response for one unseen problem size: generate the
  /// retained counters (demoting down each fallback chain when a model
  /// leaves its sanity envelope), check the training hull, apply the
  /// physical caps, then query the reduced forest for the value, its
  /// per-tree interval and a confidence grade. A predictor built with
  /// another response column (e.g. profiling::kPowerColumn) returns that
  /// response. Throws bf::Error unless `size` is finite and positive.
  bf::guard::PredictionGuardRecord predict_guarded(double size) const;

  /// Predict a series and score it against measured times; the series
  /// carries a filled GuardReport.
  PredictionSeries validate(const std::vector<double>& sizes,
                            const std::vector<double>& measured_ms) const;

  /// The full-variable model (for comparison) and the reduced model.
  const BlackForestModel& full_model() const { return full_; }
  const BlackForestModel& reduced_model() const { return reduced_; }
  const CounterModels& counter_models() const { return counters_; }
  const std::vector<std::string>& retained() const { return retained_; }
  /// Training hull of the problem size (piece 1 of the guard layer).
  const bf::guard::DomainGuard& hull() const { return hull_; }
  /// Fit-time guard skeleton (hull + per-counter chain records).
  bf::guard::GuardReport guard_report() const;

  /// Serialise the complete prediction state (reduced model, counter
  /// chains, hull, sanity envelopes, architecture) — the payload of a
  /// .bfmodel bundle. The full-variable comparison model is fit-time-only
  /// and is NOT stored: a loaded predictor predicts bit-identically but
  /// full_model() is empty.
  void save(std::ostream& os) const;
  static ProblemScalingPredictor load(std::istream& is);

 private:
  /// Where predict_guarded finds everything in its query row, which
  /// holds the reduced forest's predictors in their order. Resolved once
  /// by build() and load() and never changed after, so concurrent
  /// queries share it read-only.
  struct QueryPlan {
    std::size_t size_slot = 0;
    std::vector<std::size_t> entry_slots;  ///< per counter-chain entry
    std::vector<std::size_t> hull_slots;   ///< per hull range
    /// Static caps (ratio and architecture) on counters the row holds,
    /// in cap order; their reason text is built here, once.
    struct StaticCap {
      std::size_t slot = 0;
      bf::guard::PhysicalCap cap;
    };
    std::vector<StaticCap> static_caps;
    /// Time caps on counters the row holds, in cap order; they apply
    /// when the response is time and the architecture is known.
    struct TimeCap {
      std::size_t slot = 0;
      bf::guard::TimeLaw law = bf::guard::TimeLaw::kBusTransactions;
    };
    std::vector<TimeCap> time_caps;
  };
  /// Resolve plan_ against the reduced forest's predictors; throws when
  /// they are not exactly "size" plus the counter-chain entries.
  void resolve_plan();

  BlackForestModel full_;
  BlackForestModel reduced_;
  CounterModels counters_;
  std::vector<std::string> retained_;
  std::string response_ = "time_ms";  ///< profiling::kTimeColumn
  bf::guard::DomainGuard hull_;
  std::optional<gpusim::ArchSpec> arch_;
  // Sanity envelope per counter entry (aligned with counters_ entries):
  // max training value, value at the largest training size, and whether
  // the counter registry marks it non-decreasing in problem size.
  std::vector<double> train_max_;
  std::vector<double> train_at_max_size_;
  std::vector<bool> monotone_;
  double max_train_size_ = 0.0;
  QueryPlan plan_;
};

// ---- Hardware scaling ----

struct HardwareScalingOptions {
  /// Spearman-style rank-overlap threshold below which the mixed-variable
  /// workaround is applied automatically.
  double similarity_threshold = 0.5;
  ModelOptions model;
  std::uint64_t seed = 99;

  HardwareScalingOptions() {
    model.forest.min_node_size = 2;  // see ProblemScalingOptions
  }
};

struct HardwareScalingResult {
  PredictionSeries series;     ///< predictions on the target test split
  double similarity = 0.0;     ///< importance-ranking overlap in [0,1]
  bool used_mixed_variables = false;
  std::vector<std::string> variables;  ///< predictor set actually used
  /// Top variables on source and target (for Fig. 8a/8b style reports).
  std::vector<std::string> source_top;
  std::vector<std::string> target_top;
};

class HardwareScalingPredictor {
 public:
  /// `source` and `target` are sweeps of the same workload over the same
  /// sizes on two GPUs, collected with machine characteristics injected.
  static HardwareScalingResult predict(const ml::Dataset& source,
                                       const ml::Dataset& target,
                                       const HardwareScalingOptions& options =
                                           {});

  /// Overlap of the top-k importance rankings of two fitted models,
  /// in [0,1] (the paper's "sufficiently similar hardware" test).
  static double importance_similarity(const BlackForestModel& a,
                                      const BlackForestModel& b,
                                      std::size_t k);
};

}  // namespace bf::core
