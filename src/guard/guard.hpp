// bf::guard — model-health supervision for the prediction stack.
//
// The modelling stack (random forest + GLM/MARS counter extrapolation,
// paper §5–§6) is a black box that happily answers queries far outside
// the domain it was trained on: MARS hinge models explode past the last
// knot, per-counter GLMs emit physically impossible values, and the
// forest saturates silently. Stevens & Klöckner make the point that
// black-box GPU models must know and report the domain they are valid
// in; this layer makes every prediction fail safe and self-describing:
//
//   1. DomainGuard records the training hull per feature (min/max plus a
//      configurable extrapolation margin); queries outside the hull are
//      flagged with per-feature extrapolation distances.
//   2. Counter models carry a fallback chain (MARS -> GLM -> log-log
//      linear -> power-law), demoted at predict time when the chosen
//      model violates sanity bounds (core/counter_models + predictor).
//   3. Forest per-tree spread (ml::FlatForest::predict_interval) is
//      graded: wide intervals downgrade confidence.
//   4. Everything lands in a GuardReport — per-counter chosen model, CV
//      error, clamps fired, extrapolation flags, and an A/B/C confidence
//      grade per prediction — attached to core::PredictionSeries and
//      core::AnalysisOutcome and rendered by report/guard_render.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace bf::guard {

/// Confidence grade of a prediction (or of a whole report: the worst).
///  A: in-hull, tight interval, no repairs — trust it.
///  B: usable but degraded — mild extrapolation, a demoted counter
///     model, a repaired feature, or a wide per-tree interval.
///  C: out of the validated domain — far extrapolation, physical-cap
///     clamps, or per-tree spread wider than the prediction itself.
enum class Grade { kA, kB, kC };

char grade_letter(Grade g);
Grade worse(Grade a, Grade b);

struct GuardOptions {
  /// Hull slack as a fraction of the per-feature training span; queries
  /// within [lo - margin*span, hi + margin*span] are not flagged.
  double margin = 0.1;
  /// Extrapolation distance (in span units beyond the margined hull)
  /// up to which a flagged query still grades B; beyond it grades C.
  double far = 0.5;
  /// Relative per-tree interval width ((hi-lo)/|mean|) thresholds:
  /// above interval_b the grade drops to B, above interval_c to C.
  /// Calibrated on the paper-sized sweeps (tens of log-spaced rows),
  /// where tree predictions hop between adjacent training sizes and an
  /// 80% band of ~1-2x the mean is the healthy in-hull regime.
  double interval_b = 1.0;
  double interval_c = 2.5;
  /// Slack factor of the sanity envelope around the power-law
  /// extrapolation / training maximum; a chain model predicting outside
  /// it is demoted.
  double demote_slack = 32.0;
  /// A monotone (non-decreasing) counter queried beyond the training
  /// maximum must predict at least this fraction of its value at the
  /// largest training size, or the model is demoted.
  double monotone_floor = 0.25;
  /// Physical-cap violations within this relative tolerance are ignored
  /// (well-fitted models sit within a few percent of hard caps).
  double cap_tolerance = 0.02;
  /// Folds for the per-counter chain cross-validation ranking.
  std::size_t cv_folds = 5;
};

/// Observed training range of one feature.
struct FeatureRange {
  std::string name;
  double lo = 0.0;
  double hi = 0.0;
  double span() const { return hi - lo; }
};

/// One feature of a query falling outside the (margined) training hull.
struct ExtrapolationFlag {
  std::string feature;
  double value = 0.0;
  /// Distance beyond the margined hull, in units of the feature's
  /// training span (0 span => distance counted in absolute units).
  double distance = 0.0;
};

/// Per-feature training hull with an extrapolation margin (piece 1 of
/// the guard layer). Built once at fit time, queried per prediction.
class DomainGuard {
 public:
  DomainGuard() = default;

  /// Record min/max of every named feature column of `ds`.
  static DomainGuard build(const ml::Dataset& ds,
                           const std::vector<std::string>& features,
                           double margin);

  bool empty() const { return ranges_.empty(); }
  const std::vector<FeatureRange>& ranges() const { return ranges_; }
  double margin() const { return margin_; }
  /// Range of one feature; nullptr when the feature is not tracked.
  const FeatureRange* range(const std::string& name) const;

  /// Check a single feature value; empty vector when in hull.
  std::vector<ExtrapolationFlag> check_value(const std::string& feature,
                                             double value) const;
  /// Check every tracked feature present in `ds` at `row`.
  std::vector<ExtrapolationFlag> check_row(const ml::Dataset& ds,
                                           std::size_t row) const;

  /// Serialise the hull (ranges + margin) for .bfmodel bundles.
  void save(std::ostream& os) const;
  static DomainGuard load(std::istream& is);

 private:
  std::vector<FeatureRange> ranges_;
  double margin_ = 0.1;
};

/// Fit-time record for one guarded counter model.
struct CounterGuardRecord {
  std::string counter;
  std::string chosen;  ///< primary model ("glm", "mars", ...)
  double r2 = 0.0;
  /// K-fold CV RMSE of the primary model (0 when the chain was not fit).
  double cv_rmse = 0.0;
  /// Demotion order, primary first.
  std::vector<std::string> chain;
  /// Predict-time events accumulated across queries.
  int demotions = 0;
  int clamps = 0;
};

/// Per-prediction guard verdict.
struct PredictionGuardRecord {
  double size = 0.0;
  double value = 0.0;      ///< final (guarded) prediction
  double raw_value = 0.0;  ///< before physical-cap clamps
  double lo = 0.0;         ///< per-tree quantile interval
  double hi = 0.0;
  double interval_width = 0.0;  ///< (hi - lo) / |value|
  Grade grade = Grade::kA;
  bool extrapolated = false;
  std::vector<ExtrapolationFlag> flags;
  std::vector<std::string> demotions;  ///< "counter: mars -> glm (reason)"
  std::vector<std::string> clamps;     ///< "counter: 1.2e9 -> 3e8 (reason)"
  std::vector<std::string> notes;      ///< e.g. repaired NaN features
};

/// The self-description attached to PredictionSeries / AnalysisOutcome.
struct GuardReport {
  bool enabled = false;
  GuardOptions options;
  std::vector<FeatureRange> hull;
  std::vector<CounterGuardRecord> counters;
  std::vector<PredictionGuardRecord> predictions;

  Grade worst() const;
  std::size_t count(Grade g) const;
  /// True when any prediction was flagged, demoted, clamped or graded
  /// below A — i.e. the report carries something worth surfacing.
  bool degraded() const;
  /// Human-readable warning lines (for report::warn_list).
  std::vector<std::string> to_lines() const;
  /// One-line summary, e.g. "guard: 5 predictions (3 A, 1 B, 1 C)".
  std::string summary() const;
};

/// Grade one prediction record from its accumulated evidence.
Grade grade_prediction(const PredictionGuardRecord& rec,
                       const GuardOptions& options);

/// Serialise/restore the guard thresholds so a reloaded .bfmodel bundle
/// grades predictions exactly as the exporting predictor did.
void save_options(std::ostream& os, const GuardOptions& options);
GuardOptions load_options(std::istream& is);

}  // namespace bf::guard
