// bf::power — energy/power prediction as a second response variable
// (paper §7: "our method is not limited to predicting execution time -
// one could use other metrics of interest, such as power, as response
// variable"; Braun et al. 2020 show counter-based power prediction works
// with exactly this feature set).
//
// PowerPredictor reuses the whole problem-scaling stack — RF over the
// retained counters, GLM/MARS/log-lin/power-law fallback chains per
// counter, hull checks and A/B/C grading — with profiling::kPowerColumn
// as the response and "time_ms" excluded from the predictors, so the
// power model never leans on the very quantity the time model predicts.
// Energy is derived, not modelled: energy_j = power_w x predicted time,
// graded no better than the worse of its two factors.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "guard/guard.hpp"
#include "ml/dataset.hpp"
#include "profiling/sweep.hpp"

namespace bf::power {

struct PowerPredictorOptions {
  /// The underlying problem-scaling configuration. The constructor
  /// pins the response to the power label and excludes the time column;
  /// callers may tune forests/guards but should leave those two alone.
  core::ProblemScalingOptions scaling;

  PowerPredictorOptions() {
    scaling.model.response = profiling::kPowerColumn;
    scaling.model.exclude = {profiling::kTimeColumn};
  }
};

/// One guarded power/energy prediction.
struct PowerPrediction {
  double size = 0.0;
  double power_w = 0.0;   ///< guarded average board power (W)
  double energy_j = 0.0;  ///< power_w x predicted time; 0 without a time
  /// The power-side guard record (TDP/idle clamps, hull flags, grade).
  bf::guard::PredictionGuardRecord record;
  /// Grade of the derived energy figure: the worse of the power grade
  /// and the time prediction's grade (kA when no time was supplied).
  bf::guard::Grade energy_grade = bf::guard::Grade::kA;
};

/// Worse of two confidence grades (C beats B beats A).
bf::guard::Grade worse_grade(bf::guard::Grade a, bf::guard::Grade b);

class PowerPredictor {
 public:
  /// Build from a sweep dataset carrying the power label column.
  static PowerPredictor build(const ml::Dataset& sweep,
                              const PowerPredictorOptions& options = {});

  /// Guarded power prediction: counter-chain demotion, hull check,
  /// board-envelope clamp ([idle_w, tdp_w]) and A/B/C grade.
  PowerPrediction predict_guarded(double size) const;

  /// Guarded power + energy: combines with the time predictor's guarded
  /// record so energy_j = power_w x time and the energy grade is the
  /// worse of the two sides.
  PowerPrediction predict_guarded(
      double size, const bf::guard::PredictionGuardRecord& time_rec) const;

  /// The underlying problem-scaling predictor (response = power).
  const core::ProblemScalingPredictor& scaling() const { return psp_; }

  /// Serialise as a "bf_power" record (wraps the psp payload). Loaded
  /// predictors predict bit-identically.
  void save(std::ostream& os) const;
  static PowerPredictor load(std::istream& is);

 private:
  core::ProblemScalingPredictor psp_;
};

/// Fill the power rows of a prediction series from guarded per-size
/// power queries; energy derives from the series' predicted times.
void annotate_series(core::PredictionSeries& series,
                     const PowerPredictor& predictor);

}  // namespace bf::power
