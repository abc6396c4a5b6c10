#include "power/predictor.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "common/io.hpp"

namespace bf::power {

guard::Grade worse_grade(guard::Grade a, guard::Grade b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

PowerPredictor PowerPredictor::build(const ml::Dataset& sweep,
                                     const PowerPredictorOptions& options) {
  BF_CHECK_MSG(sweep.has_column(profiling::kPowerColumn),
               "sweep lacks the power label column '"
                   << profiling::kPowerColumn
                   << "' (collect with a power-aware profiler)");
  core::ProblemScalingOptions scaling = options.scaling;
  // The two invariants of the power path, restated in case a caller
  // rebuilt the options struct from scratch.
  scaling.model.response = profiling::kPowerColumn;
  if (scaling.model.exclude.empty()) {
    scaling.model.exclude = {profiling::kTimeColumn};
  }
  PowerPredictor p;
  p.psp_ = core::ProblemScalingPredictor::build(sweep, scaling);
  return p;
}

PowerPrediction PowerPredictor::predict_guarded(double size) const {
  PowerPrediction out;
  out.size = size;
  out.record = psp_.predict_guarded(size);
  out.power_w = out.record.value;
  out.energy_grade = out.record.grade;
  return out;
}

PowerPrediction PowerPredictor::predict_guarded(
    double size, const guard::PredictionGuardRecord& time_rec) const {
  PowerPrediction out = predict_guarded(size);
  if (std::isfinite(time_rec.value) && time_rec.value > 0.0) {
    out.energy_j = out.power_w * time_rec.value * 1e-3;
    out.energy_grade = worse_grade(out.record.grade, time_rec.grade);
  }
  return out;
}

void PowerPredictor::save(std::ostream& os) const {
  os << "bf_power 1\n";
  psp_.save(os);
}

PowerPredictor PowerPredictor::load(std::istream& is) {
  read_format_version(is, "bf_power", 1);
  PowerPredictor p;
  p.psp_ = core::ProblemScalingPredictor::load(is);
  BF_CHECK_MSG(p.psp_.response() == profiling::kPowerColumn,
               "bf_power: wrapped predictor models '"
                   << p.psp_.response() << "', not the power response");
  return p;
}

void annotate_series(core::PredictionSeries& series,
                     const PowerPredictor& predictor) {
  series.power_w.clear();
  series.energy_j.clear();
  series.power_guard.clear();
  series.power_w.reserve(series.sizes.size());
  series.energy_j.reserve(series.sizes.size());
  series.power_guard.reserve(series.sizes.size());
  for (std::size_t i = 0; i < series.sizes.size(); ++i) {
    PowerPrediction pred = predictor.predict_guarded(series.sizes[i]);
    const double time_ms =
        i < series.predicted_ms.size() ? series.predicted_ms[i] : 0.0;
    series.power_w.push_back(pred.power_w);
    series.energy_j.push_back(time_ms > 0.0 ? pred.power_w * time_ms * 1e-3
                                            : 0.0);
    series.power_guard.push_back(std::move(pred.record));
  }
}

}  // namespace bf::power
