#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/io.hpp"
#include "gpusim/arch.hpp"
#include "ml/metrics.hpp"
#include "profiling/counter_registry.hpp"
#include "profiling/sweep.hpp"

namespace bf::core {
namespace {

/// Variables kept from an importance ranking (paper: "between 6 and 8").
constexpr std::size_t kTopVariables = 6;
/// Fraction of the target-GPU sweep used for calibration in hardware
/// scaling (the paper calibrates on the target and tests on the rest).
constexpr double kCalibrationFraction = 0.8;

PredictionSeries score_series(std::vector<double> sizes,
                              std::vector<double> measured,
                              std::vector<double> predicted) {
  PredictionSeries s;
  s.sizes = std::move(sizes);
  s.measured_ms = std::move(measured);
  s.predicted_ms = std::move(predicted);
  s.mse = ml::mse(s.measured_ms, s.predicted_ms);
  s.explained_variance = ml::explained_variance(s.measured_ms, s.predicted_ms);
  s.median_abs_pct_error =
      ml::median_abs_pct_error(s.measured_ms, s.predicted_ms);
  return s;
}

std::vector<std::string> common_columns(const ml::Dataset& a,
                                        const ml::Dataset& b) {
  std::vector<std::string> out;
  for (const auto& name : a.column_names()) {
    if (b.has_column(name)) out.push_back(name);
  }
  return out;
}

/// Count predict-time events belonging to one counter ("name: ..." lines).
int count_events(const std::vector<guard::PredictionGuardRecord>& recs,
                 const std::string& counter, bool clamps) {
  int n = 0;
  const std::string prefix = counter + ":";
  for (const auto& rec : recs) {
    for (const auto& line : clamps ? rec.clamps : rec.demotions) {
      if (line.rfind(prefix, 0) == 0) ++n;
    }
  }
  return n;
}

guard::PredictionGuardRecord grade_forest_row(
    const guard::DomainGuard& hull, const std::vector<std::size_t>& slots,
    const double* row, double size, const ml::PredictionInterval& iv) {
  guard::PredictionGuardRecord rec;
  rec.size = size;
  rec.value = iv.mean;
  rec.raw_value = iv.mean;
  rec.lo = iv.lo;
  rec.hi = iv.hi;
  rec.interval_width = std::abs(iv.mean) > 0.0
                           ? (iv.hi - iv.lo) / std::abs(iv.mean)
                           : iv.hi - iv.lo;
  rec.flags = hull.check_row(row, slots);
  rec.extrapolated = !rec.flags.empty();
  rec.grade = guard::grade_prediction(rec);
  return rec;
}

}  // namespace

// ---- Problem scaling ----

ProblemScalingPredictor ProblemScalingPredictor::build(
    const ml::Dataset& sweep, const ProblemScalingOptions& options) {
  ProblemScalingPredictor p;
  p.response_ = options.model.response;
  p.full_ = BlackForestModel::fit(sweep, options.model);

  // Retain the top-k variables; "size" rides along so the counter models
  // and the forest agree on the input space.
  p.retained_ = p.full_.top_variables(kTopVariables);
  if (std::find(p.retained_.begin(), p.retained_.end(),
                profiling::kSizeColumn) == p.retained_.end() &&
      p.full_.train_data().has_column(profiling::kSizeColumn)) {
    p.retained_.push_back(profiling::kSizeColumn);
  }
  p.reduced_ = p.full_.refit_with(p.retained_);

  p.arch_ = options.arch;
  p.counters_ = CounterModels::fit(p.full_.train_data(), p.retained_,
                                   options.counter_models);

  // Guard fit-time state: the training hull over every retained feature
  // and the per-counter sanity envelope the fallback chain is judged by.
  const ml::Dataset& train = p.full_.train_data();
  p.hull_ =
      guard::DomainGuard::build(train, p.retained_, options.guard.margin);
  const auto& size_col = train.column(profiling::kSizeColumn);
  std::size_t argmax = 0;
  for (std::size_t i = 0; i < size_col.size(); ++i) {
    if (size_col[i] > size_col[argmax]) argmax = i;
  }
  p.max_train_size_ = size_col.empty() ? 0.0 : size_col[argmax];
  p.train_max_.reserve(p.counters_.num_entries());
  for (std::size_t e = 0; e < p.counters_.num_entries(); ++e) {
    const auto& col = train.column(p.counters_.entry_counter(e));
    p.train_max_.push_back(*std::max_element(col.begin(), col.end()));
    p.train_at_max_size_.push_back(col[argmax]);
    p.monotone_.push_back(
        profiling::counter_monotonicity(p.counters_.entry_counter(e)) ==
        profiling::Monotonicity::kNonDecreasing);
  }
  p.resolve_plan();
  return p;
}

void ProblemScalingPredictor::resolve_plan() {
  const std::vector<std::string>& names = reduced_.predictors();
  const auto slot_of = [&names](const std::string& feature) {
    const auto it = std::find(names.begin(), names.end(), feature);
    return it == names.end() ? guard::kNoSlot
                             : static_cast<std::size_t>(it - names.begin());
  };
  // Every slot of the row is filled by exactly one generated feature:
  // the size itself or one counter-chain entry, a model of the size.
  std::vector<bool> filled(names.size(), false);
  const auto claim = [&](const std::string& feature) {
    const std::size_t slot = slot_of(feature);
    BF_CHECK_MSG(slot != guard::kNoSlot && !filled[slot],
                 "bf_psp: reduced forest does not take generated feature '"
                     << feature << "' exactly once");
    filled[slot] = true;
    return slot;
  };
  QueryPlan plan;
  plan.size_slot = claim(profiling::kSizeColumn);
  for (std::size_t e = 0; e < counters_.num_entries(); ++e) {
    plan.entry_slots.push_back(claim(counters_.entry_counter(e)));
  }
  BF_CHECK_MSG(std::find(filled.begin(), filled.end(), false) == filled.end(),
               "bf_psp: a reduced-forest predictor is neither the size nor "
               "a modelled counter");
  plan.hull_slots = hull_.slots(names);
  for (guard::PhysicalCap& cap :
       arch_ ? guard::static_caps(*arch_) : guard::ratio_caps()) {
    const std::size_t slot = slot_of(cap.counter);
    if (slot != guard::kNoSlot) {
      plan.static_caps.push_back({slot, std::move(cap)});
    }
  }
  for (const guard::TimeCappedCounter& tc : guard::kTimeCapped) {
    const std::size_t slot = slot_of(tc.counter);
    if (slot != guard::kNoSlot) plan.time_caps.push_back({slot, tc.law});
  }
  plan_ = std::move(plan);
}

guard::PredictionGuardRecord ProblemScalingPredictor::predict_guarded(
    double size) const {
  BF_CHECK_MSG(std::isfinite(size) && size > 0.0,
               "problem size must be finite and positive, got " << size);
  guard::PredictionGuardRecord rec;
  rec.size = size;
  const std::vector<std::string>& names = reduced_.predictors();

  // The query row, in the reduced forest's predictor order, and the
  // forest scratch live in per-thread buffers that every query overwrites
  // before reading: after a thread's first query the common path (no
  // demotion, no clamp) allocates nothing.
  struct Buffers {
    std::vector<double> row;
    ml::ForestScratch forest;
  };
  thread_local Buffers buffers;
  std::vector<double>& row = buffers.row;
  row.resize(names.size());
  ml::ForestScratch& forest_scratch = buffers.forest;

  // 1. Generate the retained counters, demoting down each fallback chain
  //    when a model's output violates its sanity envelope.
  row[plan_.size_slot] = size;
  for (std::size_t e = 0; e < counters_.num_entries(); ++e) {
    const auto& chain = counters_.entry_chain(e);
    const double pl =
        counters_.predict_kind(e, CounterModelKind::kPowerLaw, size);
    const double envelope = std::max(train_max_[e], pl) * guard::kDemoteSlack;
    const bool beyond_train = size > max_train_size_;
    double value = 0.0;
    bool accepted = false;
    const char* first_failure = nullptr;
    for (const CounterModelKind kind : chain) {
      bool neg = false;
      const double v = counters_.predict_kind(e, kind, size, &neg);
      const char* why = nullptr;
      if (!std::isfinite(v)) {
        why = "non-finite";
      } else if (neg) {
        why = "negative";
      } else if (v > envelope) {
        why = "exceeds sanity envelope";
      } else if (beyond_train && monotone_[e] &&
                 v < train_at_max_size_[e] * guard::kMonotoneFloor) {
        why = "breaks monotone growth";
      }
      if (why != nullptr) {
        if (first_failure == nullptr) first_failure = why;
        continue;
      }
      value = v;
      accepted = true;
      if (kind != chain.front()) {
        rec.demotions.push_back(
            counters_.entry_counter(e) + ": " +
            counter_model_name(chain.front()) + " -> " +
            counter_model_name(kind) + " (" + first_failure + ")");
      }
      break;
    }
    if (!accepted) {
      // Every model failed: fall back to the power law clamped into the
      // envelope — the least-wrong physically meaningful value.
      double v = counters_.predict_kind(e, CounterModelKind::kPowerLaw, size);
      if (!std::isfinite(v)) v = train_at_max_size_[e];
      value = std::clamp(v, 0.0, envelope);
      rec.clamps.push_back(guard::clamp_text(
          counters_.entry_counter(e), v, value,
          std::string("all chain models failed: ") + first_failure));
    }
    row[plan_.entry_slots[e]] = value;
  }

  // 2. Hull check over the query size and the generated counters.
  rec.flags = hull_.check_row(row.data(), plan_.hull_slots);
  rec.extrapolated = !rec.flags.empty();

  // 3. Static physical caps (ratio metrics, bandwidth, issue width).
  for (const auto& [slot, cap] : plan_.static_caps) {
    if (!guard::exceeds_cap(row[slot], cap.max_value, guard::kCapTolerance)) {
      continue;
    }
    rec.clamps.push_back(
        guard::clamp_text(cap.counter, row[slot], cap.max_value, cap.reason));
    row[slot] = cap.max_value;
  }

  // 4. Forest query with per-tree spread, on the frozen flat engine.
  ml::PredictionInterval iv =
      reduced_.predict_interval(row.data(), 0.1, forest_scratch);
  rec.raw_value = iv.mean;

  // 5. Response-dependent caps. For the time response the predicted
  //    time bounds the counters (bandwidth x time, issue rate x time);
  //    when one fires, re-query the forest with the capped counters.
  //    For the power response the prediction itself is bounded by the
  //    board's physical envelope [idle_w, tdp_w].
  const auto time_caps = arch_ && response_ == profiling::kTimeColumn
                             ? guard::time_caps(*arch_, iv.mean)
                             : std::nullopt;
  if (time_caps) {
    bool fired = false;
    for (const auto& [slot, law] : plan_.time_caps) {
      const double bound = time_caps->bound(law);
      if (!guard::exceeds_cap(row[slot], bound, guard::kCapTolerance)) {
        continue;
      }
      rec.clamps.push_back(guard::clamp_text(
          names[slot], row[slot], bound, guard::time_cap_reason(law, bound)));
      row[slot] = bound;
      fired = true;
    }
    if (fired) iv = reduced_.predict_interval(row.data(), 0.1, forest_scratch);
  } else if (arch_ && response_ == profiling::kPowerColumn) {
    const std::size_t before = rec.clamps.size();
    const double capped = guard::clamp_power_to_envelope(
        *arch_, iv.mean, guard::kCapTolerance, rec.clamps);
    if (rec.clamps.size() != before) {
      iv.mean = capped;
      iv.lo = std::clamp(iv.lo, arch_->idle_w, arch_->tdp_w);
      iv.hi = std::clamp(iv.hi, arch_->idle_w, arch_->tdp_w);
    }
  }

  rec.value = iv.mean;
  rec.lo = iv.lo;
  rec.hi = iv.hi;
  rec.interval_width = std::abs(iv.mean) > 0.0
                           ? (iv.hi - iv.lo) / std::abs(iv.mean)
                           : iv.hi - iv.lo;
  rec.grade = guard::grade_prediction(rec);
  return rec;
}

guard::GuardReport ProblemScalingPredictor::guard_report() const {
  guard::GuardReport report;
  report.enabled = true;
  report.options.margin = hull_.margin();
  report.hull = hull_.ranges();
  for (const auto& info : counters_.info()) {
    guard::CounterGuardRecord rec;
    rec.counter = info.counter;
    rec.chosen = counter_model_name(info.chosen);
    rec.r2 = info.r2;
    rec.cv_rmse = info.cv_rmse;
    for (const CounterModelKind k : info.chain) {
      rec.chain.push_back(counter_model_name(k));
    }
    report.counters.push_back(std::move(rec));
  }
  return report;
}

PredictionSeries ProblemScalingPredictor::validate(
    const std::vector<double>& sizes,
    const std::vector<double>& measured_ms) const {
  BF_CHECK_MSG(sizes.size() == measured_ms.size(),
               "sizes/measured length mismatch");
  std::vector<double> predicted;
  predicted.reserve(sizes.size());
  std::vector<guard::PredictionGuardRecord> recs;
  recs.reserve(sizes.size());
  for (const double s : sizes) {
    recs.push_back(predict_guarded(s));
    predicted.push_back(recs.back().value);
  }
  PredictionSeries series =
      score_series(sizes, measured_ms, std::move(predicted));
  series.guard = guard_report();
  for (auto& counter : series.guard.counters) {
    counter.demotions = count_events(recs, counter.counter, false);
    counter.clamps = count_events(recs, counter.counter, true);
  }
  series.guard.predictions = std::move(recs);
  return series;
}

void ProblemScalingPredictor::save(std::ostream& os) const {
  os.precision(17);
  os << "bf_psp 3\n";
  os << "response " << response_ << "\n";
  // The architecture is stored by name and re-resolved from the compiled
  // registry on load: physical caps derive from the spec, so name-based
  // lookup keeps capped predictions identical across export/reload.
  os << "arch " << (arch_ ? arch_->name : std::string("-")) << "\n";
  os << "retained " << retained_.size();
  for (const auto& name : retained_) os << ' ' << name;
  os << "\n";
  os << "envelope " << train_max_.size() << ' ' << max_train_size_ << "\n";
  for (std::size_t e = 0; e < train_max_.size(); ++e) {
    os << train_max_[e] << ' ' << train_at_max_size_[e] << ' '
       << (monotone_[e] ? 1 : 0) << "\n";
  }
  hull_.save(os);
  counters_.save(os);
  reduced_.save(os);
}

ProblemScalingPredictor ProblemScalingPredictor::load(std::istream& is) {
  read_format_version(is, "bf_psp", 3);
  ProblemScalingPredictor p;
  std::string tag;
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> p.response_) && tag == "response",
               "bf_psp: malformed response record");
  std::string arch_name;
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> arch_name) && tag == "arch",
               "bf_psp: malformed arch record");
  if (arch_name != "-") {
    // Throws for unknown names: a bundle trained against an architecture
    // this binary does not know cannot reproduce its physical caps.
    p.arch_ = gpusim::arch_by_name(arch_name);
  }
  std::size_t n_retained = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> n_retained) &&
                   tag == "retained" && n_retained >= 1 &&
                   n_retained <= 100'000,
               "bf_psp: malformed retained header");
  p.retained_.resize(n_retained);
  for (auto& name : p.retained_) {
    BF_CHECK_MSG(static_cast<bool>(is >> name),
                 "bf_psp: truncated retained list");
  }
  // One envelope per modelled counter: the retained list bounds the
  // count before anything is allocated for it.
  std::size_t n_env = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> n_env >> p.max_train_size_) &&
                   tag == "envelope" && n_env <= n_retained,
               "bf_psp: malformed envelope header");
  p.train_max_.resize(n_env);
  p.train_at_max_size_.resize(n_env);
  p.monotone_.resize(n_env);
  for (std::size_t e = 0; e < n_env; ++e) {
    int monotone = 0;
    BF_CHECK_MSG(static_cast<bool>(is >> p.train_max_[e] >>
                                   p.train_at_max_size_[e] >> monotone),
                 "bf_psp: truncated envelope");
    p.monotone_[e] = monotone != 0;
  }
  p.hull_ = guard::DomainGuard::load(is);
  p.counters_ = CounterModels::load(is);
  p.reduced_ = BlackForestModel::load(is);
  BF_CHECK_MSG(p.counters_.num_entries() == n_env,
               "bf_psp: envelope count disagrees with counter models");
  p.resolve_plan();
  return p;
}

// ---- Hardware scaling ----

double HardwareScalingPredictor::importance_similarity(
    const BlackForestModel& a, const BlackForestModel& b, std::size_t k) {
  // Rank-tolerant overlap: a top-k variable of the source still counts as
  // shared if it appears anywhere in the target's top-2k. Collinear
  // counters shuffle arbitrarily within the leading pack (Strobl et al.,
  // which the paper cites), so exact-position comparison would be noise.
  const auto ta = a.top_variables(k);
  const auto tb = b.top_variables(2 * k);
  std::size_t overlap = 0;
  for (const auto& name : ta) {
    if (std::find(tb.begin(), tb.end(), name) != tb.end()) ++overlap;
  }
  return k == 0 ? 0.0
                : static_cast<double>(overlap) / static_cast<double>(k);
}

HardwareScalingResult HardwareScalingPredictor::predict(
    const ml::Dataset& source, const ml::Dataset& target,
    const HardwareScalingOptions& options) {
  HardwareScalingResult out;

  // Per-architecture models to compare importance rankings (Fig. 8a/8b).
  ModelOptions per_arch = options.model;
  const BlackForestModel src_model = BlackForestModel::fit(source, per_arch);
  const BlackForestModel tgt_model = BlackForestModel::fit(target, per_arch);
  out.source_top = src_model.top_variables(kTopVariables);
  out.target_top = tgt_model.top_variables(kTopVariables);
  out.similarity =
      importance_similarity(src_model, tgt_model, kTopVariables);
  out.used_mixed_variables = out.similarity < options.similarity_threshold;

  // Columns usable across the two generations.
  const std::vector<std::string> common = common_columns(source, target);
  BF_CHECK_MSG(std::find(common.begin(), common.end(),
                         profiling::kTimeColumn) != common.end(),
               "datasets lack a common response column");

  // Machine characteristics + problem size always participate.
  std::vector<std::string> machine_cols;
  for (const auto& [name, _] :
       gpusim::machine_characteristics(gpusim::arch_registry().front())) {
    if (std::find(common.begin(), common.end(), name) != common.end()) {
      machine_cols.push_back(name);
    }
  }
  BF_CHECK_MSG(!machine_cols.empty(),
               "hardware scaling needs machine-characteristic columns; "
               "collect sweeps with machine_characteristics = true");

  std::vector<std::string> vars;
  if (out.used_mixed_variables) {
    // The paper's workaround: a mixture of important variables from both
    // architectures, restricted to counters both GPUs expose.
    for (const auto& list : {out.source_top, out.target_top}) {
      for (const auto& name : list) {
        const bool in_common =
            std::find(common.begin(), common.end(), name) != common.end();
        if (in_common &&
            std::find(vars.begin(), vars.end(), name) == vars.end()) {
          vars.push_back(name);
        }
      }
    }
  } else {
    for (const auto& name : common) {
      if (name == profiling::kTimeColumn) continue;
      const bool is_machine =
          std::find(machine_cols.begin(), machine_cols.end(), name) !=
          machine_cols.end();
      if (!is_machine) vars.push_back(name);
    }
  }
  if (std::find(vars.begin(), vars.end(), profiling::kSizeColumn) ==
          vars.end() &&
      std::find(common.begin(), common.end(), profiling::kSizeColumn) !=
          common.end()) {
    vars.push_back(profiling::kSizeColumn);
  }

  std::vector<std::string> train_cols = vars;
  for (const auto& m : machine_cols) train_cols.push_back(m);
  train_cols.push_back(profiling::kTimeColumn);

  // Calibration/test split of the target sweep; training set = all source
  // rows + the target calibration rows.
  Rng rng(options.seed);
  const ml::TrainTestSplit split = ml::train_test_split(
      target.select_columns(train_cols), 1.0 - kCalibrationFraction, rng);
  const ml::Dataset train = ml::Dataset::concat(
      source.select_columns(train_cols), split.train);

  ModelOptions fit_options = options.model;
  fit_options.test_fraction = 0.0;
  BlackForestModel model = BlackForestModel::fit(train, fit_options);
  out.variables = model.predictors();

  const std::vector<double> predicted = model.predict(split.test);
  out.series = score_series(split.test.column(profiling::kSizeColumn),
                            split.test.column(profiling::kTimeColumn),
                            predicted);

  // Annotate (never alter) the test predictions: hull membership of each
  // test row w.r.t. the calibrated training set, plus per-tree spread
  // grading. Cross-architecture prediction is exactly where the model
  // silently leaves its domain (paper §6.2's NW divergence). The hull
  // takes the default margin.
  const guard::DomainGuard hull = guard::DomainGuard::build(
      train, model.predictors(), guard::GuardOptions{}.margin);
  const std::vector<std::size_t> slots = hull.slots(model.predictors());
  const linalg::Matrix xm = split.test.to_matrix(model.predictors());
  const auto intervals = model.predict_intervals(xm);
  out.series.guard.enabled = true;
  out.series.guard.options.margin = hull.margin();
  out.series.guard.hull = hull.ranges();
  const auto& test_sizes = out.series.sizes;
  for (std::size_t r = 0; r < intervals.size(); ++r) {
    out.series.guard.predictions.push_back(grade_forest_row(
        hull, slots, xm.row_ptr(r), test_sizes[r], intervals[r]));
  }
  return out;
}

}  // namespace bf::core
