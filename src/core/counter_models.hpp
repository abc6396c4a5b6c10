// Stage 5 (results interpretation / prediction): model each retained
// counter as a function of the problem characteristics so that, for an
// unseen problem size, the counter vector can be generated and fed to the
// random forest (§4.2: "we can use the models to generate values for the
// most influential variables from an unseen problem size for which the
// execution time will be predicted by the random forest").
//
// Trivial counters get generalised linear models; gnarlier ones get MARS,
// matching the paper's use of glm for MM and earth for NW. Each counter
// additionally carries simpler fallback models (log-log linear, power-law
// through the last two points), ranked by k-fold CV error; the guard
// layer demotes along the chain at predict time when the chosen model's
// output violates sanity bounds. Every prediction leaves through one
// clamped exit point, so no model can feed a negative counter value to
// the forest.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/linear_model.hpp"
#include "ml/mars.hpp"

namespace bf::core {

enum class CounterModelKind {
  kGlm,
  kMars,
  /// Fit both, keep whichever has the better training R^2 (with a small
  /// parsimony bonus for the GLM).
  kAuto,
  /// Degree-1 GLM on the (log) basis — the classic log-log linear fit
  /// that extrapolates power laws safely.
  kLogLinear,
  /// Power law c * size^e through the last two training points; immune
  /// to hinge explosion, the terminal fallback of every chain.
  kPowerLaw,
};

/// Short stable name ("glm", "mars", "loglin", "powerlaw") for reports.
const char* counter_model_name(CounterModelKind kind);

struct CounterModelOptions {
  CounterModelKind kind = CounterModelKind::kAuto;
  /// Input columns (problem and/or machine characteristics).
  std::vector<std::string> inputs = {"size"};
  /// Model in log2(input+1) space. GPU counters are power laws in the
  /// problem size (O(n^2) data, O(n^3) work, ...), which become low-degree
  /// polynomials in log space and extrapolate far more safely.
  bool log_inputs = true;
  /// Fit log2(response) when the counter is strictly positive and spans
  /// more than two decades; predictions are mapped back with exp2. This
  /// keeps wide-range count counters positive and accurate.
  bool auto_log_response = true;
  ml::GlmParams glm;
  ml::MarsParams mars;
};

/// Quality record for one fitted counter model.
struct CounterModelInfo {
  std::string counter;
  CounterModelKind chosen = CounterModelKind::kGlm;
  double r2 = 0.0;
  double residual_deviance = 0.0;  ///< GLM-style RSS on the response scale
  /// K-fold CV RMSE of the chosen model.
  double cv_rmse = 0.0;
  /// Demotion order, chosen model first.
  std::vector<CounterModelKind> chain;
};

class CounterModels {
 public:
  /// Fit one model per name in `counters` from the rows of `ds`.
  static CounterModels fit(const ml::Dataset& ds,
                           const std::vector<std::string>& counters,
                           const CounterModelOptions& options = {});

  /// Predict every modelled counter at the given input values (same order
  /// as options.inputs); returns pairs (counter, value).
  std::vector<std::pair<std::string, double>> predict(
      const std::vector<double>& inputs) const;

  /// Predict counter `entry` with one specific model from its chain
  /// (the guard layer's demotion primitive). When `negative_clamped` is
  /// non-null it reports whether the raw model output was negative
  /// before the exit-point clamp.
  double predict_kind(std::size_t entry, CounterModelKind kind,
                      const std::vector<double>& inputs,
                      bool* negative_clamped = nullptr) const;

  /// Allocation-free form of predict_kind for the serving hot path: the
  /// inputs arrive as a span and the log-space transform writes into a
  /// caller-reused scratch buffer instead of a per-call temporary.
  double predict_kind(std::size_t entry, CounterModelKind kind,
                      std::span<const double> inputs,
                      std::vector<double>& scratch,
                      bool* negative_clamped = nullptr) const;

  std::size_t num_entries() const { return entries_.size(); }
  const std::string& entry_counter(std::size_t entry) const;
  /// Demotion order of one entry, primary first.
  const std::vector<CounterModelKind>& entry_chain(std::size_t entry) const;

  const std::vector<CounterModelInfo>& info() const { return info_; }
  const std::vector<std::string>& inputs() const { return inputs_; }
  /// Mean training R^2 across counters (the paper quotes 0.99 for NW).
  double average_r2() const;

  /// Serialise every fitted entry (primary + fallback chain) and its
  /// quality record; a reloaded CounterModels predicts bit-identically.
  void save(std::ostream& os) const;
  static CounterModels load(std::istream& is);

 private:
  struct Entry {
    std::string counter;
    CounterModelKind kind = CounterModelKind::kGlm;
    bool log_response = false;
    /// Training data was non-negative, so predictions are clamped >= 0
    /// at the exit point (true for every real GPU counter).
    bool clamp_negative = true;
    ml::Glm glm;
    ml::Mars mars;
    // ---- fallback chain ----
    ml::Glm loglin;
    /// Power law y = pl_scale * s^pl_exp on the first input; when the
    /// anchor points are non-positive a linear segment through the last
    /// two points is used instead.
    bool pl_is_linear = false;
    double pl_scale = 0.0;
    double pl_exp = 0.0;
    double pl_x0 = 0.0;
    double pl_y0 = 0.0;
    std::vector<CounterModelKind> chain;
  };

  double predict_entry(const Entry& entry, std::span<const double> inputs,
                       std::vector<double>& scratch) const;
  double predict_entry_kind(const Entry& entry, CounterModelKind kind,
                            std::span<const double> inputs,
                            std::vector<double>& scratch,
                            bool* negative_clamped) const;

  std::vector<std::string> inputs_;
  bool log_inputs_ = true;
  std::vector<Entry> entries_;
  std::vector<CounterModelInfo> info_;
};

}  // namespace bf::core
