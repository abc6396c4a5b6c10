#include "core/counter_models.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <numeric>
#include <ostream>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/io.hpp"
#include "common/thread_pool.hpp"
#include "ml/cv.hpp"
#include "ml/metrics.hpp"
#include "profiling/sweep.hpp"

namespace bf::core {
namespace {

/// Folds and shuffle seed of the k-fold CV that ranks each counter's
/// fallback chain.
constexpr std::size_t kCvFolds = 5;
constexpr std::uint64_t kCvSeed = 17;

/// Basis of the primary GLM: a quadratic in log2(size + 1). The input is
/// already logarithmic, so the basis adds no log term of its own.
constexpr ml::GlmParams kGlmBasis{.degree = 2, .log_terms = false};
/// Basis of the log-log linear fallback: a line in log2(size + 1).
constexpr ml::GlmParams kLogLinearBasis{.degree = 1, .log_terms = false};

/// The one input every GLM and MARS model takes: log2(size + 1).
double log_size(double size) { return std::log2(std::max(0.0, size) + 1.0); }

/// One-column design of log2(size + 1) per row.
linalg::Matrix log_sizes(const std::vector<double>& sizes) {
  linalg::Matrix x(sizes.size(), 1);
  for (std::size_t i = 0; i < sizes.size(); ++i) x(i, 0) = log_size(sizes[i]);
  return x;
}

/// Decide whether a response should be modelled in log space.
bool wants_log_response(const std::vector<double>& y) {
  double lo = 1e300;
  double hi = 0.0;
  for (double v : y) {
    if (v <= 0.0) return false;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi / lo > 100.0;
}

/// Power law through the two largest distinct training sizes; degrades to
/// a linear segment (or a constant) when the anchors cannot support one.
struct PowerLaw {
  bool is_linear = false;
  double scale = 0.0;
  double exponent = 0.0;
  double x0 = 0.0;
  double y0 = 0.0;

  double predict(double s) const {
    if (is_linear) return y0 + scale * (s - x0);
    return scale * std::pow(std::max(s, 0.0), exponent);
  }
};

PowerLaw fit_power_law(const std::vector<double>& xs,
                       const std::vector<double>& ys) {
  PowerLaw pl;
  pl.is_linear = true;
  if (xs.empty()) return pl;
  std::vector<std::size_t> order(xs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  const std::size_t i1 = order.back();
  std::size_t i0 = i1;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (xs[*it] < xs[i1]) {
      i0 = *it;
      break;
    }
  }
  if (i0 == i1) {  // single distinct size: constant model
    pl.x0 = xs[i1];
    pl.y0 = ys[i1];
    return pl;
  }
  const double xa = xs[i0], ya = ys[i0];
  const double xb = xs[i1], yb = ys[i1];
  if (xa > 0.0 && xb > 0.0 && ya > 0.0 && yb > 0.0) {
    pl.is_linear = false;
    pl.exponent = std::log(yb / ya) / std::log(xb / xa);
    pl.scale = yb / std::pow(xb, pl.exponent);
  } else {
    pl.scale = (yb - ya) / (xb - xa);
    pl.x0 = xb;
    pl.y0 = yb;
  }
  return pl;
}

/// Single exit point: a counter that was non-negative in training is a
/// count/ratio/throughput and can never go negative, whatever model
/// produced it.
double exit_point(bool clamp_negative, double v, bool* negative_clamped) {
  if (clamp_negative && v < 0.0) {
    if (negative_clamped != nullptr) *negative_clamped = true;
    return 0.0;
  }
  if (negative_clamped != nullptr) *negative_clamped = false;
  return v;
}

}  // namespace

const char* counter_model_name(CounterModelKind kind) {
  switch (kind) {
    case CounterModelKind::kGlm:
      return "glm";
    case CounterModelKind::kMars:
      return "mars";
    case CounterModelKind::kAuto:
      return "auto";
    case CounterModelKind::kLogLinear:
      return "loglin";
    case CounterModelKind::kPowerLaw:
      return "powerlaw";
  }
  return "?";
}

CounterModels CounterModels::fit(const ml::Dataset& ds,
                                 const std::vector<std::string>& counters,
                                 const CounterModelOptions& options) {
  BF_CHECK_MSG(!counters.empty(), "no counters to model");
  CounterModels out;
  const std::vector<double>& sizes = ds.column(profiling::kSizeColumn);
  const linalg::Matrix x = log_sizes(sizes);

  // The size itself needs no model: callers already hold it.
  std::vector<std::string> modelled;
  for (const auto& counter : counters) {
    if (counter != profiling::kSizeColumn) modelled.push_back(counter);
  }
  out.entries_.resize(modelled.size());
  out.info_.resize(modelled.size());

  // Each counter's fit (GLM, MARS, fallbacks, CV ranking) is a pure
  // function of the dataset and the options and lands in its own slot,
  // so the result does not depend on how the pool schedules the counters.
  const auto fit_counter = [&](std::size_t k) {
    const std::string& counter = modelled[k];
    const std::vector<double>& y_raw = ds.column(counter);

    Entry entry;
    entry.counter = counter;
    entry.log_response = wants_log_response(y_raw);
    // Real GPU counters (counts/ratios/throughputs) are never negative in
    // training, so their predictions are clamped at the exit point. A
    // synthetic counter that genuinely crosses zero keeps its sign.
    entry.clamp_negative = std::all_of(y_raw.begin(), y_raw.end(),
                                       [](double v) { return v >= 0.0; });
    std::vector<double> y = y_raw;
    if (entry.log_response) {
      for (double& v : y) v = std::log2(v);
    }

    const bool want_glm = options.kind != CounterModelKind::kMars;
    const bool want_mars = options.kind != CounterModelKind::kGlm;
    if (want_glm) entry.glm.fit(x, y, kGlmBasis);
    if (want_mars) entry.mars.fit(x, y);

    // Score both candidates on the *original* counter scale so the choice
    // (and the reported quality) reflects what the forest will consume.
    // Scoring takes no fault draw: an armed divergence models a runaway
    // at predict time, and fit-time draws would follow the schedule.
    const auto score = [&](CounterModelKind kind) {
      std::vector<double> pred(y_raw.size());
      for (std::size_t i = 0; i < y_raw.size(); ++i) {
        pred[i] = exit_point(entry.clamp_negative,
                             model_output(entry, kind, sizes[i]), nullptr);
      }
      double rss = 0.0;
      for (std::size_t i = 0; i < y_raw.size(); ++i) {
        rss += (y_raw[i] - pred[i]) * (y_raw[i] - pred[i]);
      }
      return rss;
    };
    const double glm_rss = want_glm ? score(CounterModelKind::kGlm) : 1e300;
    const double mars_rss =
        want_mars ? score(CounterModelKind::kMars) : 1e300;
    if (options.kind == CounterModelKind::kGlm) {
      entry.kind = CounterModelKind::kGlm;
    } else if (options.kind == CounterModelKind::kMars) {
      entry.kind = CounterModelKind::kMars;
    } else {
      // Auto: prefer the simpler GLM unless MARS is clearly better.
      entry.kind = (mars_rss < 0.95 * glm_rss) ? CounterModelKind::kMars
                                               : CounterModelKind::kGlm;
    }

    CounterModelInfo info;
    info.counter = counter;
    info.chosen = entry.kind;
    info.residual_deviance =
        entry.kind == CounterModelKind::kGlm ? glm_rss : mars_rss;
    double tss = 0.0;
    const double ybar = ml::mean(y_raw);
    for (const double v : y_raw) tss += (v - ybar) * (v - ybar);
    info.r2 = tss > 0.0 ? 1.0 - info.residual_deviance / tss : 0.0;

    entry.chain = {entry.kind};
    // Fit the safe extrapolators: the log-log line, and the power law
    // through the two largest training sizes.
    entry.loglin.fit(x, y, kLogLinearBasis);
    const PowerLaw pl = fit_power_law(sizes, y_raw);
    entry.pl_is_linear = pl.is_linear;
    entry.pl_scale = pl.scale;
    entry.pl_exp = pl.exponent;
    entry.pl_x0 = pl.x0;
    entry.pl_y0 = pl.y0;

    // Rank the demotion order by k-fold CV error on the raw counter
    // scale. Note the *primary* stays the legacy RSS choice above so
    // the untripped path is bit-identical; CV only orders fallbacks.
    const ml::Dataset sub =
        ds.select_columns({profiling::kSizeColumn, counter});
    const bool log_resp = entry.log_response;
    const auto cv_for = [&](CounterModelKind kind) {
      return ml::cv_rmse(
          sub, counter, kCvFolds, kCvSeed,
          [&, kind](const ml::Dataset& train, const ml::Dataset& test) {
            const std::vector<double>& train_sizes =
                train.column(profiling::kSizeColumn);
            const std::vector<double>& test_sizes =
                test.column(profiling::kSizeColumn);
            std::vector<double> ty = train.column(counter);
            std::vector<double> pred(test.num_rows());
            if (kind == CounterModelKind::kPowerLaw) {
              const PowerLaw fold_pl = fit_power_law(train_sizes, ty);
              for (std::size_t i = 0; i < pred.size(); ++i) {
                pred[i] = fold_pl.predict(test_sizes[i]);
              }
              return pred;
            }
            const linalg::Matrix tx = log_sizes(train_sizes);
            if (log_resp) {
              for (double& v : ty) v = std::log2(v);
            }
            if (kind == CounterModelKind::kMars) {
              ml::Mars m;
              m.fit(tx, ty);
              for (std::size_t i = 0; i < pred.size(); ++i) {
                const double q = log_size(test_sizes[i]);
                pred[i] = m.predict_row(&q, 1);
              }
            } else {
              ml::Glm g;
              g.fit(tx, ty,
                    kind == CounterModelKind::kLogLinear ? kLogLinearBasis
                                                         : kGlmBasis);
              for (std::size_t i = 0; i < pred.size(); ++i) {
                const double q = log_size(test_sizes[i]);
                pred[i] = g.predict_row(&q, 1);
              }
            }
            if (log_resp) {
              for (double& v : pred) {
                v = std::exp2(std::clamp(v, -60.0, 60.0));
              }
            }
            return pred;
          });
    };

    struct Cand {
      CounterModelKind kind;
      double rmse;
    };
    std::vector<Cand> cands;
    if (want_glm) cands.push_back({CounterModelKind::kGlm, 0.0});
    if (want_mars) cands.push_back({CounterModelKind::kMars, 0.0});
    cands.push_back({CounterModelKind::kLogLinear, 0.0});
    cands.push_back({CounterModelKind::kPowerLaw, 0.0});
    for (auto& c : cands) c.rmse = cv_for(c.kind);
    for (const auto& c : cands) {
      if (c.kind == entry.kind) info.cv_rmse = c.rmse;
    }
    std::stable_sort(cands.begin(), cands.end(),
                     [](const Cand& a, const Cand& b) {
                       return a.rmse < b.rmse;
                     });
    for (const auto& c : cands) {
      if (c.kind != entry.kind) entry.chain.push_back(c.kind);
    }
    info.chain = entry.chain;

    out.entries_[k] = std::move(entry);
    out.info_[k] = std::move(info);
  };
  ThreadPool::global().parallel_for(0, modelled.size(), fit_counter);
  return out;
}

double CounterModels::model_output(const Entry& entry, CounterModelKind kind,
                                   double size) {
  if (kind == CounterModelKind::kPowerLaw) {
    PowerLaw pl;
    pl.is_linear = entry.pl_is_linear;
    pl.scale = entry.pl_scale;
    pl.exponent = entry.pl_exp;
    pl.x0 = entry.pl_x0;
    pl.y0 = entry.pl_y0;
    return pl.predict(size);
  }
  const double x = log_size(size);
  double v;
  if (kind == CounterModelKind::kMars) {
    v = entry.mars.predict_row(&x, 1);
  } else if (kind == CounterModelKind::kLogLinear) {
    v = entry.loglin.predict_row(&x, 1);
  } else {
    v = entry.glm.predict_row(&x, 1);
  }
  if (entry.log_response) v = std::exp2(std::clamp(v, -60.0, 60.0));
  return v;
}

double CounterModels::predict_entry(const Entry& entry, CounterModelKind kind,
                                    double size, bool* negative_clamped) {
  double v = model_output(entry, kind, size);
  if (fault::should_fire(fault::points::kCounterModelDiverge)) {
    // Simulated runaway extrapolation: the guard's sanity envelope must
    // catch this and demote down the chain.
    v *= 1e6;
  }
  return exit_point(entry.clamp_negative, v, negative_clamped);
}

double CounterModels::predict_kind(std::size_t entry, CounterModelKind kind,
                                   double size, bool* negative_clamped) const {
  BF_CHECK_MSG(entry < entries_.size(), "counter model index out of range");
  return predict_entry(entries_[entry], kind, size, negative_clamped);
}

const std::string& CounterModels::entry_counter(std::size_t entry) const {
  BF_CHECK_MSG(entry < entries_.size(), "counter model index out of range");
  return entries_[entry].counter;
}

const std::vector<CounterModelKind>& CounterModels::entry_chain(
    std::size_t entry) const {
  BF_CHECK_MSG(entry < entries_.size(), "counter model index out of range");
  return entries_[entry].chain;
}

std::vector<std::pair<std::string, double>> CounterModels::predict(
    double size) const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    out.emplace_back(entry.counter,
                     predict_entry(entry, entry.kind, size, nullptr));
  }
  return out;
}

double CounterModels::average_r2() const {
  if (info_.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& i : info_) acc += i.r2;
  return acc / static_cast<double>(info_.size());
}

namespace {

CounterModelKind kind_from_code(int code) {
  BF_CHECK_MSG(code >= 0 && code <= static_cast<int>(CounterModelKind::kPowerLaw),
               "bf_counter_models: bad model-kind code " << code);
  return static_cast<CounterModelKind>(code);
}

void save_chain(std::ostream& os, const std::vector<CounterModelKind>& chain) {
  os << chain.size();
  for (const CounterModelKind k : chain) os << ' ' << static_cast<int>(k);
  os << "\n";
}

std::vector<CounterModelKind> load_chain(std::istream& is) {
  std::size_t n = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> n) && n >= 1 && n <= 8,
               "bf_counter_models: bad chain length");
  std::vector<CounterModelKind> chain(n);
  for (auto& k : chain) {
    int code = 0;
    BF_CHECK_MSG(static_cast<bool>(is >> code),
                 "bf_counter_models: truncated chain");
    k = kind_from_code(code);
  }
  return chain;
}

bool chain_has(const std::vector<CounterModelKind>& chain,
               CounterModelKind kind) {
  return std::find(chain.begin(), chain.end(), kind) != chain.end();
}

/// True when a loaded GLM or MARS model takes exactly one input.
template <class Model>
bool fitted_on_size(const Model& model) {
  return model.fitted() && model.num_inputs() == 1;
}

}  // namespace

void CounterModels::save(std::ostream& os) const {
  os.precision(17);
  os << "bf_counter_models 3\n";
  os << "entries " << entries_.size() << "\n";
  for (const auto& e : entries_) {
    os << e.counter << ' ' << static_cast<int>(e.kind) << ' '
       << (e.log_response ? 1 : 0) << ' ' << (e.clamp_negative ? 1 : 0) << ' '
       << (e.pl_is_linear ? 1 : 0) << ' ' << e.pl_scale << ' ' << e.pl_exp
       << ' ' << e.pl_x0 << ' ' << e.pl_y0 << "\n";
    save_chain(os, e.chain);
    e.glm.save(os);
    e.mars.save(os);
    e.loglin.save(os);
  }
  os << "info " << info_.size() << "\n";
  for (const auto& i : info_) {
    os << i.counter << ' ' << static_cast<int>(i.chosen) << ' ' << i.r2 << ' '
       << i.residual_deviance << ' ' << i.cv_rmse << "\n";
    save_chain(os, i.chain);
  }
}

CounterModels CounterModels::load(std::istream& is) {
  read_format_version(is, "bf_counter_models", 3);
  CounterModels out;
  std::string tag;
  std::size_t n_entries = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> n_entries) &&
                   tag == "entries" && n_entries <= 100'000,
               "bf_counter_models: malformed entries header");
  out.entries_.resize(n_entries);
  for (auto& e : out.entries_) {
    int kind = 0;
    int log_response = 0;
    int clamp_negative = 0;
    int pl_is_linear = 0;
    BF_CHECK_MSG(static_cast<bool>(is >> e.counter >> kind >> log_response >>
                                   clamp_negative >> pl_is_linear >>
                                   e.pl_scale >> e.pl_exp >> e.pl_x0 >>
                                   e.pl_y0),
                 "bf_counter_models: truncated entry");
    e.kind = kind_from_code(kind);
    e.log_response = log_response != 0;
    e.clamp_negative = clamp_negative != 0;
    e.pl_is_linear = pl_is_linear != 0;
    e.chain = load_chain(is);
    BF_CHECK_MSG(e.chain.front() == e.kind,
                 "bf_counter_models: chain head disagrees with primary for "
                     << e.counter);
    // fit() always appends both safe extrapolators; the guard relies on
    // the power law for its sanity envelope and terminal fallback.
    BF_CHECK_MSG(chain_has(e.chain, CounterModelKind::kLogLinear) &&
                     chain_has(e.chain, CounterModelKind::kPowerLaw),
                 "bf_counter_models: chain for "
                     << e.counter
                     << " lacks the log-log linear or power-law fallback");
    e.glm = ml::Glm::load(is);
    e.mars = ml::Mars::load(is);
    e.loglin = ml::Glm::load(is);
    // Every model the chain names must be fitted on the one input, the
    // log size: otherwise the record would load and then fail every query
    // that reaches that model. "auto" is a fit-time choice, not a model.
    for (const CounterModelKind k : e.chain) {
      const bool held =
          k == CounterModelKind::kPowerLaw ||
          (k == CounterModelKind::kGlm && fitted_on_size(e.glm)) ||
          (k == CounterModelKind::kMars && fitted_on_size(e.mars)) ||
          (k == CounterModelKind::kLogLinear && fitted_on_size(e.loglin));
      BF_CHECK_MSG(held, "bf_counter_models: chain for "
                             << e.counter << " names "
                             << counter_model_name(k)
                             << ", which the record does not hold fitted on "
                                "the size");
    }
  }
  std::size_t n_info = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> n_info) && tag == "info" &&
                   n_info == n_entries,
               "bf_counter_models: malformed info header");
  out.info_.resize(n_info);
  for (auto& i : out.info_) {
    int chosen = 0;
    BF_CHECK_MSG(static_cast<bool>(is >> i.counter >> chosen >> i.r2 >>
                                   i.residual_deviance >> i.cv_rmse),
                 "bf_counter_models: truncated info record");
    i.chosen = kind_from_code(chosen);
    i.chain = load_chain(is);
  }
  return out;
}

}  // namespace bf::core
