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

namespace bf::core {
namespace {

/// Folds and shuffle seed of the k-fold CV that ranks each counter's
/// fallback chain.
constexpr std::size_t kCvFolds = 5;
constexpr std::uint64_t kCvSeed = 17;

double log_input(double v) { return std::log2(std::max(0.0, v) + 1.0); }

linalg::Matrix transform_inputs(const linalg::Matrix& x, bool log_inputs) {
  if (!log_inputs) return x;
  linalg::Matrix t(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      t(i, j) = log_input(x(i, j));
    }
  }
  return t;
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
  BF_CHECK_MSG(!options.inputs.empty(), "no input characteristics");
  CounterModels out;
  out.inputs_ = options.inputs;
  out.log_inputs_ = options.log_inputs;

  const linalg::Matrix raw_x = ds.to_matrix(options.inputs);
  const linalg::Matrix x = transform_inputs(raw_x, options.log_inputs);

  // The inputs themselves need no model: callers already hold them.
  std::vector<std::string> modelled;
  for (const auto& counter : counters) {
    if (std::find(options.inputs.begin(), options.inputs.end(), counter) ==
        options.inputs.end()) {
      modelled.push_back(counter);
    }
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
    entry.log_response = options.auto_log_response && wants_log_response(y_raw);
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
    if (want_glm) {
      ml::GlmParams gp = options.glm;
      if (options.log_inputs) gp.log_terms = false;  // already in log space
      entry.glm.fit(x, y, gp);
    }
    if (want_mars) entry.mars.fit(x, y, options.mars);

    // Score both candidates on the *original* counter scale so the choice
    // (and the reported quality) reflects what the forest will consume.
    // Scoring takes no fault draw: an armed divergence models a runaway
    // at predict time, and fit-time draws would follow the schedule.
    const auto score = [&](CounterModelKind kind) {
      std::vector<double> pred(y_raw.size());
      std::vector<double> row(raw_x.cols());
      std::vector<double> scratch;
      for (std::size_t i = 0; i < y_raw.size(); ++i) {
        for (std::size_t j = 0; j < raw_x.cols(); ++j) row[j] = raw_x(i, j);
        pred[i] = exit_point(entry.clamp_negative,
                             out.model_output(entry, kind, row, scratch),
                             nullptr);
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
    // Fit the safe extrapolators. The log-log linear model is a
    // degree-1 GLM on the same (log) basis; the power law anchors on
    // the last two training points of the first input.
    ml::GlmParams lp = options.glm;
    lp.degree = 1;
    lp.link = ml::LinkFunction::kIdentity;
    if (options.log_inputs) lp.log_terms = false;
    entry.loglin.fit(x, y, lp);

    std::vector<double> first_input(y_raw.size());
    for (std::size_t i = 0; i < y_raw.size(); ++i) {
      first_input[i] = raw_x(i, 0);
    }
    const PowerLaw pl = fit_power_law(first_input, y_raw);
    entry.pl_is_linear = pl.is_linear;
    entry.pl_scale = pl.scale;
    entry.pl_exp = pl.exponent;
    entry.pl_x0 = pl.x0;
    entry.pl_y0 = pl.y0;

    // Rank the demotion order by k-fold CV error on the raw counter
    // scale. Note the *primary* stays the legacy RSS choice above so
    // the untripped path is bit-identical; CV only orders fallbacks.
    std::vector<std::string> cols = options.inputs;
    cols.push_back(counter);
    const ml::Dataset sub = ds.select_columns(cols);
    const bool log_resp = entry.log_response;
    const auto cv_for = [&](CounterModelKind kind) {
      return ml::cv_rmse(
          sub, counter, kCvFolds, kCvSeed,
          [&, kind](const ml::Dataset& train, const ml::Dataset& test) {
            const linalg::Matrix train_raw = train.to_matrix(options.inputs);
            const linalg::Matrix test_raw = test.to_matrix(options.inputs);
            std::vector<double> ty = train.column(counter);
            std::vector<double> pred(test.num_rows());
            if (kind == CounterModelKind::kPowerLaw) {
              std::vector<double> txs(train.num_rows());
              for (std::size_t i = 0; i < txs.size(); ++i) {
                txs[i] = train_raw(i, 0);
              }
              const PowerLaw fold_pl = fit_power_law(txs, ty);
              for (std::size_t i = 0; i < pred.size(); ++i) {
                pred[i] = fold_pl.predict(test_raw(i, 0));
              }
              return pred;
            }
            const linalg::Matrix tx =
                transform_inputs(train_raw, options.log_inputs);
            const linalg::Matrix qx =
                transform_inputs(test_raw, options.log_inputs);
            if (log_resp) {
              for (double& v : ty) v = std::log2(v);
            }
            if (kind == CounterModelKind::kMars) {
              ml::Mars m;
              m.fit(tx, ty, options.mars);
              for (std::size_t i = 0; i < pred.size(); ++i) {
                std::vector<double> row(qx.cols());
                for (std::size_t j = 0; j < qx.cols(); ++j) row[j] = qx(i, j);
                pred[i] = m.predict_row(row.data(), row.size());
              }
            } else {
              ml::GlmParams gp = options.glm;
              if (options.log_inputs) gp.log_terms = false;
              if (kind == CounterModelKind::kLogLinear) {
                gp.degree = 1;
                gp.link = ml::LinkFunction::kIdentity;
              }
              ml::Glm g;
              g.fit(tx, ty, gp);
              for (std::size_t i = 0; i < pred.size(); ++i) {
                std::vector<double> row(qx.cols());
                for (std::size_t j = 0; j < qx.cols(); ++j) row[j] = qx(i, j);
                pred[i] = g.predict_row(row.data(), row.size());
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

double CounterModels::predict_entry(const Entry& entry,
                                    std::span<const double> inputs,
                                    std::vector<double>& scratch) const {
  return predict_entry_kind(entry, entry.kind, inputs, scratch, nullptr);
}

double CounterModels::model_output(const Entry& entry, CounterModelKind kind,
                                   std::span<const double> inputs,
                                   std::vector<double>& scratch) const {
  double v;
  if (kind == CounterModelKind::kPowerLaw) {
    PowerLaw pl;
    pl.is_linear = entry.pl_is_linear;
    pl.scale = entry.pl_scale;
    pl.exponent = entry.pl_exp;
    pl.x0 = entry.pl_x0;
    pl.y0 = entry.pl_y0;
    v = pl.predict(inputs.empty() ? 0.0 : inputs[0]);
  } else {
    scratch.assign(inputs.begin(), inputs.end());
    if (log_inputs_) {
      for (double& u : scratch) u = log_input(u);
    }
    if (kind == CounterModelKind::kMars) {
      v = entry.mars.predict_row(scratch.data(), scratch.size());
    } else if (kind == CounterModelKind::kLogLinear) {
      v = entry.loglin.predict_row(scratch.data(), scratch.size());
    } else {
      v = entry.glm.predict_row(scratch.data(), scratch.size());
    }
    if (entry.log_response) v = std::exp2(std::clamp(v, -60.0, 60.0));
  }
  return v;
}

double CounterModels::predict_entry_kind(const Entry& entry,
                                         CounterModelKind kind,
                                         std::span<const double> inputs,
                                         std::vector<double>& scratch,
                                         bool* negative_clamped) const {
  double v = model_output(entry, kind, inputs, scratch);
  if (fault::should_fire(fault::points::kCounterModelDiverge)) {
    // Simulated runaway extrapolation: the guard's sanity envelope must
    // catch this and demote down the chain.
    v *= 1e6;
  }
  return exit_point(entry.clamp_negative, v, negative_clamped);
}

double CounterModels::predict_kind(std::size_t entry, CounterModelKind kind,
                                   const std::vector<double>& inputs,
                                   bool* negative_clamped) const {
  std::vector<double> scratch;
  return predict_kind(entry, kind, std::span<const double>(inputs), scratch,
                      negative_clamped);
}

double CounterModels::predict_kind(std::size_t entry, CounterModelKind kind,
                                   std::span<const double> inputs,
                                   std::vector<double>& scratch,
                                   bool* negative_clamped) const {
  BF_CHECK_MSG(entry < entries_.size(), "counter model index out of range");
  BF_CHECK_MSG(inputs.size() == inputs_.size(),
               "expected " << inputs_.size() << " input values");
  return predict_entry_kind(entries_[entry], kind, inputs, scratch,
                            negative_clamped);
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
    const std::vector<double>& inputs) const {
  BF_CHECK_MSG(inputs.size() == inputs_.size(),
               "expected " << inputs_.size() << " input values");
  std::vector<std::pair<std::string, double>> out;
  out.reserve(entries_.size());
  std::vector<double> scratch;
  for (const auto& entry : entries_) {
    out.emplace_back(entry.counter, predict_entry(entry, inputs, scratch));
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

}  // namespace

void CounterModels::save(std::ostream& os) const {
  os.precision(17);
  os << "bf_counter_models 2\n";
  os << inputs_.size();
  for (const auto& name : inputs_) os << ' ' << name;
  os << ' ' << (log_inputs_ ? 1 : 0) << "\n";
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
  read_format_version(is, "bf_counter_models", 2);
  CounterModels out;
  std::size_t n_inputs = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> n_inputs) && n_inputs >= 1 &&
                   n_inputs <= 64,
               "bf_counter_models: bad input count");
  out.inputs_.resize(n_inputs);
  for (auto& name : out.inputs_) {
    BF_CHECK_MSG(static_cast<bool>(is >> name),
                 "bf_counter_models: truncated inputs");
  }
  int log_inputs = 0;
  std::string tag;
  std::size_t n_entries = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> log_inputs >> tag >> n_entries) &&
                   tag == "entries" && n_entries <= 100'000,
               "bf_counter_models: malformed entries header");
  out.log_inputs_ = log_inputs != 0;
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
