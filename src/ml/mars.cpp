#include "ml/mars.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/io.hpp"
#include "linalg/solve.hpp"
#include "ml/metrics.hpp"

namespace bf::ml {
namespace {

/// Stop the forward pass early when RSS improves by less than this
/// fraction of the response sum of squares.
constexpr double kMinRssImprovement = 1e-5;
/// Candidate knots per variable (quantiles of observed values).
constexpr std::size_t kMaxKnotsPerVar = 32;

/// GCV criterion. `penalty` is the knot penalty per hinge pair.
double gcv_of(double rss, std::size_t n, std::size_t n_terms,
              double penalty) {
  // Effective parameters: terms + penalty * knots (knots ~ terms - 1).
  const double eff = static_cast<double>(n_terms) +
                     penalty * 0.5 * static_cast<double>(n_terms - 1);
  const double nn = static_cast<double>(n);
  const double denom = 1.0 - std::min(eff / nn, 0.99);
  return rss / nn / (denom * denom);
}

/// One hinge factor of a term's product; eval_term multiplies them in
/// order and stops at the first zero, which it returns as +0.
double times_hinge(double v, double knot, int direction, double x) {
  if (direction > 0) {
    v *= std::max(x - knot, 0.0);
  } else if (direction < 0) {
    v *= std::max(knot - x, 0.0);
  } else {
    v *= x;
  }
  return v;
}

}  // namespace

double Mars::eval_term(const Term& term, const double* row) const {
  double v = 1.0;
  for (const Hinge& h : term.hinges) {
    v = times_hinge(v, h.knot, h.direction, row[h.var]);
    if (v == 0.0) return 0.0;
  }
  return v;
}

void Mars::fit(const linalg::Matrix& x, const std::vector<double>& y,
               const MarsParams& params) {
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  BF_CHECK_MSG(n == y.size(), "X/y row mismatch");
  BF_CHECK_MSG(n >= 4, "MARS needs at least 4 observations");
  BF_CHECK_MSG(p >= 1, "MARS needs at least one input");
  num_inputs_ = p;
  // earth's default GCV knot penalty: 3 with interactions, 2 without.
  const double penalty = params.max_degree > 1 ? 3.0 : 2.0;

  // Candidate knots per variable: distinct quantiles of observed values,
  // excluding the extremes (a hinge at the max/min is degenerate).
  std::vector<std::vector<double>> knots(p);
  std::size_t total_knots = 0;
  for (std::size_t j = 0; j < p; ++j) {
    std::vector<double> vals = x.column_vec(j);
    std::sort(vals.begin(), vals.end());
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    if (vals.size() <= 2) continue;
    const std::size_t interior = vals.size() - 2;
    const std::size_t take = std::min(kMaxKnotsPerVar, interior);
    for (std::size_t k = 0; k < take; ++k) {
      const std::size_t idx =
          1 + (k * interior) / take;  // spread across the interior
      knots[j].push_back(vals[idx]);
    }
    knots[j].erase(std::unique(knots[j].begin(), knots[j].end()),
                   knots[j].end());
    total_knots += knots[j].size();
  }

  // ---- Forward pass ----
  std::vector<Term> terms;
  terms.push_back(Term{});  // intercept

  double y_ss = 0.0;
  {
    const double ybar = mean(y);
    for (double v : y) y_ss += (v - ybar) * (v - ybar);
  }
  if (y_ss <= 0.0) {
    // Constant response: intercept-only model.
    terms_ = terms;
    coef_ = {mean(y)};
    gcv_ = 0.0;
    r_squared_ = 0.0;
    return;
  }

  // Every term's column over the training rows, computed once when the
  // term enters: term t's column is cols[t * n]. Each forward round scores
  // all its candidate pairs with one extension query and each pruning
  // step all its deletions with one deletion query on the same engine, so
  // the scratch below is sized once per fit.
  const std::size_t capacity = std::max<std::size_t>(params.max_terms, 1);
  std::vector<double> cols(n * capacity);
  std::fill_n(cols.begin(), n, 1.0);
  const auto column = [&](std::size_t t) { return cols.data() + t * n; };
  // term(parent + hinge) from the parent's column, as eval_term computes it.
  const auto extend = [&](std::size_t parent, const Hinge& h, double* out) {
    const double* pc = column(parent);
    for (std::size_t i = 0; i < n; ++i) {
      const double v =
          pc[i] == 0.0 ? 0.0
                       : times_hinge(pc[i], h.knot, h.direction, x(i, h.var));
      out[i] = v == 0.0 ? 0.0 : v;
    }
  };
  // A candidate reflected pair: max(x_var - knot, 0) and max(knot - x_var,
  // 0) times the parent term.
  struct Candidate {
    std::size_t parent = 0;
    std::size_t var = 0;
    double knot = 0.0;
  };
  // A round's candidates: every knot under the intercept, plus, for each
  // of at most max_terms - 3 other terms that may still take a hinge,
  // the knots of the variables it does not use.
  std::size_t other_vars_knots = 0;
  for (const auto& k : knots) {
    other_vars_knots = std::max(other_vars_knots, total_knots - k.size());
  }
  const std::size_t other_parents =
      params.max_degree > 1 && params.max_terms > 3 ? params.max_terms - 3 : 0;
  const std::size_t max_candidates =
      params.max_terms >= 3 ? total_knots + other_parents * other_vars_knots
                            : 0;
  std::vector<Candidate> candidates;
  candidates.reserve(max_candidates);
  std::vector<double> pairs(2 * n * max_candidates);
  std::vector<double> rss(std::max(max_candidates, capacity));
  std::vector<const double*> design;
  design.reserve(capacity);
  linalg::PivotedQr qr;

  double best_rss = y_ss;
  while (terms.size() + 2 <= params.max_terms) {
    candidates.clear();
    for (std::size_t parent = 0; parent < terms.size(); ++parent) {
      const int parent_degree = static_cast<int>(terms[parent].hinges.size());
      if (parent_degree >= params.max_degree) continue;
      for (std::size_t j = 0; j < p; ++j) {
        // earth disallows a variable appearing twice in one term.
        bool var_in_parent = false;
        for (const Hinge& h : terms[parent].hinges) {
          if (h.var == j) var_in_parent = true;
        }
        if (var_in_parent) continue;

        for (double knot : knots[j]) {
          // Candidate design = current + reflected pair.
          BF_CHECK_MSG(candidates.size() < max_candidates,
                       "MARS candidate bound exceeded");
          double* pair = pairs.data() + 2 * n * candidates.size();
          extend(parent, Hinge{j, knot, +1}, pair);
          extend(parent, Hinge{j, knot, -1}, pair + n);
          candidates.push_back({parent, j, knot});
        }
      }
    }
    if (candidates.empty()) break;

    design.clear();
    for (std::size_t t = 0; t < terms.size(); ++t) design.push_back(column(t));
    qr.extension_rss(design, y, {pairs.data(), 2 * n * candidates.size()},
                     {rss.data(), candidates.size()});
    double round_best_rss = best_rss;
    const Candidate* best = nullptr;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (rss[c] < round_best_rss - 1e-12) {
        round_best_rss = rss[c];
        best = &candidates[c];
      }
    }

    if (best == nullptr) break;
    if ((best_rss - round_best_rss) < kMinRssImprovement * y_ss) {
      break;
    }
    for (const int direction : {+1, -1}) {
      Term term = terms[best->parent];
      term.hinges.push_back(Hinge{best->var, best->knot, direction});
      extend(best->parent, term.hinges.back(), column(terms.size()));
      terms.push_back(std::move(term));
    }
    best_rss = round_best_rss;
  }

  // ---- Backward pruning by GCV ----
  // Iteratively delete the term whose removal best improves GCV, keeping
  // the best subset seen (the intercept never leaves). `current` holds
  // forward-term indices; each round's deletion query also returns the
  // RSS of `current` itself, which is the RSS the previous round scored
  // for the deletion that produced it.
  std::vector<std::size_t> current(terms.size());
  for (std::size_t t = 0; t < current.size(); ++t) current[t] = t;
  std::vector<std::size_t> best_terms;
  double best_gcv = 0.0;
  double best_terms_rss = 0.0;
  for (bool first = true;; first = false) {
    design.clear();
    for (const std::size_t t : current) design.push_back(column(t));
    const double cur_rss =
        qr.deletion_rss(design, y, 1, {rss.data(), current.size() - 1});
    const double g = gcv_of(cur_rss, n, current.size(), penalty);
    if (first || g < best_gcv) {
      best_gcv = g;
      best_terms = current;
      best_terms_rss = cur_rss;
    }
    if (current.size() == 1) break;

    double round_gcv = std::numeric_limits<double>::infinity();
    std::size_t drop = 0;
    for (std::size_t t = 1; t < current.size(); ++t) {  // keep intercept
      const double gt = gcv_of(rss[t - 1], n, current.size() - 1, penalty);
      if (gt < round_gcv) {
        round_gcv = gt;
        drop = t;
      }
    }
    if (!std::isfinite(round_gcv)) break;
    current.erase(current.begin() + static_cast<std::ptrdiff_t>(drop));
  }

  design.clear();
  terms_.clear();
  for (const std::size_t t : best_terms) {
    design.push_back(column(t));
    terms_.push_back(terms[t]);
  }
  coef_ = qr.solve(design, y).coefficients;
  gcv_ = best_gcv;
  r_squared_ = 1.0 - best_terms_rss / y_ss;
}

double Mars::predict_row(const double* row, std::size_t num_inputs) const {
  BF_CHECK_MSG(fitted(), "predict on unfitted MARS model");
  BF_CHECK_MSG(num_inputs == num_inputs_, "input arity mismatch");
  double acc = 0.0;
  for (std::size_t t = 0; t < terms_.size(); ++t) {
    acc += coef_[t] * eval_term(terms_[t], row);
  }
  return acc;
}

std::vector<double> Mars::predict(const linalg::Matrix& x) const {
  BF_CHECK_MSG(x.cols() == num_inputs_, "prediction arity mismatch");
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    out[i] = predict_row(x.row_ptr(i), num_inputs_);
  }
  return out;
}

std::string Mars::to_string(const std::vector<std::string>& var_names) const {
  auto var_label = [&](std::size_t v) -> std::string {
    if (v < var_names.size()) return var_names[v];
    std::ostringstream os;
    os << "x" << v;
    return os.str();
  };
  std::ostringstream os;
  os.precision(4);
  for (std::size_t t = 0; t < terms_.size(); ++t) {
    const double c = coef_[t];
    if (t == 0) {
      os << c;
      continue;
    }
    os << (c >= 0 ? " + " : " - ") << std::fabs(c);
    for (const Hinge& h : terms_[t].hinges) {
      if (h.direction > 0) {
        os << "*h(" << var_label(h.var) << "-" << h.knot << ")";
      } else if (h.direction < 0) {
        os << "*h(" << h.knot << "-" << var_label(h.var) << ")";
      } else {
        os << "*" << var_label(h.var);
      }
    }
  }
  return os.str();
}

void Mars::save(std::ostream& os) const {
  // An unfitted model (0 terms) is a legal record: counter-model entries
  // only fit the members their chain actually uses.
  os.precision(17);
  os << "bf_mars 2\n";
  os << num_inputs_ << ' ' << terms_.size() << ' ' << gcv_ << ' '
     << r_squared_ << "\n";
  for (std::size_t t = 0; t < terms_.size(); ++t) {
    os << coef_[t] << ' ' << terms_[t].hinges.size();
    for (const Hinge& h : terms_[t].hinges) {
      os << ' ' << h.var << ' ' << h.knot << ' ' << h.direction;
    }
    os << "\n";
  }
}

Mars Mars::load(std::istream& is) {
  read_format_version(is, "bf_mars", 2);
  Mars m;
  std::size_t n_terms = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> m.num_inputs_ >> n_terms >> m.gcv_ >>
                                 m.r_squared_),
               "malformed bf_mars record");
  BF_CHECK_MSG(n_terms <= 100'000, "bf_mars: implausible term count");
  m.terms_.resize(n_terms);
  m.coef_.resize(n_terms);
  for (std::size_t t = 0; t < n_terms; ++t) {
    std::size_t n_hinges = 0;
    BF_CHECK_MSG(static_cast<bool>(is >> m.coef_[t] >> n_hinges),
                 "bf_mars: truncated term header");
    BF_CHECK_MSG(n_hinges <= 64, "bf_mars: implausible hinge count");
    m.terms_[t].hinges.resize(n_hinges);
    for (Hinge& h : m.terms_[t].hinges) {
      BF_CHECK_MSG(static_cast<bool>(is >> h.var >> h.knot >> h.direction),
                   "bf_mars: truncated hinge");
      BF_CHECK_MSG(h.var < m.num_inputs_ && h.direction >= -1 &&
                       h.direction <= 1,
                   "bf_mars: hinge out of range");
    }
  }
  return m;
}

}  // namespace bf::ml
