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

}  // namespace

double Mars::eval_term(const Term& term, const double* row) const {
  double v = 1.0;
  for (const Hinge& h : term.hinges) {
    const double x = row[h.var];
    if (h.direction > 0) {
      v *= std::max(x - h.knot, 0.0);
    } else if (h.direction < 0) {
      v *= std::max(h.knot - x, 0.0);
    } else {
      v *= x;
    }
    if (v == 0.0) return 0.0;
  }
  return v;
}

linalg::Matrix Mars::build_design(const linalg::Matrix& x,
                                  const std::vector<Term>& terms) const {
  linalg::Matrix d(x.rows(), terms.size());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.row_ptr(i);
    for (std::size_t t = 0; t < terms.size(); ++t) {
      d(i, t) = eval_term(terms[t], row);
    }
  }
  return d;
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

  linalg::Matrix design = build_design(x, terms);
  double best_rss = y_ss;

  while (terms.size() + 2 <= params.max_terms) {
    double round_best_rss = best_rss;
    std::size_t best_parent = 0;
    Hinge best_hinge;
    bool found = false;

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
          std::vector<Term> cand = terms;
          Term pos = terms[parent];
          pos.hinges.push_back(Hinge{j, knot, +1});
          Term neg = terms[parent];
          neg.hinges.push_back(Hinge{j, knot, -1});
          cand.push_back(pos);
          cand.push_back(neg);

          const linalg::Matrix cd = build_design(x, cand);
          const auto sol = linalg::qr_least_squares(cd, y);
          const double rss = sol.residual_norm * sol.residual_norm;
          if (rss < round_best_rss - 1e-12) {
            round_best_rss = rss;
            best_parent = parent;
            best_hinge = Hinge{j, knot, +1};
            found = true;
          }
        }
      }
    }

    if (!found) break;
    if ((best_rss - round_best_rss) < kMinRssImprovement * y_ss) {
      break;
    }
    Term pos = terms[best_parent];
    pos.hinges.push_back(best_hinge);
    Term neg = terms[best_parent];
    best_hinge.direction = -1;
    neg.hinges.push_back(best_hinge);
    terms.push_back(pos);
    terms.push_back(neg);
    best_rss = round_best_rss;
  }

  // ---- Backward pruning by GCV ----
  // Iteratively delete the term whose removal best improves GCV, keeping
  // the best subset seen (the intercept never leaves).
  std::vector<Term> current = terms;
  auto fit_subset = [&](const std::vector<Term>& subset)
      -> std::pair<std::vector<double>, double> {
    const linalg::Matrix d = build_design(x, subset);
    const auto sol = linalg::qr_least_squares(d, y);
    return {sol.coefficients, sol.residual_norm * sol.residual_norm};
  };

  auto [cur_coef, cur_rss] = fit_subset(current);
  std::vector<Term> best_terms = current;
  std::vector<double> best_coef = cur_coef;
  double best_gcv = gcv_of(cur_rss, n, current.size(), penalty);
  double best_terms_rss = cur_rss;

  while (current.size() > 1) {
    double round_gcv = std::numeric_limits<double>::infinity();
    std::size_t drop = 0;
    std::vector<double> round_coef;
    double round_rss = 0.0;
    for (std::size_t t = 1; t < current.size(); ++t) {  // keep intercept
      std::vector<Term> subset;
      subset.reserve(current.size() - 1);
      for (std::size_t u = 0; u < current.size(); ++u) {
        if (u != t) subset.push_back(current[u]);
      }
      const auto [c, rss] = fit_subset(subset);
      const double g = gcv_of(rss, n, subset.size(), penalty);
      if (g < round_gcv) {
        round_gcv = g;
        drop = t;
        round_coef = c;
        round_rss = rss;
      }
    }
    if (!std::isfinite(round_gcv)) break;
    current.erase(current.begin() + static_cast<std::ptrdiff_t>(drop));
    if (round_gcv < best_gcv) {
      best_gcv = round_gcv;
      best_terms = current;
      best_coef = round_coef;
      best_terms_rss = round_rss;
    }
  }

  terms_ = std::move(best_terms);
  coef_ = std::move(best_coef);
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
