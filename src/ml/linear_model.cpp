#include "ml/linear_model.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/io.hpp"
#include "linalg/solve.hpp"
#include "ml/metrics.hpp"

namespace bf::ml {
namespace {

/// Basis columns per input: its powers 1..degree and its log2 term.
std::size_t terms_per_input(const GlmParams& params) {
  return static_cast<std::size_t>(params.degree) + (params.log_terms ? 1 : 0);
}

/// Calls f(value) for each basis column of one input row, in design-matrix
/// order: the intercept, then per input its powers 1..degree and its
/// log2 term.
template <class F>
void for_each_basis(const GlmParams& params, const double* row,
                    std::size_t num_inputs, F&& f) {
  f(1.0);  // intercept
  for (std::size_t j = 0; j < num_inputs; ++j) {
    double pow_term = 1.0;
    for (int d = 1; d <= params.degree; ++d) {
      pow_term *= row[j];
      f(pow_term);
    }
    if (params.log_terms) f(std::log2(std::max(0.0, row[j]) + 1.0));
  }
}

}  // namespace

void Glm::fit(const linalg::Matrix& x, const std::vector<double>& y,
              const GlmParams& params) {
  BF_CHECK_MSG(x.rows() == y.size(), "X/y row mismatch");
  BF_CHECK_MSG(x.rows() >= 2, "need at least 2 observations");
  BF_CHECK_MSG(params.degree >= 1, "degree must be >= 1");
  params_ = params;
  num_inputs_ = x.cols();

  const std::size_t n = x.rows();
  // Build the design matrix once.
  const std::size_t pb = 1 + num_inputs_ * terms_per_input(params_);
  linalg::Matrix design(n, pb);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j = 0;
    for_each_basis(params_, x.row_ptr(i), num_inputs_,
                   [&](double v) { design(i, j++) = v; });
  }

  coef_ = linalg::qr_least_squares(design, y).coefficients;

  // Deviance bookkeeping on the response scale.
  const auto pred = predict(x);
  residual_deviance_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    residual_deviance_ += (y[i] - pred[i]) * (y[i] - pred[i]);
  }
  const double ybar = mean(y);
  null_deviance_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    null_deviance_ += (y[i] - ybar) * (y[i] - ybar);
  }
}

double Glm::predict_row(const double* row, std::size_t num_inputs) const {
  BF_CHECK_MSG(fitted(), "predict on unfitted GLM");
  BF_CHECK_MSG(num_inputs == num_inputs_, "input arity mismatch");
  // Term by term, in design order: the query path allocates nothing.
  double eta = 0.0;
  std::size_t j = 0;
  for_each_basis(params_, row, num_inputs,
                 [&](double b) { eta += b * coef_[j++]; });
  return eta;
}

std::vector<double> Glm::predict(const linalg::Matrix& x) const {
  BF_CHECK_MSG(x.cols() == num_inputs_, "prediction arity mismatch");
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    out[i] = predict_row(x.row_ptr(i), num_inputs_);
  }
  return out;
}

double Glm::r_squared() const {
  if (null_deviance_ <= 0.0) return 0.0;
  return 1.0 - residual_deviance_ / null_deviance_;
}

void Glm::save(std::ostream& os) const {
  // An unfitted GLM (coef count 0) is a legal record: counter-model
  // entries only fit the members their chain actually uses.
  os.precision(17);
  os << "bf_glm 3\n";
  os << params_.degree << ' ' << (params_.log_terms ? 1 : 0) << "\n";
  os << num_inputs_ << ' ' << coef_.size();
  for (const double c : coef_) os << ' ' << c;
  os << ' ' << residual_deviance_ << ' ' << null_deviance_ << "\n";
}

Glm Glm::load(std::istream& is) {
  read_format_version(is, "bf_glm", 3);
  Glm g;
  int log_terms = 0;
  std::size_t ncoef = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> g.params_.degree >> log_terms >>
                                 g.num_inputs_ >> ncoef),
               "malformed bf_glm record");
  g.params_.log_terms = log_terms != 0;
  BF_CHECK_MSG(ncoef <= 1'000'000, "bf_glm: implausible coefficient count");
  // predict_row reads one coefficient per basis term: a fitted record
  // holds exactly that many.
  BF_CHECK_MSG(g.params_.degree >= 1, "bf_glm: degree must be >= 1");
  const std::size_t per_input = terms_per_input(g.params_);
  BF_CHECK_MSG(ncoef == 0 || ((ncoef - 1) % per_input == 0 &&
                              (ncoef - 1) / per_input == g.num_inputs_),
               "bf_glm: " << ncoef << " coefficients do not fit "
                          << g.num_inputs_ << " inputs of degree "
                          << g.params_.degree);
  g.coef_.resize(ncoef);
  for (double& c : g.coef_) {
    BF_CHECK_MSG(static_cast<bool>(is >> c), "bf_glm: truncated coefficients");
  }
  BF_CHECK_MSG(
      static_cast<bool>(is >> g.residual_deviance_ >> g.null_deviance_),
      "bf_glm: truncated deviance record");
  return g;
}

}  // namespace bf::ml
