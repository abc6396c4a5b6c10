// (Generalised) linear models for counter modelling.
//
// Stage 5 of the paper's methodology fits each retained counter as a
// function of problem characteristics; "unless confronted with trivial
// cases … (generalized) linear models are adequate". We provide ordinary
// least squares on a configurable polynomial/log basis, plus a Gaussian GLM
// with a log link (fit by IRLS) for strictly positive counters, and report
// the residual deviance the paper quotes for the MM counter models.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace bf::ml {

enum class LinkFunction {
  kIdentity,  ///< ordinary least squares
  kLog,       ///< Gaussian GLM with log link (IRLS)
};

struct GlmParams {
  LinkFunction link = LinkFunction::kIdentity;
  /// Polynomial degree of the basis expansion of each input (>=1).
  int degree = 2;
  /// Also include log2(x+1) of each input in the basis — counters are
  /// frequently polynomial in the problem size's logarithm.
  bool log_terms = true;
};

/// A fitted (generalised) linear model y ~ basis(x).
class Glm {
 public:
  /// Fit with rows of `x` as observations of the raw inputs; the basis
  /// expansion declared in `params` is applied internally.
  void fit(const linalg::Matrix& x, const std::vector<double>& y,
           const GlmParams& params = {});

  double predict_row(const double* row, std::size_t num_inputs) const;
  std::vector<double> predict(const linalg::Matrix& x) const;

  /// Residual deviance: for the Gaussian family this is the residual sum
  /// of squares on the response scale (what R's glm reports).
  double residual_deviance() const { return residual_deviance_; }
  /// Null deviance (intercept-only model), for pseudo-R^2.
  double null_deviance() const { return null_deviance_; }
  double r_squared() const;

  const std::vector<double>& coefficients() const { return coef_; }
  bool fitted() const { return !coef_.empty(); }

  /// Serialise the fitted model (basis parameters + coefficients) so a
  /// .bfmodel bundle can round-trip it bit for bit.
  void save(std::ostream& os) const;
  static Glm load(std::istream& is);

 private:
  std::vector<double> expand_basis(const double* row,
                                   std::size_t num_inputs) const;

  GlmParams params_;
  std::size_t num_inputs_ = 0;
  std::vector<double> coef_;
  double residual_deviance_ = 0.0;
  double null_deviance_ = 0.0;
};

}  // namespace bf::ml
