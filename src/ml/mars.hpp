// Multivariate adaptive regression splines (Friedman 1991), following the
// `earth` R package the paper uses for the NW counter models.
//
// The model is f(x) = sum_i c_i * B_i(x) (paper eq. 4) where each basis
// function B_i is the intercept, a hinge max(x_j - c, 0) / max(c - x_j, 0),
// or a product of hinges (interactions). Fitting is the classic two-phase
// procedure: a greedy forward pass that adds reflected hinge pairs, then a
// backward pruning pass that deletes terms to minimise generalised
// cross-validation (GCV).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace bf::ml {

struct MarsParams {
  /// Maximum number of basis terms (including the intercept) after the
  /// forward pass (earth's nk).
  std::size_t max_terms = 21;
  /// Maximum interaction degree (1 = additive, 2 = pairwise products).
  int max_degree = 2;
};

class Mars {
 public:
  void fit(const linalg::Matrix& x, const std::vector<double>& y,
           const MarsParams& params = {});

  double predict_row(const double* row, std::size_t num_inputs) const;
  std::vector<double> predict(const linalg::Matrix& x) const;

  /// GCV criterion of the final (pruned) model.
  double gcv() const { return gcv_; }
  /// Training R^2 of the final model (earth's RSq).
  double r_squared() const { return r_squared_; }
  /// Final number of terms including the intercept.
  std::size_t num_terms() const { return terms_.size(); }
  bool fitted() const { return !terms_.empty(); }

  /// Human-readable model, e.g. "3.2 + 1.4*h(x0-128) - 0.8*h(256-x1)".
  std::string to_string(const std::vector<std::string>& var_names = {}) const;

  /// Serialise the fitted model (terms + coefficients) so a .bfmodel
  /// bundle can round-trip it bit for bit.
  void save(std::ostream& os) const;
  static Mars load(std::istream& is);

 private:
  struct Hinge {
    std::size_t var = 0;
    double knot = 0.0;
    /// +1 for max(x - knot, 0), -1 for max(knot - x, 0), 0 for a linear
    /// term (entered when the knot sits at the minimum of the variable).
    int direction = +1;
  };
  struct Term {
    std::vector<Hinge> hinges;  // empty = intercept
  };

  double eval_term(const Term& term, const double* row) const;

  std::size_t num_inputs_ = 0;
  std::vector<Term> terms_;
  std::vector<double> coef_;
  double gcv_ = 0.0;
  double r_squared_ = 0.0;
};

}  // namespace bf::ml
