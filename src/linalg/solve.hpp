// Linear solvers: Cholesky for SPD systems and Householder QR least squares.
//
// OLS/GLM and MARS fit through qr_least_squares (numerically safer than
// normal equations when counter columns are nearly collinear, which happens
// constantly with raw GPU event counts).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace bf::linalg {

namespace detail {
struct QrState;
}  // namespace detail

/// Solve A x = b for symmetric positive definite A via Cholesky.
/// Throws bf::Error if A is not SPD (within a small pivot tolerance).
std::vector<double> cholesky_solve(const Matrix& a,
                                   const std::vector<double>& b);

/// Result of a least-squares solve.
struct LeastSquaresResult {
  std::vector<double> coefficients;  ///< minimiser of ||A x - b||_2
  double residual_norm = 0.0;        ///< ||A x - b||_2 at the minimiser
  std::size_t rank = 0;              ///< numerical rank of A
};

/// Minimise ||A x - b||_2 with Householder QR and column pivoting.
/// Rank-deficient columns get zero coefficients (minimum-norm-ish solution
/// restricted to the pivoted basis), which keeps MARS stable when candidate
/// hinge bases are collinear.
LeastSquaresResult qr_least_squares(const Matrix& a,
                                    const std::vector<double>& b);

/// The engine behind qr_least_squares: column-pivoted Householder QR on a
/// column-major design, run step by step. Besides solving, it scores
/// designs related to a base design A (columns `a`, response `b`) in one
/// pass: the base is factored once, and each related design follows the
/// base's steps, reflecting only its own columns, for as long as the exact
/// algorithm run on that design would take the same steps. At the first
/// step where it would not, that design continues the exact algorithm
/// alone from the base's state at that step. Every residual is therefore
/// bit-identical to qr_least_squares on the explicitly built matrix.
///
/// Columns are given as pointers to b.size() doubles each. An instance
/// keeps its scratch between calls, so reusing one for a sequence of
/// related fits allocates only when a design outgrows every earlier one.
class PivotedQr {
 public:
  /// Exactly qr_least_squares of the design with columns `a`.
  LeastSquaresResult solve(std::span<const double* const> a,
                           std::span<const double> b);

  /// For every candidate c, rss[c] = residual_norm * residual_norm of
  /// qr_least_squares([A | pairs_c0 | pairs_c1], b), where candidate c's
  /// two columns sit at pairs[2*c*m] and pairs[(2*c + 1)*m] (m =
  /// b.size()). `pairs` is overwritten. Returns the same quantity for A.
  double extension_rss(std::span<const double* const> a,
                       std::span<const double> b, std::span<double> pairs,
                       std::span<double> rss);

  /// For every column d >= first of A, rss[d - first] = residual_norm *
  /// residual_norm of qr_least_squares on A without column d. Returns the
  /// same quantity for A.
  double deletion_rss(std::span<const double* const> a,
                      std::span<const double> b, std::size_t first,
                      std::span<double> rss);

 private:
  /// Copies A and b into the base storage; returns the base at step 0.
  detail::QrState load(std::span<const double* const> a,
                       std::span<const double> b);
  /// The squared residual of the design made of the base's columns left
  /// at its current step, minus `skip`, plus `extra`, continued alone
  /// with rank tolerance `tol`.
  double branch(const detail::QrState& base, const double* skip,
                std::span<double* const> extra, double tol);

  std::vector<double> base_;        ///< A, column-major
  std::vector<double*> base_col_;   ///< base columns by pivot position
  std::vector<double> base_rhs_;    ///< b, reflected step by step
  std::vector<double> norm2_;       ///< A's column norms², for tolerances
  std::vector<double> work_;        ///< a branched design's columns
  std::vector<double*> work_col_;
  std::vector<double> work_rhs_;
  /// The current step's reflector. A branch runs to completion between
  /// the base's pivot search and its reflection, so they share it.
  std::vector<double> v_;
  std::vector<double> tol_;         ///< each candidate's rank tolerance
  std::vector<std::size_t> live_;   ///< candidates still on the base's path
};

}  // namespace bf::linalg
