#include "linalg/solve.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace bf::linalg {

std::vector<double> cholesky_solve(const Matrix& a,
                                   const std::vector<double>& b) {
  const std::size_t n = a.rows();
  BF_CHECK_MSG(a.cols() == n, "cholesky_solve needs a square matrix");
  BF_CHECK_MSG(b.size() == n, "rhs size mismatch");

  // Factor A = L L^T (lower triangular L stored densely).
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    BF_CHECK_MSG(diag > 1e-12, "matrix is not positive definite (pivot "
                                   << diag << " at column " << j << ")");
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / l(j, j);
    }
  }

  // Forward substitution L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l(i, k) * y[k];
    y[i] = v / l(i, i);
  }
  // Back substitution L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l(k, ii) * x[k];
    x[ii] = v / l(ii, ii);
  }
  return x;
}

namespace detail {

/// One factorization in flight. Pivoting swaps the column pointers, so a
/// column keeps its storage. The remaining steps and the residual read
/// only rows k.. of the columns at positions k.. and of the rhs.
struct QrState {
  std::size_t m = 0;
  std::size_t n = 0;       ///< columns
  std::size_t k = 0;       ///< the next step (= rank so far)
  double tol = 0.0;        ///< rank tolerance
  double** col = nullptr;  ///< col[position] -> m doubles
  double* rhs = nullptr;
};

}  // namespace detail

namespace {

using detail::QrState;

double sum_squares(const double* c, std::size_t k, std::size_t m) {
  double s = 0.0;
  for (std::size_t i = k; i < m; ++i) s += c[i] * c[i];
  return s;
}

/// The running maximum as std::max_element takes it: a NaN first element
/// is kept, later NaNs are skipped.
double fold_max(double largest, double x) { return largest < x ? x : largest; }

/// max_element over the column norms², column `skip` left out.
double max_norm2(const std::vector<double>& norm2, std::size_t skip) {
  const std::size_t first = skip == 0 ? 1 : 0;
  double largest = norm2[first];
  for (std::size_t j = first + 1; j < norm2.size(); ++j) {
    if (j != skip) largest = fold_max(largest, norm2[j]);
  }
  return largest;
}

double rank_tolerance(double max_norm2) {
  return std::max(1e-10, 1e-12 * std::sqrt(max_norm2));
}

struct Pivot {
  std::size_t pos = 0;
  double norm2 = 0.0;  ///< remaining norm² of the pivot column
};

/// The column with the largest remaining norm² (the first on ties; NaN
/// norms never win). With no columns left it is {k, 0}.
Pivot find_pivot(const QrState& s) {
  Pivot p{s.k, 0.0};
  for (std::size_t j = s.k; j < s.n; ++j) {
    const double norm2 = sum_squares(s.col[j], s.k, s.m);
    if (norm2 > p.norm2) {
      p.norm2 = norm2;
      p.pos = j;
    }
  }
  return p;
}

struct Reflector {
  const double* v = nullptr;  ///< v[i - k] for rows k..m-1
  double vnorm2 = 0.0;
  std::size_t k = 0;
  std::size_t m = 0;
};

/// c <- (I - 2 v v^T / (v^T v)) c on rows k..m-1.
void reflect(const Reflector& h, double* c) {
  double s = 0.0;
  for (std::size_t i = h.k; i < h.m; ++i) s += h.v[i - h.k] * c[i];
  s = 2.0 * s / h.vnorm2;
  for (std::size_t i = h.k; i < h.m; ++i) c[i] -= s * h.v[i - h.k];
}

/// Step k: bring the pivot to position k and reflect the columns after it
/// and the rhs. The pivot column below row k is not needed again, so it
/// is not reflected; R(k, k) = alpha is stored in its row k. vnorm2 >=
/// alpha² > 0 because the pivot cleared the rank tolerance.
Reflector householder_step(QrState& s, const Pivot& p, double* v) {
  const std::size_t k = s.k;
  std::swap(s.col[k], s.col[p.pos]);
  double* pc = s.col[k];
  // The pivot search summed exactly this column's remaining squares.
  double alpha = std::sqrt(p.norm2);
  if (pc[k] > 0) alpha = -alpha;
  v[0] = pc[k] - alpha;
  for (std::size_t i = k + 1; i < s.m; ++i) v[i - k] = pc[i];
  double vnorm2 = 0.0;
  for (std::size_t i = 0; i < s.m - k; ++i) vnorm2 += v[i] * v[i];
  const Reflector h{v, vnorm2, k, s.m};
  for (std::size_t j = k + 1; j < s.n; ++j) reflect(h, s.col[j]);
  reflect(h, s.rhs);
  pc[k] = alpha;
  ++s.k;
  return h;
}

/// Runs the remaining steps until the columns run out or turn negligible.
void finish(QrState& s, double* v) {
  while (s.k < std::min(s.m, s.n)) {
    const Pivot p = find_pivot(s);
    if (std::sqrt(p.norm2) <= s.tol) break;  // the rest is negligible
    householder_step(s, p, v);
  }
}

double residual_norm(const QrState& s) {
  double res2 = 0.0;
  for (std::size_t i = s.k; i < s.m; ++i) res2 += s.rhs[i] * s.rhs[i];
  return std::sqrt(res2);
}

double squared(double v) { return v * v; }

}  // namespace

LeastSquaresResult qr_least_squares(const Matrix& a,
                                    const std::vector<double>& b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  BF_CHECK_MSG(b.size() == m, "rhs size mismatch");
  std::vector<double> cols(m * n);
  std::vector<const double*> col_ptr(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) cols[j * m + i] = a(i, j);
    col_ptr[j] = cols.data() + j * m;
  }
  PivotedQr qr;
  return qr.solve(col_ptr, b);
}

QrState PivotedQr::load(std::span<const double* const> a,
                        std::span<const double> b) {
  const std::size_t m = b.size();
  const std::size_t n = a.size();
  BF_CHECK_MSG(m >= 1 && n >= 1, "empty least-squares system");
  base_.resize(m * n);
  base_col_.resize(n);
  norm2_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    double* c = base_.data() + j * m;
    std::copy(a[j], a[j] + m, c);
    base_col_[j] = c;
    norm2_[j] = sum_squares(c, 0, m);
  }
  base_rhs_.assign(b.begin(), b.end());
  v_.resize(m);
  return QrState{m, n, 0, rank_tolerance(max_norm2(norm2_, n)),
                 base_col_.data(), base_rhs_.data()};
}

LeastSquaresResult PivotedQr::solve(std::span<const double* const> a,
                                    std::span<const double> b) {
  QrState s = load(a, b);
  finish(s, v_.data());
  const std::size_t n = s.n;
  const std::size_t rank = s.k;

  // Back substitution on the leading rank x rank triangle.
  std::vector<double> xp(n, 0.0);
  for (std::size_t ii = rank; ii-- > 0;) {
    double v = s.rhs[ii];
    for (std::size_t j = ii + 1; j < rank; ++j) v -= s.col[j][ii] * xp[j];
    BF_CHECK_MSG(std::fabs(s.col[ii][ii]) > 1e-14, "singular R in QR solve");
    xp[ii] = v / s.col[ii][ii];
  }

  LeastSquaresResult out;
  out.coefficients.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const auto column = static_cast<std::size_t>(s.col[j] - base_.data());
    out.coefficients[column / s.m] = xp[j];
  }
  out.residual_norm = residual_norm(s);
  out.rank = rank;
  return out;
}

double PivotedQr::branch(const QrState& base, const double* skip,
                         std::span<double* const> extra, double tol) {
  const std::size_t m = base.m;
  const std::size_t k = base.k;
  work_.resize(m * (base.n + extra.size()));
  work_col_.resize(base.n + extra.size());
  work_rhs_.resize(m);
  QrState s{m, k, k, tol, work_col_.data(), work_rhs_.data()};
  const auto take = [&](const double* c) {
    double* dst = work_.data() + (s.n - k) * m;
    std::copy(c + k, c + m, dst + k);
    work_col_[s.n++] = dst;
  };
  for (std::size_t j = k; j < base.n; ++j) {
    if (base.col[j] != skip) take(base.col[j]);
  }
  for (const double* c : extra) take(c);
  std::copy(base.rhs + k, base.rhs + m, work_rhs_.data() + k);
  finish(s, v_.data());
  return squared(residual_norm(s));
}

double PivotedQr::extension_rss(std::span<const double* const> a,
                                std::span<const double> b,
                                std::span<double> pairs,
                                std::span<double> rss) {
  QrState base = load(a, b);
  const std::size_t m = base.m;
  const std::size_t count = rss.size();
  BF_CHECK_MSG(pairs.size() == 2 * m * count,
               "extension_rss: pairs hold " << pairs.size()
                                            << " doubles for " << count
                                            << " candidate pairs of " << m);
  // A candidate's tolerance continues the base's column-norm maximum over
  // its own two columns, as max_element over the whole design would.
  const double largest = max_norm2(norm2_, base.n);
  tol_.resize(count);
  live_.resize(count);
  for (std::size_t c = 0; c < count; ++c) {
    const double* pair = pairs.data() + 2 * c * m;
    const double with_first = fold_max(largest, sum_squares(pair, 0, m));
    tol_[c] = rank_tolerance(fold_max(with_first, sum_squares(pair + m, 0, m)));
    live_[c] = c;
  }

  // Step-synchronous: at each step, a candidate leaves the base's path
  // when one of its columns would win the pivot (the base's columns are
  // scanned first, so a tie keeps the base pivot) or when its own
  // tolerance disagrees with the base's about stopping. Past the base's
  // last column the base "pivot" is {k, 0}: a candidate with any norm
  // left continues alone, one without stops with the base.
  while (base.k < m) {
    const Pivot p = find_pivot(base);
    const double pivot_norm = std::sqrt(p.norm2);
    const bool stop = pivot_norm <= base.tol;
    std::size_t kept = 0;
    for (const std::size_t c : live_) {
      double* pair = pairs.data() + 2 * c * m;
      double* const own[2] = {pair, pair + m};
      if (sum_squares(own[0], base.k, m) > p.norm2 ||
          sum_squares(own[1], base.k, m) > p.norm2 ||
          (pivot_norm <= tol_[c]) != stop) {
        rss[c] = branch(base, nullptr, own, tol_[c]);
      } else {
        live_[kept++] = c;
      }
    }
    live_.resize(kept);
    if (stop) break;
    const Reflector h = householder_step(base, p, v_.data());
    for (const std::size_t c : live_) {
      reflect(h, pairs.data() + 2 * c * m);
      reflect(h, pairs.data() + (2 * c + 1) * m);
    }
  }
  const double base_rss = squared(residual_norm(base));
  for (const std::size_t c : live_) rss[c] = base_rss;
  return base_rss;
}

double PivotedQr::deletion_rss(std::span<const double* const> a,
                               std::span<const double> b, std::size_t first,
                               std::span<double> rss) {
  QrState base = load(a, b);
  const std::size_t m = base.m;
  const std::size_t n = base.n;
  BF_CHECK_MSG(first <= n && rss.size() == n - first,
               "deletion_rss: " << rss.size() << " results for columns "
                                << first << ".." << n);
  BF_CHECK_MSG(rss.empty() || n >= 2, "deletion_rss: nothing left to solve");
  // A candidate's tolerance takes max_element over the columns it keeps.
  tol_.resize(rss.size());
  live_.resize(rss.size());
  for (std::size_t d = first; d < n; ++d) {
    tol_[d - first] = rank_tolerance(max_norm2(norm2_, d));
    live_[d - first] = d;
  }

  // A deletion leaves the base's path at the step that would pivot its
  // column, or that finds it at position k while another column is
  // swapped in (the swap would reorder the columns that remain), or when
  // its own tolerance disagrees with the base's about stopping.
  const auto at = [&](std::size_t pos, const double* c) {
    return pos < n && base.col[pos] == c;
  };
  while (base.k < m) {
    const Pivot p = find_pivot(base);
    const double pivot_norm = std::sqrt(p.norm2);
    const bool stop = pivot_norm <= base.tol;
    std::size_t kept = 0;
    for (const std::size_t d : live_) {
      const double* gone = base_.data() + d * m;
      if (at(base.k, gone) || at(p.pos, gone) ||
          (pivot_norm <= tol_[d - first]) != stop) {
        rss[d - first] = branch(base, gone, {}, tol_[d - first]);
      } else {
        live_[kept++] = d;
      }
    }
    live_.resize(kept);
    if (stop) break;
    householder_step(base, p, v_.data());
  }
  const double base_rss = squared(residual_norm(base));
  for (const std::size_t d : live_) rss[d - first] = base_rss;
  return base_rss;
}

}  // namespace bf::linalg
