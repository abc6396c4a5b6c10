// Golden MARS and least-squares digests: a seeded corpus of MARS fits and
// of pivoted-QR least-squares solves must reproduce the committed table
// bit for bit. The MARS rows hash the text of Mars::save() (every term,
// knot and coefficient at full precision, plus GCV and R^2); the QR rows
// carry the IEEE-754 bits of qr_least_squares' coefficients (hashed), of
// its residual norm, and its rank. Performance work on the solver or on
// the MARS candidate search must leave this table untouched.
//
// The MARS corpus covers 1-3 inputs, degree 1 and 2, 4-40 rows, max_terms
// 3-21, tied and duplicated x, constant responses, responses MARS fits
// exactly, and the counter chain's own shape: power-law counters over
// log2 sizes (19 rows, 15-row folds, 25 sizes from 64 to 8192). The QR
// corpus covers m < n, m = n and m > n with zero and duplicate columns,
// columns scaled around the rank tolerance, and a NaN column.
//
// The table lives in tests/data/golden_mars.txt. When a deliberate change
// moves a fit, the failure message prints the complete recomputed table;
// review the change and paste it over the file.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/io.hpp"
#include "common/rng.hpp"
#include "golden_table.hpp"
#include "linalg/solve.hpp"
#include "ml/mars.hpp"

namespace bf {
namespace {

constexpr std::size_t kMarsCases = 320;
constexpr std::size_t kQrCases = 72;

struct MarsCase {
  std::string label;
  linalg::Matrix x;
  std::vector<double> y;
  ml::MarsParams params;
};

/// `count` log2-spaced sizes from 64 to 8192, rounded to multiples of 16
/// like a sweep's sizes, as the counter chain sees them: log2(size + 1).
std::vector<double> log2_size_inputs(std::size_t count) {
  std::vector<double> out;
  for (std::size_t k = 0; k < count; ++k) {
    const double t = static_cast<double>(k) / static_cast<double>(count - 1);
    const double size = 16.0 * std::round(std::exp2(6.0 + 7.0 * t) / 16.0);
    out.push_back(std::log2(size + 1.0));
  }
  return out;
}

/// Case `i` of the corpus; the family cycles with i, everything else is
/// drawn from a generator seeded by i.
MarsCase mars_case(std::size_t i) {
  Rng rng(0x6d617273ull + i);
  static const char* const kFamilies[] = {
      "smooth", "tied", "const", "exact", "powerlaw", "interact", "step",
      "noise"};
  const std::size_t family = i % 8;
  MarsCase c;
  c.params.max_degree = 1 + static_cast<int>(rng.uniform_index(2));
  c.params.max_terms = 3 + rng.uniform_index(19);
  std::size_t rows = 4 + rng.uniform_index(37);
  std::size_t p = 1 + rng.uniform_index(3);

  std::vector<double> size_inputs;
  if (family == 4) {
    // The counter chain: one log2-size input, all 19 rows, a 15-row CV
    // training fold of them, or 25 sizes; the chain's own MARS settings
    // every other case.
    p = 1;
    const std::size_t shape = (i / 8) % 3;
    size_inputs = log2_size_inputs(shape == 2 ? 25 : 19);
    if (shape == 1) {
      while (size_inputs.size() > 15) {
        size_inputs.erase(size_inputs.begin() +
                          static_cast<std::ptrdiff_t>(
                              rng.uniform_index(size_inputs.size())));
      }
    }
    rows = size_inputs.size();
    if ((i / 24) % 2 == 0) c.params = ml::MarsParams{};
  }
  if (family == 5) p = std::max<std::size_t>(p, 2);

  c.x = linalg::Matrix(rows, p);
  c.y.assign(rows, 0.0);
  const std::size_t levels = 2 + rng.uniform_index(4);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < p; ++j) {
      double v = rng.uniform(0.0, 10.0);
      if (family == 1) {
        v = static_cast<double>(rng.uniform_index(levels));
      } else if (family == 4) {
        v = size_inputs[r];
      } else if (family == 6 && j == 0) {
        v = std::floor(v);
      }
      c.x(r, j) = v;
    }
    // Duplicated rows: tied x with (for most families) different y.
    if (r > 0 && rng.uniform() < 0.15 && family != 4) {
      for (std::size_t j = 0; j < p; ++j) c.x(r, j) = c.x(r - 1, j);
    }
  }

  const double scale = std::exp2(rng.uniform(-8.0, 12.0));
  const double knot = c.x(rng.uniform_index(rows), 0);
  const double expo = rng.uniform(0.5, 3.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double x0 = c.x(r, 0);
    const double x1 = p > 1 ? c.x(r, 1) : 0.0;
    const double noise = rng.uniform(-0.5, 0.5);
    double v = 0.0;
    switch (family) {
      case 0:
        v = std::sin(x0) + 0.3 * x1 + 0.1 * noise;
        break;
      case 1:
        v = 2.0 * x0 - x1 + noise;
        break;
      case 2:
        v = 3.25;
        break;
      case 3:
        v = 1.5 + 2.0 * std::max(x0 - knot, 0.0);
        break;
      case 4: {
        const double size = std::exp2(x0) - 1.0;
        v = scale * std::pow(size, expo) * (1.0 + 0.01 * noise);
        if ((i / 8) % 2 == 1) v = std::log2(v);
        break;
      }
      case 5:
        v = x0 * x1 + (p > 2 ? c.x(r, 2) : 0.0) + 0.2 * noise;
        break;
      case 6:
        v = x0 < 4.0 ? 1.0 : (x0 < 7.0 ? 5.0 : 2.0);
        v += 0.05 * noise;
        break;
      default:
        v = noise;
        break;
    }
    c.y[r] = v;
  }

  std::ostringstream label;
  label << kFamilies[family] << "-n" << rows << "-p" << p << "-d"
        << c.params.max_degree << "-t" << c.params.max_terms;
  c.label = label.str();
  return c;
}

struct QrCase {
  std::string label;
  linalg::Matrix a;
  std::vector<double> b;
};

/// Case `i` of the least-squares corpus: the shape cycles through m < n,
/// m = n and m > n, and the feature through plain, zero column, duplicate
/// column, columns scaled around the rank tolerance, large columns that
/// raise it, and a NaN column.
QrCase qr_case(std::size_t i) {
  Rng rng(0x7172ull + i);
  static const char* const kShapes[] = {"wide", "square", "tall"};
  static const char* const kFeatures[] = {"plain", "zero", "dup",
                                          "tol",   "big",  "nan"};
  const std::size_t shape = i % 3;
  const std::size_t feature = (i / 3) % 6;
  const std::size_t n = (shape == 0 ? 2 : 1) + rng.uniform_index(7);
  std::size_t m = n;
  if (shape == 0) m = 1 + rng.uniform_index(n - 1);
  if (shape == 2) m = n + 1 + rng.uniform_index(12);

  QrCase c;
  c.a = linalg::Matrix(m, n);
  c.b.assign(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t j = 0; j < n; ++j) c.a(r, j) = rng.uniform(-3.0, 3.0);
    c.b[r] = rng.uniform(-5.0, 5.0);
  }
  const std::size_t col = rng.uniform_index(n);
  const std::size_t other = rng.uniform_index(n);
  for (std::size_t r = 0; r < m; ++r) {
    switch (feature) {
      case 1:
        c.a(r, col) = 0.0;
        break;
      case 2:
        c.a(r, col) = c.a(r, other);
        break;
      case 3:
        // Column norms from 1e-11 to 1e-9: straddles the 1e-10 floor.
        c.a(r, col) *= std::pow(10.0, -9.0 - 2.0 * (i % 5) / 4.0);
        break;
      case 4:
        // A 1e7-scale column lifts the tolerance to ~1e-5; a second
        // column sits just around it.
        c.a(r, col) *= 1e7;
        if (other != col) c.a(r, other) *= 3e-6;
        break;
      case 5:
        c.a(r, col) = r == 0 ? std::numeric_limits<double>::quiet_NaN()
                             : c.a(r, col);
        break;
      default:
        break;
    }
  }
  std::ostringstream label;
  label << kShapes[shape] << '-' << kFeatures[feature] << "-m" << m << "n"
        << n;
  c.label = label.str();
  return c;
}

std::string case_id(std::size_t i) {
  std::string id = std::to_string(i);
  return std::string(id.size() < 3 ? 3 - id.size() : 0, '0') + id;
}

TEST(GoldenMars, SeededCorpusMatchesTable) {
  std::vector<std::pair<std::string, std::string>> got;
  for (std::size_t i = 0; i < kMarsCases; ++i) {
    const MarsCase c = mars_case(i);
    ml::Mars mars;
    mars.fit(c.x, c.y, c.params);
    std::ostringstream text;
    mars.save(text);
    got.emplace_back("mars " + case_id(i) + ' ' + c.label,
                     to_hex64(fnv1a64(text.str())));
  }
  for (std::size_t i = 0; i < kQrCases; ++i) {
    const QrCase c = qr_case(i);
    const auto sol = linalg::qr_least_squares(c.a, c.b);
    std::string coef_bits;
    for (const double v : sol.coefficients) coef_bits += bits_hex(v) + ' ';
    const std::string key = "qr " + case_id(i) + '-' + c.label;
    got.emplace_back(key + " coef", to_hex64(fnv1a64(coef_bits)));
    got.emplace_back(key + " residual", bits_hex(sol.residual_norm));
    got.emplace_back(key + " rank", std::to_string(sol.rank));
  }
  expect_golden_table(BF_GOLDEN_MARS, got);
}

}  // namespace
}  // namespace bf
