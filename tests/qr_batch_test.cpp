// Differential test of PivotedQr's batch queries: every residual that
// extension_rss and deletion_rss report must equal, bit for bit,
// residual_norm² of qr_least_squares on the explicitly built matrix. A
// seeded corpus of random designs and candidates runs first; then one
// constructed case per way a candidate leaves the base's pivot path (an
// appended column that wins a pivot at the first or a later step, a tie
// that keeps the base pivot, deleting a pivot, deleting the column at the
// swap position, a base that stops on its rank tolerance, and m < n).
// Last, MARS fits made from inside pool tasks must match serial fits.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "linalg/solve.hpp"
#include "ml/mars.hpp"

namespace bf::linalg {
namespace {

/// A design as columns of m doubles each.
using Columns = std::vector<std::vector<double>>;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// residual_norm² of qr_least_squares on the matrix with these columns.
double explicit_rss(const std::vector<const std::vector<double>*>& cols,
                    const std::vector<double>& b) {
  Matrix a(b.size(), cols.size());
  for (std::size_t j = 0; j < cols.size(); ++j) {
    for (std::size_t i = 0; i < b.size(); ++i) a(i, j) = (*cols[j])[i];
  }
  const double r = qr_least_squares(a, b).residual_norm;
  return r * r;
}

std::vector<const double*> pointers(const Columns& cols) {
  std::vector<const double*> out;
  for (const auto& c : cols) out.push_back(c.data());
  return out;
}

/// Checks both batch queries on base `a` against explicit solves: the
/// extension by every pair in `pairs` and the deletion of every column
/// from `first` on. Returns the number of residuals compared.
std::size_t expect_batch_matches(PivotedQr& qr, const Columns& a,
                                 const std::vector<double>& b,
                                 const std::vector<Columns>& pairs,
                                 std::size_t first, const std::string& what) {
  const std::size_t m = b.size();
  std::vector<const std::vector<double>*> base;
  for (const auto& c : a) base.push_back(&c);
  const double base_rss = explicit_rss(base, b);
  std::size_t compared = 0;

  std::vector<double> flat;
  for (const auto& pair : pairs) {
    for (const auto& c : pair) flat.insert(flat.end(), c.begin(), c.end());
  }
  EXPECT_EQ(flat.size(), 2 * m * pairs.size());
  std::vector<double> rss(pairs.size());
  const double got_base = qr.extension_rss(pointers(a), b, flat, rss);
  EXPECT_EQ(bits(got_base), bits(base_rss)) << what << ": extension base";
  for (std::size_t c = 0; c < pairs.size(); ++c) {
    auto design = base;
    design.push_back(&pairs[c][0]);
    design.push_back(&pairs[c][1]);
    EXPECT_EQ(bits(rss[c]), bits(explicit_rss(design, b)))
        << what << ": extension by pair " << c << " got " << rss[c];
    ++compared;
  }

  if (a.size() >= 2 || first == a.size()) {
    std::vector<double> drop(a.size() - first);
    const double got = qr.deletion_rss(pointers(a), b, first, drop);
    EXPECT_EQ(bits(got), bits(base_rss)) << what << ": deletion base";
    for (std::size_t d = first; d < a.size(); ++d) {
      auto design = base;
      design.erase(design.begin() + static_cast<std::ptrdiff_t>(d));
      EXPECT_EQ(bits(drop[d - first]), bits(explicit_rss(design, b)))
          << what << ": deletion of column " << d << " got " << drop[d - first];
      ++compared;
    }
  }
  return compared;
}

std::vector<double> random_column(Rng& rng, std::size_t m, double scale) {
  std::vector<double> c(m);
  for (double& v : c) v = scale * rng.uniform(-1.0, 1.0);
  return c;
}

/// A column drawn from the shapes that steer pivoting: random at a random
/// scale, a copy of another column (ties), zero, one around the rank
/// tolerance, a hinge-like column with zeros, or one with a NaN.
std::vector<double> shaped_column(Rng& rng, std::size_t m,
                                  const Columns& others) {
  const std::size_t shape = rng.uniform_index(8);
  if (shape == 0 && !others.empty()) {
    return others[rng.uniform_index(others.size())];
  }
  if (shape == 1) return std::vector<double>(m, 0.0);
  if (shape == 2) return random_column(rng, m, 1e-10);
  if (shape == 3) {
    auto c = random_column(rng, m, 1.0);
    for (double& v : c) v = std::max(v, 0.0);
    return c;
  }
  if (shape == 4) {
    auto c = random_column(rng, m, 1.0);
    c[rng.uniform_index(m)] = std::numeric_limits<double>::quiet_NaN();
    return c;
  }
  return random_column(rng, m, std::exp2(rng.uniform(-6.0, 12.0)));
}

TEST(QrBatch, RandomDesignsMatchExplicitSolves) {
  PivotedQr qr;  // one engine across every case, as a MARS fit uses it
  std::size_t compared = 0;
  for (std::size_t i = 0; i < 1200; ++i) {
    Rng rng(0x51ull + i);
    const std::size_t m = 1 + rng.uniform_index(24);
    const std::size_t n = 1 + rng.uniform_index(10);
    Columns a;
    for (std::size_t j = 0; j < n; ++j) {
      a.push_back(j == 0 && rng.uniform() < 0.5
                      ? std::vector<double>(m, 1.0)  // intercept
                      : shaped_column(rng, m, a));
    }
    const auto b = random_column(rng, m, 5.0);
    std::vector<Columns> pairs(rng.uniform_index(6));
    for (auto& pair : pairs) {
      pair.push_back(shaped_column(rng, m, a));
      pair.push_back(shaped_column(rng, m, a));
    }
    compared += expect_batch_matches(qr, a, b, pairs, rng.uniform_index(n + 1),
                                     "case " + std::to_string(i));
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(compared, 5000u);
}

TEST(QrBatch, AppendedColumnThatWinsAPivot) {
  PivotedQr qr;
  Rng rng(7);
  const std::size_t m = 12;
  const Columns a = {random_column(rng, m, 1.0), random_column(rng, m, 2.0)};
  const auto b = random_column(rng, m, 3.0);
  // Largest norm outright: leaves at step 0.
  Columns big = {random_column(rng, m, 100.0), random_column(rng, m, 0.1)};
  // Loses step 0 to a large base column, then beats the small one left
  // at step 1: nearly orthogonal to the first pivot, norm between.
  Columns late_base = {random_column(rng, m, 100.0),
                       random_column(rng, m, 0.01)};
  std::vector<double> ortho = random_column(rng, m, 1.0);
  Columns late = {ortho, random_column(rng, m, 0.001)};
  expect_batch_matches(qr, a, b, {big}, 0, "largest at step 0");
  expect_batch_matches(qr, late_base, b, {late, big}, 0, "wins at step 1");
  // The second column of the pair wins instead of the first.
  expect_batch_matches(qr, a, b, {{big[1], big[0]}}, 0, "second wins");
}

TEST(QrBatch, TiedAppendedColumnKeepsTheBasePivot) {
  PivotedQr qr;
  Rng rng(8);
  const std::size_t m = 9;
  const Columns a = {std::vector<double>(m, 1.0), random_column(rng, m, 4.0),
                     random_column(rng, m, 1.0)};
  const auto b = random_column(rng, m, 2.0);
  // Copies of base columns tie the base's pivot at every step they reach.
  expect_batch_matches(qr, a, b, {{a[1], a[2]}, {a[2], a[1]}, {a[0], a[0]}},
                       0, "ties");
}

TEST(QrBatch, DeletingThePivotOrTheSwapPosition) {
  PivotedQr qr;
  Rng rng(9);
  const std::size_t m = 10;
  // Column 0 is small (swapped out of position 0 at step 0), column 2 is
  // the first pivot, column 3 the second.
  const Columns a = {random_column(rng, m, 0.5), random_column(rng, m, 1.0),
                     random_column(rng, m, 50.0), random_column(rng, m, 5.0)};
  const auto b = random_column(rng, m, 2.0);
  expect_batch_matches(qr, a, b, {}, 0, "every deletion");

  // The swap matters when it reorders a later tie. Column 0 sits at
  // position 0 and is swapped out by the pivot at position 3, so without
  // it the exact algorithm would put column 2 ahead of column 1. Both
  // are zero on the rows the first reflector touches and have the same
  // integer norm², so they tie at step 1.
  const Columns tied = {random_column(rng, 6, 0.1),
                        {0, 0, 1, 2, 3, 0},
                        {0, 0, 3, 2, 1, 0},
                        {10, 5, 0, 0, 0, 0},
                        random_column(rng, 6, 0.1)};
  expect_batch_matches(qr, tied, random_column(rng, 6, 2.0), {}, 0,
                       "swap before a tie");
}

TEST(QrBatch, RankDeficientBaseStopsOnItsTolerance) {
  PivotedQr qr;
  Rng rng(10);
  const std::size_t m = 8;
  const auto c0 = random_column(rng, m, 1.0);
  const Columns a = {c0, c0, std::vector<double>(m, 0.0),
                     random_column(rng, m, 1e-11)};
  const auto b = random_column(rng, m, 2.0);
  // One pair in the base's span (stops with it), one adding a direction
  // (continues alone), one below the tolerance.
  const Columns in_span = {c0, std::vector<double>(m, 0.0)};
  const Columns fresh = {random_column(rng, m, 0.01),
                         random_column(rng, m, 1e-12)};
  const Columns tiny = {random_column(rng, m, 1e-11),
                        random_column(rng, m, 1e-11)};
  expect_batch_matches(qr, a, b, {in_span, fresh, tiny}, 0, "rank deficient");
}

TEST(QrBatch, WideDesigns) {
  PivotedQr qr;
  Rng rng(11);
  const std::size_t m = 3;
  Columns a;
  for (int j = 0; j < 5; ++j) a.push_back(random_column(rng, m, 1.0 + j));
  const auto b = random_column(rng, m, 2.0);
  const Columns pair = {random_column(rng, m, 10.0),
                        random_column(rng, m, 0.1)};
  expect_batch_matches(qr, a, b, {pair}, 0, "m < n");
  // A base with as many columns as rows ends exactly at m.
  a.resize(3);
  expect_batch_matches(qr, a, b, {pair}, 0, "m = n");
}

}  // namespace
}  // namespace bf::linalg

namespace bf::ml {
namespace {

TEST(QrBatch, MarsFitsInsidePoolTasksMatchSerialFits) {
  // Counter chains fit MARS models on ThreadPool::global(); each fit
  // keeps its QR engine and scratch to itself, so fits made concurrently
  // from pool tasks must match serial fits bit for bit.
  constexpr std::size_t kFits = 24;
  const auto fit_text = [](std::size_t i) {
    Rng rng(100 + i);
    const std::size_t n = 8 + rng.uniform_index(20);
    const std::size_t p = 1 + rng.uniform_index(2);
    linalg::Matrix x(n, p);
    std::vector<double> y(n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t j = 0; j < p; ++j) x(r, j) = rng.uniform(0.0, 10.0);
      y[r] = std::sin(x(r, 0)) + 0.2 * x(r, p - 1) + rng.uniform(-0.1, 0.1);
    }
    Mars mars;
    mars.fit(x, y);
    std::ostringstream os;
    mars.save(os);
    return os.str();
  };
  std::vector<std::string> serial(kFits);
  for (std::size_t i = 0; i < kFits; ++i) serial[i] = fit_text(i);
  std::vector<std::string> pooled(kFits);
  ThreadPool::global().parallel_for(
      0, kFits, [&](std::size_t i) { pooled[i] = fit_text(i); });
  for (std::size_t i = 0; i < kFits; ++i) {
    EXPECT_EQ(pooled[i], serial[i]) << "fit " << i;
  }
}

}  // namespace
}  // namespace bf::ml
