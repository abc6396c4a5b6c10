// Tests for the related-work baselines (stepwise regression — Stargazer;
// model-pool parametric regression — Eiger) and the §7 prediction-
// interval extension of the forest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "forest_reference.hpp"
#include "ml/flat_forest.hpp"
#include "ml/metrics.hpp"
#include "ml/model_pool.hpp"
#include "ml/stepwise.hpp"

namespace bf::ml {
namespace {

// ---- stepwise regression ----

struct StepwiseProblem {
  linalg::Matrix x;
  std::vector<double> y;
  std::vector<std::string> names;
};

/// y = 4 + 3*x0 - 2*x2 + noise; x1 and x3 are irrelevant.
StepwiseProblem make_stepwise_problem(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  StepwiseProblem prob{linalg::Matrix(n, 4), std::vector<double>(n),
                       {"a", "b", "c", "d"}};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 4; ++j) prob.x(i, j) = rng.uniform(0, 10);
    prob.y[i] =
        4.0 + 3.0 * prob.x(i, 0) - 2.0 * prob.x(i, 2) + rng.normal(0, 0.3);
  }
  return prob;
}

TEST(Stepwise, SelectsExactlyTheInformativeVariables) {
  const auto prob = make_stepwise_problem(80, 1);
  StepwiseRegression sw;
  sw.fit(prob.x, prob.y, prob.names, {});
  auto sel = sw.selected();
  std::sort(sel.begin(), sel.end());
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0], "a");
  EXPECT_EQ(sel[1], "c");
  EXPECT_GT(sw.r_squared(), 0.99);
}

TEST(Stepwise, FirstSelectedIsStrongestEffect) {
  const auto prob = make_stepwise_problem(80, 2);
  StepwiseRegression sw;
  sw.fit(prob.x, prob.y, prob.names, {});
  // |3| > |-2|: "a" enters first — the Stargazer influence ranking.
  EXPECT_EQ(sw.selected().front(), "a");
}

TEST(Stepwise, PredictsAccurately) {
  const auto train = make_stepwise_problem(80, 3);
  const auto test = make_stepwise_problem(30, 4);
  StepwiseRegression sw;
  sw.fit(train.x, train.y, train.names, {});
  const auto pred = sw.predict(test.x);
  EXPECT_GT(r2(test.y, pred), 0.98);
}

TEST(Stepwise, BicIsMoreConservative) {
  // With mild noise variables, BIC should never select more than AIC.
  const auto prob = make_stepwise_problem(40, 5);
  StepwiseRegression aic;
  StepwiseParams pa;
  pa.criterion = StepwiseCriterion::kAic;
  aic.fit(prob.x, prob.y, prob.names, pa);
  StepwiseRegression bic;
  StepwiseParams pb;
  pb.criterion = StepwiseCriterion::kBic;
  bic.fit(prob.x, prob.y, prob.names, pb);
  EXPECT_LE(bic.selected().size(), aic.selected().size());
}

TEST(Stepwise, MaxVariablesCapRespected) {
  const auto prob = make_stepwise_problem(80, 6);
  StepwiseParams params;
  params.max_variables = 1;
  StepwiseRegression sw;
  sw.fit(prob.x, prob.y, prob.names, params);
  EXPECT_EQ(sw.selected().size(), 1u);
}

TEST(Stepwise, InputValidation) {
  StepwiseRegression sw;
  linalg::Matrix x(2, 2);
  EXPECT_THROW(sw.fit(x, {1.0, 2.0}, {"a", "b"}, {}), Error);  // n < 3
  const double row[2] = {0, 0};
  EXPECT_THROW(sw.predict_row(row, 2), Error);  // unfitted
}

// ---- model-pool regression (Eiger) ----

TEST(ModelPool, RecoversCubicLaw) {
  // time ~ c * n^3: the pool must pick cube(n).
  linalg::Matrix x(16, 1);
  std::vector<double> y(16);
  for (std::size_t i = 0; i < 16; ++i) {
    const double n = 32.0 * static_cast<double>(i + 1);
    x(i, 0) = n;
    y[i] = 2e-9 * n * n * n + 0.001;
  }
  ModelPoolRegression mp;
  mp.fit(x, y, {"n"}, {});
  EXPECT_GT(mp.r_squared(), 0.9999);
  EXPECT_NE(mp.to_string().find("cube(n)"), std::string::npos);
  // Extrapolate a step beyond the range: a correct analytical form keeps
  // working where a forest would flatline.
  const double probe[1] = {600.0};
  EXPECT_NEAR(mp.predict_row(probe, 1), 2e-9 * 600 * 600 * 600 + 0.001,
              0.05 * (2e-9 * 600 * 600 * 600));
}

TEST(ModelPool, RecoversLogLaw) {
  linalg::Matrix x(20, 1);
  std::vector<double> y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    const double n = 64.0 * static_cast<double>(i + 1);
    x(i, 0) = n;
    y[i] = 5.0 + 3.0 * std::log2(n + 1.0);
  }
  ModelPoolRegression mp;
  mp.fit(x, y, {"n"}, {});
  EXPECT_GT(mp.r_squared(), 0.999);
  EXPECT_NE(mp.to_string().find("log2(n)"), std::string::npos);
}

TEST(ModelPool, MultiVariableComposition) {
  Rng rng(7);
  linalg::Matrix x(60, 2);
  std::vector<double> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = rng.uniform(1, 100);
    x(i, 1) = rng.uniform(1, 100);
    y[i] = 0.01 * x(i, 0) * x(i, 0) + 2.0 * std::sqrt(x(i, 1)) +
           rng.normal(0, 0.1);
  }
  ModelPoolRegression mp;
  mp.fit(x, y, {"u", "v"}, {});
  EXPECT_GT(mp.r_squared(), 0.99);
}

TEST(ModelPool, TermBudgetRespected) {
  Rng rng(8);
  linalg::Matrix x(40, 3);
  std::vector<double> y(40);
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.uniform(1, 50);
    y[i] = x(i, 0) + x(i, 1) * x(i, 1) + std::log2(x(i, 2) + 1);
  }
  ModelPoolParams params;
  params.max_terms = 2;
  ModelPoolRegression mp;
  mp.fit(x, y, {"a", "b", "c"}, params);
  // to_string lists at most max_terms terms beyond the intercept.
  const std::string s = mp.to_string();
  EXPECT_LE(static_cast<std::size_t>(
                std::count(s.begin(), s.end(), '(')),
            2u);
}

TEST(ModelPool, BasisHelpers) {
  EXPECT_DOUBLE_EQ(basis_eval(BasisKind::kSquare, 3.0), 9.0);
  EXPECT_DOUBLE_EQ(basis_eval(BasisKind::kSqrt, 16.0), 4.0);
  EXPECT_DOUBLE_EQ(basis_eval(BasisKind::kLog2, 7.0), 3.0);
  EXPECT_STREQ(basis_name(BasisKind::kCube), "cube");
}

// ---- forest prediction intervals ----

TEST(ForestIntervals, BandContainsMeanAndOrdersCorrectly) {
  Rng rng(9);
  linalg::Matrix x(150, 2);
  std::vector<double> y(150);
  for (std::size_t i = 0; i < 150; ++i) {
    x(i, 0) = rng.uniform(0, 10);
    x(i, 1) = rng.uniform(0, 10);
    y[i] = 3.0 * x(i, 0) + rng.normal(0, 1.0);
  }
  RandomForest rf;
  ForestParams params;
  params.n_trees = 150;
  params.seed = 5;
  rf.fit(x, y, {"s", "n"}, params);

  const double row[2] = {5.0, 5.0};
  const auto interval = FlatForest::freeze(rf).predict_interval(row, 0.1);
  EXPECT_LE(interval.lo, interval.mean);
  EXPECT_GE(interval.hi, interval.mean);
  EXPECT_EQ(interval.mean, reference_predict(rf, row));
  EXPECT_GT(interval.hi - interval.lo, 0.0);
}

TEST(ForestIntervals, WiderAlphaGivesNarrowerBand) {
  Rng rng(10);
  linalg::Matrix x(100, 1);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.uniform(0, 10);
    y[i] = x(i, 0) + rng.normal(0, 2.0);
  }
  RandomForest rf;
  ForestParams params;
  params.n_trees = 200;
  rf.fit(x, y, {"x"}, params);
  const double row[1] = {5.0};
  const auto flat = FlatForest::freeze(rf);
  const auto narrow = flat.predict_interval(row, 0.5);  // 50% band
  const auto wide = flat.predict_interval(row, 0.05);   // 95% band
  EXPECT_LE(narrow.hi - narrow.lo, wide.hi - wide.lo);
}

TEST(ForestIntervals, PartialDependenceWithBand) {
  Rng rng(11);
  linalg::Matrix x(120, 2);
  std::vector<double> y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    x(i, 0) = rng.uniform(0, 10);
    x(i, 1) = rng.uniform(0, 10);
    y[i] = 2.0 * x(i, 0) + rng.normal(0, 0.5);
  }
  RandomForest rf;
  ForestParams params;
  params.n_trees = 120;
  rf.fit(x, y, {"s", "noise"}, params);
  const auto flat = FlatForest::freeze(rf);
  const auto curve = flat.partial_dependence_interval(x, "s", 10, 0.1);
  ASSERT_EQ(curve.size(), 10u);
  for (const auto& p : curve) {
    EXPECT_LE(p.y.lo, p.y.mean + 1e-9);
    EXPECT_GE(p.y.hi, p.y.mean - 1e-9);
  }
  // The band's means must match the plain partial dependence curve.
  const auto plain = flat.partial_dependence(x, "s", 10);
  for (std::size_t g = 0; g < curve.size(); ++g) {
    EXPECT_NEAR(curve[g].y.mean, plain[g].y, 1e-9);
    EXPECT_NEAR(curve[g].x, plain[g].x, 1e-12);
  }
}

TEST(ForestIntervals, InvalidAlphaRejected) {
  Rng rng(12);
  linalg::Matrix x(20, 1);
  std::vector<double> y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = static_cast<double>(i);
  }
  RandomForest rf;
  ForestParams params;
  params.n_trees = 10;
  rf.fit(x, y, {"x"}, params);
  const double row[1] = {5.0};
  const auto flat = FlatForest::freeze(rf);
  EXPECT_THROW(flat.predict_interval(row, 0.0), Error);
  EXPECT_THROW(flat.predict_interval(row, 1.0), Error);
}

}  // namespace
}  // namespace bf::ml
